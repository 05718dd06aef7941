"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Everything is seeded; the whole module is deterministic.
"""

import time
from itertools import islice

import numpy as np

from qpartial import linalg, sampling
from qpartial.density import (
    FixpointConfig,
    PartialDensityOperator,
    chain_supremum,
    loewner_leq,
)
from qpartial.intervals import add_intervals, directed_intersection, reverse_inclusion_leq, scale_interval
from qpartial.logic import ClosedSubspace, gleason_measure
from qpartial.observables import (
    BoundedObservable,
    e0,
    expected_interval,
    expected_interval_op,
    observable_square_interval,
    spectrum_bounds,
)
from qpartial.qlang import interpret, parse
from qpartial.verify import order_isomorphism_checks, random_program, subprobability_axioms

from conftest import geometric_chain

SEED = 20240901


def announce(number: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_gleason_order_isomorphism():
    started = time.perf_counter()
    agree, witness = order_isomorphism_checks([2, 3, 4, 8], trials=500, seed=SEED)
    elapsed = time.perf_counter() - started
    passed = agree.passed and witness.passed and elapsed < 60.0
    announce(
        1,
        passed,
        f"2000 pairs, Loewner vs measure order: {agree.passes} agreements, "
        f"{witness.passes} witnessed failures, 0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_subprobability_axioms():
    rng = np.random.default_rng([SEED, 2])
    worst_additivity = 0.0
    worst_mass_gap = 0.0
    exact_zero = True
    for i in range(200):
        dim = int(rng.integers(2, 9))
        f = sampling.random_pdo(dim, rng)
        ok, deviation = subprobability_axioms(f, SEED + i)
        worst_additivity = max(worst_additivity, deviation)
        exact_zero = exact_zero and gleason_measure(f, ClosedSubspace.zero(dim)) == 0.0
        full = gleason_measure(f, ClosedSubspace.full(dim))
        worst_mass_gap = max(worst_mass_gap, abs(full - f.trace))
        assert ok
    passed = worst_additivity < 1e-8 and exact_zero and worst_mass_gap <= 1e-10
    announce(
        2,
        passed,
        f"200 operators: additivity deviation {worst_additivity:.2e}, "
        f"p(zero) exact, |p(H)-tr| {worst_mass_gap:.2e}",
    )


def test_criterion_3_dcpo_chains():
    rng = np.random.default_rng([SEED, 3])
    worst_norm = 0.0
    worst_ratio = 0.0
    worst_scott = 0.0
    for dim in (2, 3, 4, 8):
        for _ in range(20):
            f = sampling.random_pdo(dim, rng, trace=float(rng.uniform(0.3, 1.0)))
            traces = [fn.trace for fn in islice(geometric_chain(f), 20)]
            gaps = np.diff(traces)
            worst_ratio = max(worst_ratio, float(np.max(np.abs(gaps[1:] / gaps[:-1] - 0.5))))
            chain = list(islice(geometric_chain(f), 64))
            iterations, converged, _ = chain_supremum(fn.trace for fn in chain)
            assert converged
            sup = PartialDensityOperator(chain[iterations].matrix)
            worst_norm = max(worst_norm, linalg.max_norm(sup.matrix - f.matrix))
            for _ in range(50):
                k = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
                worst_scott = max(
                    worst_scott, abs(gleason_measure(sup, k) - gleason_measure(f, k))
                )
    passed = worst_norm <= 1e-8 and worst_ratio <= 1e-9 and worst_scott <= 1e-6
    announce(
        3,
        passed,
        f"80 geometric chains: sup error {worst_norm:.2e}, gap-halving deviation "
        f"{worst_ratio:.2e}, Scott continuity {worst_scott:.2e} over 50 events each",
    )


def test_criterion_4_interval_expectation_reproduction():
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    box = expected_interval_op(pauli_z, PartialDensityOperator(np.diag([0.5, 0.25])))
    exact = abs(box.lo - 0.0) <= 1e-12 and abs(box.hi - 0.5) <= 1e-12

    rng = np.random.default_rng([SEED, 4])
    ignorance = True
    degenerate = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        r = sampling.random_observable(dim, rng)
        m, big_m = spectrum_bounds(r)
        zero_box = expected_interval(r, PartialDensityOperator.zero(dim))
        ignorance = ignorance and zero_box.lo == m and zero_box.hi == big_m
        g = sampling.random_pdo(dim, rng, trace=1.0)
        total_box = expected_interval(r, g)
        target = float(np.trace(r.operator @ g.matrix).real)
        degenerate = max(degenerate, abs(total_box.lo - target), abs(total_box.hi - target))
    passed = exact and ignorance and degenerate <= 1e-10
    announce(
        4,
        passed,
        f"Z on diag(0.5,0.25) -> [{box.lo}, {box.hi}]; zero states give [m,M]; "
        f"total states degenerate within {degenerate:.2e}",
    )


def test_criterion_5_interval_monotonicity_and_continuity():
    rng = np.random.default_rng([SEED, 5])
    monotone_failures = 0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        r = sampling.random_observable(dim, rng)
        f, g = sampling.loewner_pair(dim, rng)
        if not reverse_inclusion_leq(expected_interval(r, f), expected_interval(r, g)):
            monotone_failures += 1

    worst_endpoint = 0.0
    worst_e0 = 0.0
    for _ in range(40):
        dim = int(rng.integers(2, 9))
        f = sampling.random_pdo(dim, rng, trace=float(rng.uniform(0.2, 1.0)))
        shifted = sampling.random_hermitian(dim, rng)
        shifted = shifted - np.linalg.eigvalsh(shifted)[0] * np.eye(dim)
        r_pos = BoundedObservable(shifted)
        iters, _, _ = chain_supremum(fn.trace for fn in geometric_chain(f))
        boxes = [expected_interval(r_pos, fn) for fn in islice(geometric_chain(f), iters + 1)]
        limit = directed_intersection(boxes)
        target = expected_interval(r_pos, f)
        worst_endpoint = max(
            worst_endpoint, abs(limit.lo - target.lo), abs(limit.hi - target.hi)
        )
        sup_e0 = max(e0(r_pos, fn) for fn in islice(geometric_chain(f), iters + 1))
        worst_e0 = max(worst_e0, abs(sup_e0 - e0(r_pos, f)))
    passed = monotone_failures == 0 and worst_endpoint <= 1e-6 and worst_e0 <= 1e-8
    announce(
        5,
        passed,
        f"500 comparable pairs, 0 monotonicity failures; chain endpoint error "
        f"{worst_endpoint:.2e}; running-sup e0 error {worst_e0:.2e}",
    )


def test_criterion_6_linearity_and_square_law():
    rng = np.random.default_rng([SEED, 6])
    worst_linear = 0.0
    for _ in range(500):
        shape = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        a, b = sampling.commuting_pair_product_spectrum(shape, rng)
        f = sampling.random_pdo(shape[0] * shape[1], rng)
        k = float(rng.uniform(-3, 3))
        ell = float(rng.uniform(-3, 3))
        left = expected_interval_op(k * a + ell * b, f)
        right = add_intervals(
            scale_interval(k, expected_interval_op(a, f)),
            scale_interval(ell, expected_interval_op(b, f)),
        )
        worst_linear = max(worst_linear, abs(left.lo - right.lo), abs(left.hi - right.hi))

    worst_square = 0.0
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        a = sampling.random_hermitian(dim, rng)
        f = sampling.random_pdo(dim, rng)
        left = observable_square_interval(a, f)
        right = expected_interval_op(a @ a, f)
        worst_square = max(worst_square, abs(left.lo - right.lo), abs(left.hi - right.hi))
    passed = worst_linear <= 1e-9 and worst_square <= 1e-9
    announce(
        6,
        passed,
        f"500 commuting pairs (shared eigenbasis, product spectra): linearity "
        f"deviation {worst_linear:.2e}; 500 square-law checks: {worst_square:.2e}",
    )


def test_criterion_7_containment_of_completions():
    rng = np.random.default_rng([SEED, 7])
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        r = sampling.random_observable(dim, rng)
        f = sampling.random_pdo(dim, rng, trace=float(rng.uniform(0.0, 0.95)))
        g = sampling.total_completion(f, rng)
        assert loewner_leq(f, g)[0]
        value = float(np.trace(r.operator @ g.matrix).real)
        box = expected_interval(r, f)
        worst = max(worst, box.lo - value, value - box.hi)
    passed = worst <= 1e-9
    announce(7, passed, f"200 total completions, worst escape {worst:.2e}")


def test_criterion_8_qlang_loops():
    ground = PartialDensityOperator.ground_state(2)
    coin = parse("qubit q; h q; while q in |1> { h q; }")
    worst_residual = 0.0
    for n in range(1, 31):
        report = interpret(coin, ground, FixpointConfig(max_iterations=n))
        worst_residual = max(worst_residual, abs(report.residual - 2.0**-n))
    full = interpret(coin, ground)
    diverging = interpret(parse("qubit q; while q in |0> { skip; }"), ground)

    rng = np.random.default_rng([SEED, 8])
    violations = 0
    for _ in range(40):
        qubits = int(rng.integers(1, 3))
        prog = random_program(qubits, rng)
        state = sampling.random_pdo(2**qubits, rng)
        try:
            interpret(prog, state, FixpointConfig(max_iterations=50))
        except Exception:
            violations += 1
    passed = (
        worst_residual <= 1e-9
        and full.converged
        and full.output.trace >= 1.0 - FixpointConfig().trace_tol
        and diverging.residual == 1.0
        and violations == 0
    )
    announce(
        8,
        passed,
        f"fair coin residual error {worst_residual:.2e} for n<=30, converged trace "
        f"{full.output.trace:.12f}; diverging residual {diverging.residual}; "
        f"{violations} chain violations in 40 random programs",
    )


def test_criterion_9_eigensolver_quality():
    rng = np.random.default_rng([SEED, 9])
    worst_recon = 0.0
    worst_trace = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        a = sampling.random_hermitian(dim, rng)
        w, v = linalg.hermitian_eig(a)
        worst_recon = max(worst_recon, linalg.max_norm((v * w) @ v.conj().T - a))
        worst_trace = max(
            worst_trace,
            abs(float(np.sum(w)) - float(np.trace(a).real)),
            abs(float(np.sum(w**2)) - float(np.trace(a @ a).real)),
        )
    passed = worst_recon < 1e-9 and worst_trace <= 1e-9
    announce(
        9,
        passed,
        f"1000 Hermitian matrices up to dim 16: reconstruction {worst_recon:.2e}, "
        f"trace identities {worst_trace:.2e}",
    )
