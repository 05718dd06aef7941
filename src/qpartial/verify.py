"""Randomized verification suites for the library's structural invariants.

Each suite runs named checks over seeded trials and aggregates per-check
pass/fail counts, the worst deviation observed, and the seeds of failing
trials (as ``[seed, dim, trial]`` triples that reproduce the failing rng
stream). Reports are plain data, serialized by the command line front
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import count

import numpy as np

from . import linalg, sampling
from .density import FixpointConfig, PartialDensityOperator, chain_supremum, dyadic_diagonal_state, loewner_leq, scale
from .errors import ChainMonotonicityError
from .intervals import CompactInterval, add_intervals, directed_intersection, reverse_inclusion_leq, scale_interval, translate
from .logic import (
    ClosedSubspace,
    gleason_measure,
    join,
    meet,
    orthocomplement,
    state_leq,
    subspace_from_vectors,
    subspace_leq,
)
from .observables import (
    BoundedObservable,
    e0,
    expected_interval,
    expected_interval_op,
    observable_square_interval,
    pvm_map,
    spectrum_bounds,
)
from .qlang import denote, parse
from .qlang.ast import ApplyUnitary, Branch, Program, Skip, While, to_body
from .qlang.gates import GATES, gate_arity, ket_guard_projection

SUITES = ("gleason", "dcpo", "interval", "qlang")

_MEASURE_LEQ_TOL = 1e-9
_WITNESS_SEPARATION = 1e-9
ADDITIVITY_TOL = 1e-8  # additivity of a measure over orthogonal families


@dataclass
class CheckResult:
    name: str
    passes: int = 0
    failures: int = 0
    worst_deviation: float = 0.0
    failure_seeds: list = field(default_factory=list)

    def record(self, ok: bool, deviation: float, seed) -> None:
        self.worst_deviation = max(self.worst_deviation, deviation)
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            self.failure_seeds.append(list(seed))

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passes": self.passes,
            "failures": self.failures,
            "worst_deviation": self.worst_deviation,
            "failure_seeds": sorted(self.failure_seeds),
            "passed": self.passed,
        }


@dataclass
class SuiteReport:
    suite: str
    seed: int
    dims: list[int]
    trials: int
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "dims": list(self.dims),
            "trials": self.trials,
            "checks": [c.to_json() for c in self.checks],
            "all_passed": self.all_passed,
        }


def run_suite(suite: str, dims, trials: int, seed: int) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    dims = list(dims)
    if not dims:
        raise ValueError("dims must list at least one dimension")
    if any(d < 2 or d > 16 for d in dims):
        raise ValueError("dims must lie in [2, 16]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    runner = {
        "gleason": gleason_suite,
        "dcpo": dcpo_suite,
        "interval": interval_suite,
        "qlang": qlang_suite,
    }[suite]
    return runner(dims, trials, seed)


# ---------------------------------------------------------------- gleason


def subspace_pool(dim: int, count: int, rng: np.random.Generator) -> list[ClosedSubspace]:
    """Random subspaces with ranks cycling over 1 .. dim-1."""
    return [sampling.random_subspace(dim, 1 + i % (dim - 1), rng) for i in range(count)]


def measure_violation(
    f: PartialDensityOperator,
    g: PartialDensityOperator,
    pool: np.ndarray,
    fresh_lines: np.ndarray,
) -> float:
    """Largest amount by which f's measure exceeds g's over the sample.

    ``pool`` is a stacked array of projections, ``fresh_lines`` unit row
    vectors spanning rank-one events. Positive values witness a failure
    of the measure order G(f) <= G(g).
    """
    diff = f.matrix - g.matrix
    worst = -np.inf
    if len(pool):
        worst = max(worst, float(np.max(np.einsum("kij,ji->k", pool, diff).real)))
    if len(fresh_lines):
        forms = np.einsum("ki,ij,kj->k", fresh_lines.conj(), diff, fresh_lines).real
        worst = max(worst, float(np.max(forms)))
    return worst


def order_isomorphism_checks(dims, trials: int, seed: int) -> list[CheckResult]:
    """Loewner order versus sampled measure order, with witness extraction.

    Random pairs are a mix of constructed-comparable and independent
    operators, each sampled against 100 pool events and 100 fresh lines.
    When the Loewner test accepts, no sampled event may see f exceed g
    beyond 1e-9; when it rejects, the returned witness event
    must separate the two measures by more than 1e-9 (the witness line is
    part of the sampled events, so the two verdicts can never disagree).
    """
    agree = CheckResult("loewner_implies_measure_leq")
    witness_check = CheckResult("loewner_failure_witness_separates")
    for dim in dims:
        pool_rng = np.random.default_rng([seed, dim])
        pool = np.stack([k.projection for k in subspace_pool(dim, 100, pool_rng)])
        for t in range(trials):
            trial_seed = (seed, dim, t)
            rng = np.random.default_rng(list(trial_seed))
            if t % 3 == 0:
                f, g = sampling.loewner_pair(dim, rng)
            else:
                f, g = sampling.independent_pair(dim, rng)
            lines = rng.standard_normal((100, dim)) + 1j * rng.standard_normal((100, dim))
            lines /= np.linalg.norm(lines, axis=1, keepdims=True)
            ok, witness = state_leq(f, g)
            violation = measure_violation(f, g, pool, lines)
            if ok:
                agree.record(violation <= _MEASURE_LEQ_TOL, max(0.0, violation), trial_seed)
            else:
                separation = gleason_measure(f, witness) - gleason_measure(g, witness)
                witness_check.record(separation > _WITNESS_SEPARATION, 0.0, trial_seed)
                agree.record(True, 0.0, trial_seed)
    return [agree, witness_check]


def gleason_suite(dims, trials: int, seed: int) -> SuiteReport:
    checks = order_isomorphism_checks(dims, trials, seed)
    additivity = CheckResult("orthogonal_additivity")
    monotone = CheckResult("event_monotonicity")
    lattice = CheckResult("lattice_laws")
    linearity = CheckResult("measure_linearity")
    axioms = CheckResult("subprobability_axioms")
    for dim in dims:
        for t in range(trials):
            trial_seed = (seed, dim, t)
            rng = np.random.default_rng(list(trial_seed))
            f = sampling.random_pdo(dim, rng)

            u = sampling.random_unitary(dim, rng)
            split = int(rng.integers(1, dim))
            k1 = subspace_from_vectors([u[:, i] for i in range(split)], dim=dim)
            k2 = subspace_from_vectors([u[:, i] for i in range(split, dim)], dim=dim)
            dev = abs(gleason_measure(f, join(k1, k2)) - gleason_measure(f, k1) - gleason_measure(f, k2))
            additivity.record(dev <= _MEASURE_LEQ_TOL, dev, trial_seed)

            sub = subspace_from_vectors([u[:, i] for i in range(max(1, split // 2))], dim=dim)
            gap = gleason_measure(f, sub) - gleason_measure(f, k1)
            monotone.record(
                subspace_leq(sub, k1) and gap <= _MEASURE_LEQ_TOL, max(0.0, gap), trial_seed
            )

            ka = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
            kb = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
            lattice_dev = max(
                linalg.max_norm(join(ka, kb).projection - join(kb, ka).projection),
                linalg.max_norm(meet(ka, kb).projection - meet(kb, ka).projection),
                linalg.max_norm(join(ka, ka).projection - ka.projection),
                linalg.max_norm(orthocomplement(orthocomplement(ka)).projection - ka.projection),
                linalg.max_norm(
                    orthocomplement(meet(ka, kb)).projection
                    - join(orthocomplement(ka), orthocomplement(kb)).projection
                ),
            )
            lattice.record(lattice_dev <= linalg.PROJ_TOL, lattice_dev, trial_seed)

            r = float(rng.uniform(0.0, 1.0))
            lin_dev = abs(gleason_measure(scale(f, r), ka) - r * gleason_measure(f, ka))
            linearity.record(lin_dev <= 1e-10, lin_dev, trial_seed)

            axioms.record(*subprobability_axioms(f, seed + t), trial_seed)
    return SuiteReport(
        "gleason", seed, list(dims), trials, checks + [additivity, monotone, lattice, linearity, axioms]
    )


def subprobability_axioms(f: PartialDensityOperator, rng_seed: int) -> tuple[bool, float]:
    """Randomized check of the three sub-probability measure axioms.

    The zero event must measure exactly 0 and the whole space at most 1
    (within ``linalg.PSD_TOL``). In each of three trials t, drawn from
    ``default_rng([rng_seed, t])``, a random unitary image of a random
    partition of basis vectors gives a family of mutually orthogonal
    events; their join must measure the sum of their measures within
    ``ADDITIVITY_TOL``. Returns whether all held and the worst additivity
    deviation.
    """
    n = f.dim
    zero_value = gleason_measure(f, ClosedSubspace.zero(n))
    full_value = gleason_measure(f, ClosedSubspace.full(n))
    passed = zero_value == 0.0 and full_value <= 1.0 + linalg.PSD_TOL
    worst = 0.0
    for t in range(3):
        rng = np.random.default_rng([rng_seed, t])
        u = sampling.random_unitary(n, rng)
        subset_size = int(rng.integers(1, n + 1))
        axes = rng.permutation(n)[:subset_size]
        group_count = int(rng.integers(1, subset_size + 1))
        family = [
            subspace_from_vectors([u[:, i] for i in axes[j::group_count]], dim=n) for j in range(group_count)
        ]
        total = sum(gleason_measure(f, k) for k in family)
        deviation = abs(gleason_measure(f, reduce(join, family)) - total)
        worst = max(worst, deviation)
        passed = passed and deviation <= ADDITIVITY_TOL
    return passed, worst


# ------------------------------------------------------------------- dcpo


def geometric_chain(f: PartialDensityOperator):
    """The increasing chain (1 - 2^-n) f, n = 1, 2, ..."""
    for n in count(1):
        yield scale(f, 1.0 - 2.0**-n)


def _geometric_supremum(f: PartialDensityOperator, cfg: FixpointConfig):
    """``chain_supremum`` of ``geometric_chain(f)``: the certified elements
    it consumed, the last of them its supremum, and whether it converged."""
    consumed = []

    def matrices():
        for fn in geometric_chain(f):
            consumed.append(fn)
            yield fn.matrix

    _, _, converged, _ = chain_supremum(matrices(), cfg)
    return consumed, converged


def dcpo_suite(dims, trials: int, seed: int) -> SuiteReport:
    order_laws = CheckResult("order_laws")
    norm_bound = CheckResult("norm_below_trace")
    chain_check = CheckResult("geometric_chain_supremum")
    scott = CheckResult("gleason_scott_continuity")
    dyadic = CheckResult("dyadic_diagonal_states")
    cfg = FixpointConfig()
    for dim in dims:
        for t in range(trials):
            trial_seed = (seed, dim, t)
            rng = np.random.default_rng(list(trial_seed))
            f = sampling.random_pdo(dim, rng)

            refl, _ = loewner_leq(f, f)
            fa, ga = sampling.loewner_pair(dim, rng)
            trans_mid = PartialDensityOperator(0.5 * (fa.matrix + ga.matrix))
            t1, _ = loewner_leq(fa, trans_mid)
            t2, _ = loewner_leq(trans_mid, ga)
            t3, _ = loewner_leq(fa, ga)
            perturbation = sampling.random_hermitian(dim, rng)
            spectral_norm = float(np.max(np.abs(np.linalg.eigvalsh(perturbation))))
            perturbation *= 0.4 * linalg.PSD_TOL / max(spectral_norm, 1e-300)
            close = PartialDensityOperator(f.matrix + perturbation)
            both = loewner_leq(f, close)[0] and loewner_leq(close, f)[0]
            anti = linalg.max_norm(close.matrix - f.matrix) <= 10 * linalg.PSD_TOL
            order_laws.record(refl and t1 and t2 and t3 and (not both or anti), 0.0, trial_seed)

            eigs = np.linalg.eigvalsh(f.matrix)
            dev = max(float(eigs[-1]) - f.trace, f.trace - 1.0)
            norm_bound.record(dev <= linalg.PSD_TOL, max(0.0, dev), trial_seed)

            chain, converged = _geometric_supremum(f, cfg)
            sup = chain[-1]
            err = linalg.max_norm(sup.matrix - f.matrix)
            below, _ = linalg.is_positive_semidefinite(
                f.matrix + linalg.PSD_TOL * np.eye(dim) - sup.matrix
            )
            chain_check.record(converged and err <= 1e-8 and below, err, trial_seed)

            worst = 0.0
            for _ in range(10):
                k = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
                target = gleason_measure(f, k)
                sup_measure = max(gleason_measure(fn, k) for fn in chain)
                worst = max(worst, abs(gleason_measure(sup, k) - sup_measure))
                worst = max(worst, abs(gleason_measure(sup, k) - target))
            scott.record(worst <= 1e-6, worst, trial_seed)

            bits = [int(b) for b in rng.integers(0, 2, size=dim)]
            state = dyadic_diagonal_state(bits, dim)
            expected = sum(b / 2.0 ** (i + 1) for i, b in enumerate(bits))
            axis_dev = max(
                abs(
                    gleason_measure(state, subspace_from_vectors([np.eye(dim)[i]], dim=dim))
                    - bits[i] / 2.0 ** (i + 1)
                )
                for i in range(dim)
            )
            ddev = max(abs(state.trace - expected), axis_dev)
            dyadic.record(ddev <= 1e-12, ddev, trial_seed)
    return SuiteReport(
        "dcpo", seed, list(dims), trials, [order_laws, norm_bound, chain_check, scott, dyadic]
    )


# ---------------------------------------------------------------- interval


def interval_suite(dims, trials: int, seed: int) -> SuiteReport:
    arithmetic = CheckResult("interval_arithmetic")
    monotone_ops = CheckResult("reverse_inclusion_monotone_ops")
    intersect = CheckResult("directed_intersection_contained")
    pvm = CheckResult("pvm_axioms")
    expect_monotone = CheckResult("expected_interval_monotone")
    scott_e = CheckResult("expected_interval_scott_continuity")
    containment = CheckResult("containment_of_total_completions")
    linearity = CheckResult("linearity_commuting_product_spectrum")
    square = CheckResult("square_law")
    cfg = FixpointConfig()
    for dim in dims:
        for t in range(trials):
            trial_seed = (seed, dim, t)
            rng = np.random.default_rng(list(trial_seed))

            a = CompactInterval(*sorted(rng.uniform(-5, 5, size=2)))
            b = CompactInterval(*sorted(rng.uniform(-5, 5, size=2)))
            k = float(rng.uniform(-3, 3))
            scaled = scale_interval(k, a)
            summed = add_intervals(a, b)
            arith_dev = max(
                abs(translate(k, a).lo - (k + a.lo)),
                abs(scaled.lo - min(k * a.lo, k * a.hi)),
                abs(scaled.hi - max(k * a.lo, k * a.hi)),
                abs(summed.lo - (a.lo + b.lo)),
                abs(summed.hi - (a.hi + b.hi)),
            )
            arithmetic.record(arith_dev == 0.0 and scaled.lo <= scaled.hi, arith_dev, trial_seed)

            inner = CompactInterval(*sorted(rng.uniform(a.lo, a.hi, size=2))) if a.width > 0 else a
            mono_ok = (
                reverse_inclusion_leq(a, inner)
                and reverse_inclusion_leq(translate(k, a), translate(k, inner))
                and reverse_inclusion_leq(scale_interval(k, a), scale_interval(k, inner))
            )
            monotone_ops.record(mono_ok, 0.0, trial_seed)

            chain = [CompactInterval(-1.0 / n, 1.0 / n) for n in range(1, 40)]
            limit = directed_intersection(chain, tol=1e-9)
            contained = all(c.lo - 1e-9 <= limit.lo and limit.hi <= c.hi + 1e-9 for c in chain)
            intersect.record(contained and limit.width <= 0.1, limit.width, trial_seed)

            r = sampling.random_observable(dim, rng)
            m, big_m = spectrum_bounds(r)
            amax = max(abs(m), abs(big_m))
            pvm_ok = (
                pvm_map(r, lambda x: False).rank == 0
                and pvm_map(r, lambda x: -amax <= x <= amax).rank == dim
                and are_orth_disjoint(r, rng)
            )
            pvm.record(pvm_ok, 0.0, trial_seed)

            f, g = sampling.loewner_pair(dim, rng)
            expect_monotone.record(
                reverse_inclusion_leq(expected_interval(r, f), expected_interval(r, g)),
                0.0,
                trial_seed,
            )

            chain, _ = _geometric_supremum(f, cfg)
            sup = chain[-1]
            chain_intervals = [expected_interval(r, fn) for fn in chain]
            limit_interval = directed_intersection(chain_intervals, tol=1e-12)
            target = expected_interval(r, f)
            e_dev = max(abs(limit_interval.lo - target.lo), abs(limit_interval.hi - target.hi))
            # the net of e0 values converges to e0 at the supremum; it is
            # monotone (so its sup equals its limit) once the spectrum is
            # nonnegative
            e0_dev = abs(e0(r, sup) - e0(r, f))
            shift = -min(0.0, spectrum_bounds(r)[0])
            r_pos = BoundedObservable(r.operator + shift * np.eye(dim))
            sup_e0 = max(e0(r_pos, fn) for fn in chain)
            e0_dev = max(e0_dev, abs(sup_e0 - e0(r_pos, f)))
            scott_e.record(e_dev <= 1e-6 and e0_dev <= 1e-8, max(e_dev, e0_dev), trial_seed)

            completion = sampling.total_completion(f, rng)
            value = float(np.trace(r.operator @ completion.matrix).real)
            box = expected_interval(r, f)
            c_dev = max(box.lo - value, value - box.hi)
            containment.record(c_dev <= 1e-9, max(0.0, c_dev), trial_seed)

            lin_dev = linearity_deviation(dim, rng)
            linearity.record(lin_dev <= 1e-9, lin_dev, trial_seed)

            h = sampling.random_hermitian(dim, rng)
            fq = sampling.random_pdo(dim, rng)
            left = observable_square_interval(h, fq)
            right = expected_interval_op(h @ h, fq)
            sq_dev = max(abs(left.lo - right.lo), abs(left.hi - right.hi))
            square.record(sq_dev <= 1e-9, sq_dev, trial_seed)
    return SuiteReport(
        "interval",
        seed,
        list(dims),
        trials,
        [arithmetic, monotone_ops, intersect, pvm, expect_monotone, scott_e, containment, linearity, square],
    )


def are_orth_disjoint(r: BoundedObservable, rng: np.random.Generator) -> bool:
    """Disjoint Borel sets map to orthogonal events and unions to joins."""
    eigs = r.eigenvalues
    cut = float(rng.uniform(eigs[0], eigs[-1])) if len(eigs) > 1 else eigs[0]
    k_low, k_high = pvm_map(r, lambda x: x <= cut), pvm_map(r, lambda x: x > cut)
    if linalg.max_norm(k_low.projection @ k_high.projection) > linalg.PROJ_TOL:
        return False
    union = pvm_map(r, lambda x: x <= cut or x > cut)
    return linalg.max_norm(union.projection - join(k_low, k_high).projection) <= linalg.PROJ_TOL


def linearity_deviation(dim: int, rng: np.random.Generator) -> float:
    """Endpoint deviation of interval linearity on a product-spectrum pair."""
    n1 = int(rng.integers(2, max(3, dim // 2 + 1)))
    n2 = max(2, dim // n1)
    a, b = sampling.commuting_pair_product_spectrum((n1, n2), rng)
    f = sampling.random_pdo(n1 * n2, rng)
    k = float(rng.uniform(-3, 3))
    ell = float(rng.uniform(-3, 3))
    left = expected_interval_op(k * a + ell * b, f)
    right = add_intervals(
        scale_interval(k, expected_interval_op(a, f)),
        scale_interval(ell, expected_interval_op(b, f)),
    )
    return max(abs(left.lo - right.lo), abs(left.hi - right.hi))


# ------------------------------------------------------------------ qlang

FAIR_COIN = "qubit q; h q; while q in |1> { h q; }"
DIVERGING = "qubit q; while q in |0> { skip; }"


def qlang_suite(dims, trials: int, seed: int) -> SuiteReport:
    """Program-level checks; ``dims`` is accepted for interface uniformity
    but program dimension is fixed by the programs themselves."""
    fair = CheckResult("fair_coin_residuals")
    diverge = CheckResult("diverging_loop")
    trace_mono = CheckResult("trace_nonincreasing")
    linear = CheckResult("denotation_linear")
    increasing = CheckResult("approximant_chain_increasing")

    ground = PartialDensityOperator.ground_state(2)
    coin = denote(parse(FAIR_COIN))
    worst = 0.0
    for n in range(1, 31):
        report = coin.apply(ground, FixpointConfig(max_iterations=n))
        worst = max(worst, abs(report.residual - 2.0**-n))
    full = coin.apply(ground)
    fair.record(
        worst <= 1e-9 and full.converged and full.output.trace >= 1.0 - FixpointConfig().trace_tol,
        worst,
        (seed, 2, 0),
    )

    div_report = denote(parse(DIVERGING)).apply(ground)
    diverge.record(
        div_report.residual == 1.0 and div_report.converged, abs(div_report.residual - 1.0), (seed, 2, 0)
    )

    for t in range(trials):
        trial_seed = (seed, 0, t)
        rng = np.random.default_rng(list(trial_seed))
        qubits = int(rng.integers(1, 3))
        program = denote(random_program(qubits, rng))
        rho = sampling.random_pdo(program.dim, rng)
        cfg = FixpointConfig(max_iterations=60)
        try:
            report = program.apply(rho, cfg)
        except ChainMonotonicityError:
            increasing.record(False, 1.0, trial_seed)
            continue
        increasing.record(True, 0.0, trial_seed)
        gap = report.output.trace - rho.trace
        trace_mono.record(gap <= 1e-9, max(0.0, gap), trial_seed)

        rho2 = sampling.random_pdo(program.dim, rng)
        alpha = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0 - alpha))
        mix = PartialDensityOperator(alpha * rho.matrix + beta * rho2.matrix)
        lin_cfg = FixpointConfig(max_iterations=25, trace_tol=1e-300, monotonicity_check=False)
        combined = program.apply(mix, lin_cfg).output.matrix
        parts = (
            alpha * program.apply(rho, lin_cfg).output.matrix
            + beta * program.apply(rho2, lin_cfg).output.matrix
        )
        lin_dev = linalg.max_norm(combined - parts)
        linear.record(lin_dev <= 1e-8, lin_dev, trial_seed)
    return SuiteReport(
        "qlang", seed, list(dims), trials, [fair, diverge, trace_mono, linear, increasing]
    )


def random_program(qubits: int, rng: np.random.Generator) -> Program:
    """A random program on ``qubits`` qubits whose blocks nest at most three deep."""
    names = [f"q{i}" for i in range(qubits)]
    body = _random_block(qubits, rng, 3)
    return Program(declarations=tuple((n, 1) for n in names), body=body)


def _random_block(qubits: int, rng: np.random.Generator, depth: int):
    return to_body([_random_statement(qubits, rng, depth) for _ in range(int(rng.integers(1, 4)))])


def _random_statement(qubits: int, rng: np.random.Generator, depth: int):
    choices = ["gate", "gate", "skip"]
    if depth > 1:
        choices += ["if", "while"]
    kind = choices[int(rng.integers(0, len(choices)))]
    if kind == "skip":
        return Skip()
    if kind == "gate":
        single = [g for g in GATES if gate_arity(g) == 1]
        if qubits >= 2 and rng.uniform() < 0.3:
            targets = tuple(int(i) for i in rng.permutation(qubits)[:2])
            return ApplyUnitary("CNOT", targets)
        gate = single[int(rng.integers(0, len(single)))]
        return ApplyUnitary(gate, (int(rng.integers(0, qubits)),))
    guard = ClosedSubspace(
        ket_guard_projection(
            ["0", "1", "+", "-"][int(rng.integers(0, 4))], int(rng.integers(0, qubits)), qubits
        )
    )
    if kind == "if":
        return Branch(
            guard, _random_block(qubits, rng, depth - 1), _random_block(qubits, rng, depth - 1)
        )
    return While(guard, _random_block(qubits, rng, depth - 1))
