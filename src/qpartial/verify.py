"""Randomized verification suites for the library's structural invariants.

Each suite runs named checks over seeded trials and aggregates per-check
pass/fail counts, the worst deviation observed, and the seeds of failing
trials (as ``[seed, dim, trial]`` triples that reproduce the failing rng
stream). Reports are plain data, serialized by the command line front
end.

Every suite runs its trials through one harness, ``_run_trials``: a trial
is a generator that yields ``(ok, deviation)`` for each of its checks, in
order. A ``ValueError`` or ``ArithmeticError`` raised inside a trial fails
the check being computed, the first one the trial has not yet yielded,
with deviation 1.0 and the trial's seed; the trial's later checks go
unrecorded, and the suite goes on to the next trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import linalg, sampling
from .density import (
    FixpointConfig,
    PartialDensityOperator,
    _certified,
    chain_supremum,
    dyadic_diagonal_state,
    loewner_leq,
    scale,
)
from .intervals import CompactInterval, add_intervals, directed_intersection, reverse_inclusion_leq, scale_interval, translate
from .logic import (
    ClosedSubspace,
    _measure_value,
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
    _expectations,
    e0,
    expected_interval,
    expected_interval_op,
    missing_mass_interval,
    observable_square_interval,
    pvm_map,
    spectrum_bounds,
)
from .qlang import denote, parse
from .qlang.ast import KETS, ApplyUnitary, Block, Branch, Guard, Program, While
from .qlang.gates import GATES, gate_arity

_MEASURE_LEQ_TOL = 1e-9
_WITNESS_SEPARATION = 1e-9
ADDITIVITY_TOL = 1e-8  # additivity of a measure over orthogonal families

# what a trial records as a failure of the check being computed
_TRIAL_FAULTS = (ValueError, ArithmeticError)


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


def _run_trials(dims, trials: int, seed: int, names, trial) -> list[CheckResult]:
    """One ``CheckResult`` per name, recorded over ``trials`` trials at each
    dim of ``dims``.

    ``trial(dim, t, rng)`` is a generator given ``default_rng([seed, dim,
    t])``; it yields ``(ok, deviation)`` for the checks of ``names`` in
    order, and may stop early, leaving the rest unrecorded. A
    ``_TRIAL_FAULTS`` error it raises fails the check being computed, the
    next one of ``names``, with deviation 1.0, and ends the trial.
    """
    checks = [CheckResult(name) for name in names]
    for dim in dims:
        for t in range(trials):
            trial_seed = (seed, dim, t)
            pending = iter(checks)
            try:
                for ok, deviation in trial(dim, t, np.random.default_rng(list(trial_seed))):
                    next(pending).record(ok, deviation, trial_seed)
            except _TRIAL_FAULTS:
                next(pending).record(False, 1.0, trial_seed)
    return checks


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
    pools = {
        dim: np.stack([k.projection for k in subspace_pool(dim, 100, np.random.default_rng([seed, dim]))])
        for dim in dims
    }

    def trial(dim, t, rng):
        if t % 3 == 0:
            f, g = sampling.loewner_pair(dim, rng)
        else:
            f, g = sampling.independent_pair(dim, rng)
        lines = rng.standard_normal((100, dim)) + 1j * rng.standard_normal((100, dim))
        lines /= np.linalg.norm(lines, axis=1, keepdims=True)
        ok, witness = state_leq(f, g)
        violation = measure_violation(f, g, pools[dim], lines)
        if ok:
            yield violation <= _MEASURE_LEQ_TOL, max(0.0, violation)
            return
        yield True, 0.0
        separation = gleason_measure(f, witness) - gleason_measure(g, witness)
        yield separation > _WITNESS_SEPARATION, 0.0

    names = ("loewner_implies_measure_leq", "loewner_failure_witness_separates")
    return _run_trials(dims, trials, seed, names, trial)


def gleason_suite(dims, trials: int, seed: int) -> SuiteReport:
    def trial(dim, t, rng):
        f = sampling.random_pdo(dim, rng)

        u = sampling.random_unitary(dim, rng)
        split = int(rng.integers(1, dim))
        k1 = subspace_from_vectors([u[:, i] for i in range(split)], dim=dim)
        k2 = subspace_from_vectors([u[:, i] for i in range(split, dim)], dim=dim)
        joined = gleason_measure(f, join(k1, k2))
        dev = abs(joined - gleason_measure(f, k1) - gleason_measure(f, k2))
        yield dev <= _MEASURE_LEQ_TOL, dev

        sub = subspace_from_vectors([u[:, i] for i in range(max(1, split // 2))], dim=dim)
        gap = gleason_measure(f, sub) - gleason_measure(f, k1)
        yield subspace_leq(sub, k1) and gap <= _MEASURE_LEQ_TOL, max(0.0, gap)

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
        yield lattice_dev <= linalg.PROJ_TOL, lattice_dev

        r = float(rng.uniform(0.0, 1.0))
        lin_dev = abs(gleason_measure(scale(f, r), ka) - r * gleason_measure(f, ka))
        yield lin_dev <= 1e-10, lin_dev

        yield subprobability_axioms(f, seed + t)

    names = (
        "orthogonal_additivity",
        "event_monotonicity",
        "lattice_laws",
        "measure_linearity",
        "subprobability_axioms",
    )
    checks = order_isomorphism_checks(dims, trials, seed) + _run_trials(dims, trials, seed, names, trial)
    return SuiteReport("gleason", seed, list(dims), trials, checks)


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


# 1 - 2^-n rounds to 1.0 from n = 54 on, where the trace gap is exactly 0,
# below every trace_tol: chain_supremum never reads past element 55
_CHAIN_BOUND = 64


def _geometric_supremum(f: PartialDensityOperator, cfg: FixpointConfig):
    """``chain_supremum`` of the increasing chain (1 - 2^-n) f, n = 1, 2,
    ..., built at once as one read-only n x d x d stack whose element n - 1
    is (1 - 2^-n) f, the same product ``scale`` forms, and read through the
    stack's traces. Returns the slice of the stack whose traces
    ``chain_supremum`` consumed, its last element as ``scale(f, 1 - 2^-N)``
    (the supremum, with the certificate ``scale`` gives it), whether the
    chain converged, and the traces consumed."""
    factors = 1.0 - 2.0 ** -np.arange(1, _CHAIN_BOUND + 1)
    stack = factors[:, None, None] * f.matrix
    stack.setflags(write=False)
    iterations, converged, traces = chain_supremum(np.trace(stack, axis1=1, axis2=2).real.tolist(), cfg)
    return stack[: iterations + 1], scale(f, float(factors[iterations])), converged, traces


def _largest_measure(traces: np.ndarray) -> float:
    """``max(map(logic._measure_value, traces))`` for a nonempty complex
    array, from two calls of the value rule: it raises on the trace of
    largest imaginary magnitude exactly when it raises on any, and it never
    decreases as the real part grows, so the largest value is that of the
    largest real part."""
    _measure_value(complex(traces[np.abs(traces.imag).argmax()]))
    return _measure_value(complex(traces[traces.real.argmax()]))


def dcpo_suite(dims, trials: int, seed: int) -> SuiteReport:
    cfg = FixpointConfig()

    def trial(dim, t, rng):
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
        yield refl and t1 and t2 and t3 and (not both or anti), 0.0

        eigs = np.linalg.eigvalsh(f.matrix)
        dev = max(float(eigs[-1]) - f.trace, f.trace - 1.0)
        yield dev <= linalg.PSD_TOL, max(0.0, dev)

        chain, sup, converged, _ = _geometric_supremum(f, cfg)
        err = linalg.max_norm(sup.matrix - f.matrix)
        below, _ = loewner_leq(sup, f)
        yield converged and err <= 1e-8 and below, err

        worst = 0.0
        for _ in range(10):
            k = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
            target = gleason_measure(f, k)
            at_sup = gleason_measure(sup, k)
            # every element's trace, from one product over the stack
            traces = np.einsum("ij,nji->n", k.projection, chain)
            sup_measure = _largest_measure(traces)
            worst = max(worst, abs(at_sup - sup_measure), abs(at_sup - target))
        yield worst <= 1e-6, worst

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
        yield ddev <= 1e-12, ddev

    names = (
        "order_laws",
        "norm_below_trace",
        "geometric_chain_supremum",
        "gleason_scott_continuity",
        "dyadic_diagonal_states",
    )
    return SuiteReport("dcpo", seed, list(dims), trials, _run_trials(dims, trials, seed, names, trial))


# ---------------------------------------------------------------- interval


def interval_suite(dims, trials: int, seed: int) -> SuiteReport:
    """Interval arithmetic, the projection-valued measure, and the laws of
    the interval expected value."""
    cfg = FixpointConfig()
    nested = [CompactInterval(-1.0 / n, 1.0 / n) for n in range(1, 40)]

    def trial(dim, t, rng):
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
        yield arith_dev == 0.0 and scaled.lo <= scaled.hi, arith_dev

        inner = CompactInterval(*sorted(rng.uniform(a.lo, a.hi, size=2))) if a.width > 0 else a
        mono_ok = (
            reverse_inclusion_leq(a, inner)
            and reverse_inclusion_leq(translate(k, a), translate(k, inner))
            and reverse_inclusion_leq(scale_interval(k, a), scale_interval(k, inner))
        )
        yield mono_ok, 0.0

        # max and min are exact: the nested chain's limit is its last element
        limit = directed_intersection(nested)
        yield limit == nested[-1], limit.width

        r = sampling.random_observable(dim, rng)
        m, big_m = spectrum_bounds(r)
        amax = max(abs(m), abs(big_m))
        pvm_ok = (
            pvm_map(r, lambda x: False).rank == 0
            and pvm_map(r, lambda x: -amax <= x <= amax).rank == dim
            and are_orth_disjoint(r, rng)
        )
        yield pvm_ok, 0.0

        f, g = sampling.loewner_pair(dim, rng)
        box = expected_interval(r, f)
        yield reverse_inclusion_leq(box, expected_interval(r, g)), 0.0

        chain, sup, _, traces = _geometric_supremum(f, cfg)
        centers = _expectations(r, chain)
        # each element (1 - 2^-n) f keeps f's certificate, as scale gives it
        chain_intervals = (
            missing_mass_interval(center, _certified(fn, trace), m, big_m)
            for center, fn, trace in zip(centers, chain, traces)
        )
        limit_interval = directed_intersection(chain_intervals)
        e_dev = max(abs(limit_interval.lo - box.lo), abs(limit_interval.hi - box.hi))
        # the net of e0 values converges to e0 at the supremum; it is
        # monotone (so its sup equals its limit) once the spectrum is
        # nonnegative, so it is read for A + s I, s = -min(0, m), by
        # linearity: tr((A + s I) h) = tr(A h) + s tr h
        e0_f = e0(r, f)
        s = -min(0.0, m)
        sup_e0 = max(c + s * trace for c, trace in zip(centers, traces))
        e0_dev = max(abs(e0(r, sup) - e0_f), abs(sup_e0 - (e0_f + s * f.trace)))
        yield e_dev <= 1e-6 and e0_dev <= 1e-8, max(e_dev, e0_dev)

        completion = sampling.total_completion(f, rng)
        value = float(np.trace(r.operator @ completion.matrix).real)
        c_dev = max(box.lo - value, value - box.hi)
        yield c_dev <= 1e-9, max(0.0, c_dev)

        lin_dev = linearity_deviation(dim, rng)
        yield lin_dev <= 1e-9, lin_dev

        h = sampling.random_hermitian(dim, rng)
        fq = sampling.random_pdo(dim, rng)
        left = observable_square_interval(h, fq)
        right = expected_interval_op(h @ h, fq)
        sq_dev = max(abs(left.lo - right.lo), abs(left.hi - right.hi))
        yield sq_dev <= 1e-9, sq_dev

    names = (
        "interval_arithmetic",
        "reverse_inclusion_monotone_ops",
        "directed_intersection_contained",
        "pvm_axioms",
        "expected_interval_monotone",
        "expected_interval_scott_continuity",
        "containment_of_total_completions",
        "linearity_commuting_product_spectrum",
        "square_law",
    )
    return SuiteReport("interval", seed, list(dims), trials, _run_trials(dims, trials, seed, names, trial))


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
    but program dimension is fixed by the programs themselves.

    The random trials run at seeds ``[seed, 0, t]``; the fair coin and the
    diverging loop are one trial each, at ``[seed, 2, 0]``, run apart so
    that a fault in one cannot hide the other. A random trial's first run
    is its ``approximant_chain_increasing`` check: a fault in denoting or
    sampling the program, or in the run itself, fails that check. A loop
    chain that decreases fails it through the output certificate of
    ``apply``, whenever it leaves the output not positive. A fault in its
    linearity runs fails ``denotation_linear``.
    """
    ground = PartialDensityOperator.ground_state(2)

    def fair_coin(dim, t, rng):
        coin = denote(parse(FAIR_COIN))
        worst = 0.0
        for n in range(1, 31):
            report = coin.apply(ground, FixpointConfig(max_iterations=n))
            worst = max(worst, abs(report.residual - 2.0**-n))
        full = coin.apply(ground)
        yield worst <= 1e-9 and full.converged and full.output.trace >= 1.0 - FixpointConfig().trace_tol, worst

    def diverging(dim, t, rng):
        report = denote(parse(DIVERGING)).apply(ground)
        yield report.residual == 1.0 and report.converged, abs(report.residual - 1.0)

    def random_trial(dim, t, rng):
        qubits = int(rng.integers(1, 3))
        program = denote(random_program(qubits, rng))
        rho = sampling.random_pdo(program.dim, rng)
        report = program.apply(rho, FixpointConfig(max_iterations=60))
        yield True, 0.0

        gap = report.output.trace - rho.trace
        yield gap <= 1e-9, max(0.0, gap)

        rho2 = sampling.random_pdo(program.dim, rng)
        alpha = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 1.0 - alpha))
        mix = PartialDensityOperator(alpha * rho.matrix + beta * rho2.matrix)
        lin_cfg = FixpointConfig(max_iterations=25, trace_tol=1e-300)
        combined = program.apply(mix, lin_cfg).output.matrix
        parts = (
            alpha * program.apply(rho, lin_cfg).output.matrix
            + beta * program.apply(rho2, lin_cfg).output.matrix
        )
        lin_dev = linalg.max_norm(combined - parts)
        yield lin_dev <= 1e-8, lin_dev

    [fair] = _run_trials([2], 1, seed, ["fair_coin_residuals"], fair_coin)
    [diverge] = _run_trials([2], 1, seed, ["diverging_loop"], diverging)
    names = ("approximant_chain_increasing", "trace_nonincreasing", "denotation_linear")
    increasing, trace_mono, linear = _run_trials([0], trials, seed, names, random_trial)
    return SuiteReport("qlang", seed, list(dims), trials, [fair, diverge, trace_mono, linear, increasing])


def random_program(qubits: int, rng: np.random.Generator) -> Program:
    """A random program on ``qubits`` qubits whose blocks nest at most three deep."""
    return Program(declarations=tuple(f"q{i}" for i in range(qubits)), body=_random_block(qubits, rng, 3))


def _random_block(qubits: int, rng: np.random.Generator, depth: int) -> Block:
    statements = [_random_statement(qubits, rng, depth) for _ in range(int(rng.integers(1, 4)))]
    return tuple(s for s in statements if s is not None)


def _random_statement(qubits: int, rng: np.random.Generator, depth: int):
    """A random statement, or None for ``skip``, which a block drops."""
    choices = ["gate", "gate", "skip"]
    if depth > 1:
        choices += ["if", "while"]
    kind = choices[int(rng.integers(0, len(choices)))]
    if kind == "skip":
        return None
    if kind == "gate":
        single = [g for g in GATES if gate_arity(g) == 1]
        if qubits >= 2 and rng.uniform() < 0.3:
            targets = tuple(int(i) for i in rng.permutation(qubits)[:2])
            return ApplyUnitary("CNOT", targets)
        gate = single[int(rng.integers(0, len(single)))]
        return ApplyUnitary(gate, (int(rng.integers(0, qubits)),))
    ket = KETS[int(rng.integers(0, len(KETS)))]
    guard = Guard(int(rng.integers(0, qubits)), ket)
    if kind == "if":
        return Branch(
            guard, _random_block(qubits, rng, depth - 1), _random_block(qubits, rng, depth - 1)
        )
    return While(guard, _random_block(qubits, rng, depth - 1))


# ------------------------------------------------------------------ suites

_RUNNERS = {
    "gleason": gleason_suite,
    "dcpo": dcpo_suite,
    "interval": interval_suite,
    "qlang": qlang_suite,
}
SUITES = tuple(_RUNNERS)


def run_suite(suite: str, dims, trials: int, seed: int) -> SuiteReport:
    if suite not in _RUNNERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    dims = list(dims)
    if not dims:
        raise ValueError("dims must list at least one dimension")
    if any(d < 2 or d > 16 for d in dims):
        raise ValueError("dims must lie in [2, 16]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return _RUNNERS[suite](dims, trials, seed)
