import dataclasses
import json
from itertools import islice

import numpy as np
import pytest

from qpartial import linalg, logic, sampling, verify
from qpartial.cli import main
from qpartial.density import FixpointConfig, PartialDensityOperator, chain_supremum
from qpartial.errors import CrossCheckError, NonUnitaryError
from qpartial.logic import _measure_value
from qpartial.qlang import gates, interpreter
from qpartial.qlang.ast import ApplyUnitary, Branch
from qpartial.verify import (
    CheckResult,
    SuiteReport,
    _geometric_supremum,
    geometric_chain,
    linearity_deviation,
    measure_violation,
    order_isomorphism_checks,
    random_program,
    run_suite,
    subspace_pool,
)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", [2], 1, 0)
    with pytest.raises(ValueError, match="dims"):
        run_suite("gleason", [1], 1, 0)
    with pytest.raises(ValueError, match="trials"):
        run_suite("gleason", [2], 0, 0)


def test_check_result_records_failures():
    check = CheckResult("demo")
    check.record(True, 0.5, (1, 2, 3))
    check.record(False, 2.0, (1, 2, 4))
    assert check.passes == 1 and check.failures == 1
    assert check.worst_deviation == 2.0
    assert check.failure_seeds == [[1, 2, 4]]
    assert not check.passed
    report = SuiteReport("demo", 1, [2], 2, [check])
    assert not report.all_passed
    assert report.to_json()["checks"][0]["failures"] == 1


def test_run_trials_charges_a_fault_to_the_next_check():
    draws = {}

    def trial(dim, t, rng):
        draws[dim, t] = rng.integers(1 << 30)
        if t == 3:
            raise ValueError("fault before the first check")
        yield True, 0.25
        if t == 1:
            raise CrossCheckError("fault in the second check")
        if t == 2:
            return
        yield False, 0.5
        yield True, 0.0

    a, b, c = verify._run_trials([2, 3], 4, 7, ("a", "b", "c"), trial)
    # every trial ran on its own stream, default_rng([seed, dim, t])
    assert draws == {(d, t): np.random.default_rng([7, d, t]).integers(1 << 30) for d in (2, 3) for t in range(4)}
    # the fault before any yield is charged to the first check
    assert (a.passes, a.failures, a.worst_deviation) == (6, 2, 1.0)
    assert a.failure_seeds == [[7, 2, 3], [7, 3, 3]]
    # the fault after the first yield is charged to the second, with
    # deviation 1.0; t = 0 fails it on its own verdict
    assert (b.passes, b.failures, b.worst_deviation) == (0, 4, 1.0)
    assert sorted(b.failure_seeds) == [[7, d, t] for d in (2, 3) for t in (0, 1)]
    # the checks after a fault, and after an early return, go unrecorded
    assert (c.passes, c.failures) == (2, 0)


def test_run_trials_lets_other_errors_escape():
    def trial(dim, t, rng):
        yield True, 0.0
        raise KeyError("not a fault of the check")

    with pytest.raises(KeyError):
        verify._run_trials([2], 1, 0, ("a", "b"), trial)


def test_all_suites_pass_small():
    for suite in ("gleason", "dcpo", "interval"):
        assert run_suite(suite, [2, 3], 6, 123).all_passed, suite
    assert run_suite("qlang", [2], 4, 123).all_passed


def test_measure_violation_detects_order_failure():
    rng = np.random.default_rng(5)
    f = PartialDensityOperator(np.diag([0.5, 0.0]).astype(complex))
    g = PartialDensityOperator(np.diag([0.0, 0.5]).astype(complex))
    pool = np.stack([k.projection for k in subspace_pool(2, 16, rng)])
    lines = np.stack([sampling.random_unit_vector(2, rng) for _ in range(16)])
    assert measure_violation(f, g, pool, lines) > 1e-3
    assert measure_violation(f, f, pool, lines) <= 1e-12


def test_order_isomorphism_checks_pass():
    agree, witness = order_isomorphism_checks([2, 3], trials=30, seed=99)
    assert agree.passed and witness.passed
    assert witness.passes > 0  # incomparable pairs did occur


def test_linearity_deviation_small_on_product_pairs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        assert linearity_deviation(4, rng) <= 1e-9


def test_random_program_reproducible():
    p1 = random_program(2, np.random.default_rng(3))
    p2 = random_program(2, np.random.default_rng(3))
    assert p1 == p2


def gate_count(stmt) -> int:
    """The gates a statement or a block is denoted with: a |+>/|-> guard
    is denoted under H on its qubit, with three H's around an `if` and
    four around a `while`."""
    if isinstance(stmt, ApplyUnitary):
        return 1
    if isinstance(stmt, tuple):
        return sum(gate_count(s) for s in stmt)
    rotated = stmt.guard.ket in ("+", "-")
    if isinstance(stmt, Branch):
        return gate_count(stmt.then_body) + gate_count(stmt.else_body) + 3 * rotated
    return gate_count(stmt.body) + 4 * rotated


def test_qlang_suite_denotes_each_program_once(count_calls):
    # the suite's random programs, drawn as it draws them
    programs = []
    for t in range(5):
        rng = np.random.default_rng([42, 0, t])
        programs.append(random_program(int(rng.integers(1, 3)), rng))
    with count_calls(gates, "_gate_block") as blocks:
        run_suite("qlang", [2], 5, 42)
    # each random program's gates once, and the fair coin's two
    assert len(blocks) == sum(gate_count(p.body) for p in programs) + 2


def drop_c_conjugate(monkeypatch, only_linearity_runs: bool = False) -> None:
    """Make a block loop form its exit block ``a_0 + C S C^T`` in place of
    ``a_0 + C S C+``: not Hermitian where C is complex, so its run raises
    ``NotHermitianError`` when the output is certified. With
    ``only_linearity_runs`` the fault acts only on runs at
    ``max_iterations == 25``, the linearity runs of ``qlang_suite``."""
    original = interpreter._Loop.__call__

    def faulty_call(loop, rho, cfg, loops):
        if loop.m is not None and not (only_linearity_runs and cfg.max_iterations != 25):
            loop = dataclasses.replace(loop, c_adj=loop.c.T)
        return original(loop, rho, cfg, loops)

    monkeypatch.setattr(interpreter._Loop, "__call__", faulty_call)


@pytest.mark.parametrize(
    "only_linearity_runs, failing",
    [(False, "approximant_chain_increasing"), (True, "denotation_linear")],
)
def test_a_fault_inside_a_qlang_trial_is_recorded_with_its_seed(monkeypatch, only_linearity_runs, failing):
    drop_c_conjugate(monkeypatch, only_linearity_runs)
    report = run_suite("qlang", [2], 30, 42)
    checks = {c.name: c for c in report.checks}
    assert not report.all_passed
    seeds = checks[failing].failure_seeds
    assert seeds and all(seed[0] == 42 and seed[1] == 0 for seed in seeds)
    assert checks[failing].passes + checks[failing].failures <= 30
    # every trial was attempted: the fault ended its own trial only
    assert checks["approximant_chain_increasing"].passes + checks["approximant_chain_increasing"].failures == 30


def test_a_fault_inside_a_qlang_trial_exits_2(monkeypatch, capsys):
    drop_c_conjugate(monkeypatch)
    assert main(["verify", "qlang", "--trials", "30"]) == 2
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["approximant_chain_increasing"]["failure_seeds"]


def nan_exit_increment(monkeypatch) -> None:
    """Make every loop's exit NaN, a body step's increment and a block loop's
    ``C S C+`` through a NaN ``C+``: the run's output then fails
    ``linalg.as_matrix`` with a plain ``ValueError``."""
    original_step, original_call = interpreter._Loop.step, interpreter._Loop.__call__

    def faulty_step(loop, s, cfg, loops):
        s_next, increment = original_step(loop, s, cfg, loops)
        return s_next, np.full_like(increment, np.nan)

    def faulty_call(loop, rho, cfg, loops):
        if loop.m is not None:
            loop = dataclasses.replace(loop, c_adj=np.full_like(loop.c_adj, np.nan))
        return original_call(loop, rho, cfg, loops)

    monkeypatch.setattr(interpreter._Loop, "step", faulty_step)
    monkeypatch.setattr(interpreter._Loop, "__call__", faulty_call)


def test_a_value_error_inside_any_qlang_run_is_recorded_with_its_seed(monkeypatch):
    nan_exit_increment(monkeypatch)
    checks = {c.name: c for c in run_suite("qlang", [2], 5, 42).checks}
    # the fixed programs are each one trial, recorded apart
    assert checks["fair_coin_residuals"].failure_seeds == [[42, 2, 0]]
    assert checks["diverging_loop"].failure_seeds == [[42, 2, 0]]
    increasing = checks["approximant_chain_increasing"]
    assert increasing.failures > 0 and increasing.worst_deviation == 1.0
    assert all(seed[:2] == [42, 0] for seed in increasing.failure_seeds)
    assert increasing.passes + increasing.failures == 5


def test_a_value_error_inside_any_qlang_run_exits_2(monkeypatch, capsys):
    nan_exit_increment(monkeypatch)
    assert main(["verify", "qlang", "--trials", "5"]) == 2
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["fair_coin_residuals"]["failure_seeds"] == [[42, 2, 0]]
    assert checks["approximant_chain_increasing"]["failure_seeds"]


def test_a_fault_inside_denote_is_recorded_with_its_seed(monkeypatch):
    def non_unitary(gate):
        raise NonUnitaryError(f"{gate} is not unitary")

    monkeypatch.setattr(gates, "_gate_block", non_unitary)
    checks = {c.name: c for c in run_suite("qlang", [2], 5, 42).checks}
    # the fair coin holds gates; the diverging loop, only skip, still runs
    assert checks["fair_coin_residuals"].failure_seeds == [[42, 2, 0]]
    assert checks["diverging_loop"].passed and checks["diverging_loop"].passes == 1
    increasing = checks["approximant_chain_increasing"]
    assert increasing.failures > 0 and increasing.worst_deviation == 1.0
    assert all(seed[:2] == [42, 0] for seed in increasing.failure_seeds)
    # a trial that fails in denote records nothing more
    recorded = checks["trace_nonincreasing"].passes + checks["trace_nonincreasing"].failures
    assert recorded == increasing.passes == 5 - increasing.failures


def test_a_fault_inside_an_interval_trial_is_recorded_with_its_seed(monkeypatch):
    # a missing-mass interval that ignores hi: its chain intervals are
    # points that are not nested, and directed_intersection raises
    original = verify.missing_mass_interval
    monkeypatch.setattr(verify, "missing_mass_interval", lambda center, f, lo, hi: original(center, f, lo, lo))
    report = run_suite("interval", [2, 3], 10, 42)
    checks = {c.name: c for c in report.checks}
    failing = checks["expected_interval_scott_continuity"]
    assert not report.all_passed and [c.name for c in report.checks if not c.passed] == [failing.name]
    assert failing.failures > 0 and failing.worst_deviation == 1.0
    assert all(seed[0] == 42 and seed[1] in (2, 3) and 0 <= seed[2] < 10 for seed in failing.failure_seeds)
    # every trial was attempted: the fault ended its own trial only
    assert checks["interval_arithmetic"].passes == 20


def test_a_fault_inside_an_interval_trial_exits_2(monkeypatch, capsys):
    original = verify.missing_mass_interval
    monkeypatch.setattr(verify, "missing_mass_interval", lambda center, f, lo, hi: original(center, f, lo, lo))
    assert main(["verify", "interval", "--trials", "5"]) == 2
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["expected_interval_scott_continuity"]["failure_seeds"]


def raise_on_every_measure(monkeypatch):
    def corrupted(trace):
        raise CrossCheckError("measure has imaginary part 1.000e-06")

    monkeypatch.setattr(logic, "_measure_value", corrupted)


@pytest.mark.parametrize(
    "suite, failing", [("gleason", "orthogonal_additivity"), ("dcpo", "gleason_scott_continuity")]
)
def test_a_fault_inside_a_gleason_or_dcpo_trial_is_recorded_with_its_seed(monkeypatch, suite, failing):
    raise_on_every_measure(monkeypatch)
    report = run_suite(suite, [2, 3], 5, 42)
    checks = {c.name: c for c in report.checks}
    # the first check of each trial to read a measure fails, in every trial
    assert checks[failing].failures == 10 and checks[failing].worst_deviation == 1.0
    assert sorted(checks[failing].failure_seeds) == [[42, d, t] for d in (2, 3) for t in range(5)]
    assert not report.all_passed
    for check in report.checks:
        assert all(seed[0] == 42 and seed[1] in (2, 3) and 0 <= seed[2] < 5 for seed in check.failure_seeds)


@pytest.mark.parametrize("suite", ["gleason", "dcpo"])
def test_a_fault_inside_a_gleason_or_dcpo_trial_exits_2(monkeypatch, capsys, suite):
    raise_on_every_measure(monkeypatch)
    assert main(["verify", suite, "--trials", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert any(c["failure_seeds"] for c in report["checks"]) and not report["all_passed"]


TRACES = [
    0.5,
    -2e-9,
    -0.5e-9,
    0.0,
    1.0 + 0.5e-9,
    1.0 + 2e-9,
    0.3 + 0.5e-9j,
    0.2 - 0.9e-9j,
]


@pytest.mark.parametrize("seed", range(20))
def test_largest_measure_is_the_largest_value_rule_output(seed):
    rng = np.random.default_rng(seed)
    traces = np.array(rng.choice(TRACES, size=int(rng.integers(1, 6))), dtype=complex)
    assert verify._largest_measure(traces) == max(map(_measure_value, traces.tolist()))


@pytest.mark.parametrize("bad", [2e-9j, -2e-9j])
def test_largest_measure_raises_when_any_value_would(bad):
    traces = np.array([0.9, 0.1 + bad, 0.5], dtype=complex)
    with pytest.raises(CrossCheckError, match="imaginary part"):
        verify._largest_measure(traces)


CHAIN_CONFIGS = [
    FixpointConfig(),
    FixpointConfig(max_iterations=1),
    FixpointConfig(max_iterations=5),
    FixpointConfig(max_iterations=60),
    FixpointConfig(trace_tol=1e-300),
    FixpointConfig(trace_tol=0.5),
]


@pytest.mark.parametrize("cfg", CHAIN_CONFIGS, ids=repr)
@pytest.mark.parametrize("trace", [0.0, 1.0])
def test_stacked_geometric_chain_equals_the_lazy_one(cfg, trace):
    f = sampling.random_pdo(3, np.random.default_rng(8), trace=trace)
    chain, sup, converged, traces = _geometric_supremum(f, cfg)
    lazy = list(islice(geometric_chain(f), 64))
    iterations, lazy_converged, lazy_traces = chain_supremum((fn.trace for fn in lazy), cfg)
    lazy_sup = lazy[iterations].matrix
    assert len(chain) == iterations + 1
    assert converged == lazy_converged
    # the traces chain_supremum read, bit for bit those of the stack's elements
    assert traces == lazy_traces == np.trace(chain, axis1=1, axis2=2).real.tolist()
    assert np.array_equal(sup.matrix, lazy_sup) and np.array_equal(sup.matrix, chain[-1])
    assert sup.trace == float(np.trace(lazy_sup).real)
    assert all(np.array_equal(fn_stacked, fn.matrix) for fn_stacked, fn in zip(chain, geometric_chain(f)))
    assert not chain.flags.writeable


def corrupt_chains(monkeypatch, change):
    """Make the suites' geometric chains carry ``change`` applied to their
    element 10, a middle element: the supremum and the last element stay
    intact."""
    original = verify._geometric_supremum

    def corrupted(f, cfg):
        chain, sup, converged, traces = original(f, cfg)
        if len(chain) > 11:
            chain = chain.copy()
            chain[10] = change(chain[10])
        return chain, sup, converged, traces

    monkeypatch.setattr(verify, "_geometric_supremum", corrupted)


@pytest.mark.parametrize("excess, passed", [(0.5, True), (1.5, False)])
def test_geometric_chain_supremum_is_read_at_one_psd_tol(monkeypatch, excess, passed):
    # a supremum above f by `excess` PSD_TOL along the first basis vector:
    # the Loewner order's floor is one PSD_TOL, so 1.5 fails; the order
    # rebuilt as f + PSD_TOL I - sup allowed two, and passed it
    original = verify._geometric_supremum

    def above_f(f, cfg):
        chain, _, converged, traces = original(f, cfg)
        bump = np.zeros((f.dim, f.dim))
        bump[0, 0] = excess * linalg.PSD_TOL
        return chain, PartialDensityOperator(f.matrix + bump), converged, traces

    monkeypatch.setattr(verify, "_geometric_supremum", above_f)
    report = run_suite("dcpo", [3], 4, 42)
    check = next(c for c in report.checks if c.name == "geometric_chain_supremum")
    assert check.failures == (0 if passed else 4)


def scott_check(report):
    return next(c for c in report.checks if c.name.endswith("scott_continuity"))


def test_gleason_scott_continuity_reads_every_element(monkeypatch):
    assert scott_check(run_suite("dcpo", [3], 4, 42)).passed
    corrupt_chains(monkeypatch, lambda m: (1 + 1e-3) * m)
    assert scott_check(run_suite("dcpo", [3], 4, 42)).failures > 0


def test_gleason_scott_continuity_checks_every_measure_value(monkeypatch):
    traces = np.full(12, 0.5, dtype=complex)
    traces[10] += 1e-6j
    with pytest.raises(CrossCheckError, match="imaginary part"):
        verify._largest_measure(traces)
    # inside the suite the value rule's error on the corrupted middle
    # element is recorded against the check, with deviation 1.0, in every
    # trial
    corrupt_chains(monkeypatch, lambda m: m + 1e-6j * np.eye(len(m)))
    check = scott_check(run_suite("dcpo", [3], 4, 42))
    assert check.failures == 4 and check.worst_deviation == 1.0


def test_expected_interval_scott_continuity_cross_checks_every_element(monkeypatch):
    # the trace form of one middle chain element read 1e-6 too high; a
    # single state's trace form (a stack of one) is left alone
    einsum = np.einsum

    def corrupted(subscripts, *operands, **kwargs):
        out = einsum(subscripts, *operands, **kwargs)
        if subscripts == "ij,nji->n" and len(out) > 11:
            out = out.copy()
            out[10] += 1e-6
        return out

    assert scott_check(run_suite("interval", [3], 4, 42)).passed
    monkeypatch.setattr(np, "einsum", corrupted)
    with pytest.raises(CrossCheckError, match="trace form"):
        verify._expectations(sampling.random_observable(3, np.random.default_rng(0)), np.zeros((12, 3, 3)))
    # inside the suite the cross-check's error is recorded against the
    # check, with deviation 1.0, in every trial
    check = scott_check(run_suite("interval", [3], 4, 42))
    assert check.failures == 4 and check.worst_deviation == 1.0
