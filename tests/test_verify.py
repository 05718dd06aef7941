import numpy as np
import pytest

from qpartial import sampling
from qpartial.density import PartialDensityOperator
from qpartial.qlang import interpreter
from qpartial.qlang.ast import ApplyUnitary, Branch, Seq, While
from qpartial.verify import (
    CheckResult,
    SuiteReport,
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
    if isinstance(stmt, ApplyUnitary):
        return 1
    if isinstance(stmt, Seq):
        return sum(gate_count(s) for s in stmt.statements)
    if isinstance(stmt, Branch):
        return gate_count(stmt.then_body) + gate_count(stmt.else_body)
    if isinstance(stmt, While):
        return gate_count(stmt.body)
    return 0


def test_qlang_suite_denotes_each_program_once(count_calls):
    # the suite's random programs, drawn as it draws them
    programs = []
    for t in range(5):
        rng = np.random.default_rng([42, 0, t])
        programs.append(random_program(int(rng.integers(1, 3)), rng))
    with count_calls(interpreter, "denote_unitary") as gates:
        run_suite("qlang", [2], 5, 42)
    # each random program's gates once, and the fair coin's two
    assert len(gates) == sum(gate_count(p.body) for p in programs) + 2
