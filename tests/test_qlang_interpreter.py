import json
from functools import reduce
from itertools import permutations

import numpy as np
import pytest

from qpartial import linalg, sampling
from qpartial.density import FixpointConfig, PartialDensityOperator, chain_supremum
from qpartial.errors import (
    ChainMonotonicityError,
    DimensionMismatchError,
    NonUnitaryError,
    NotPositiveError,
)
from qpartial.logic import ClosedSubspace
from qpartial.qlang import denote, denote_unitary, interpret, interpreter, parse
from qpartial.qlang.ast import ApplyUnitary, Branch, Program, Seq, Skip, While
from qpartial.qlang.gates import GATES, KET_VECTORS, embed_operator, ket_guard_projection

GROUND = PartialDensityOperator.ground_state(2)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([17, test_id])


class TestDenoteUnitary:
    def test_hadamard_single_qubit(self):
        u = denote_unitary("H", (0,), 1)
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_gate_names_case_insensitive(self):
        assert np.allclose(denote_unitary("x", (0,), 1), GATES["X"])

    def test_tensor_embedding_matches_kron(self):
        x = GATES["X"]
        assert np.allclose(denote_unitary("X", (1,), 2), np.kron(np.eye(2), x))
        assert np.allclose(denote_unitary("X", (0,), 2), np.kron(x, np.eye(2)))
        rng = rng_for(1)
        u = sampling.random_unitary(2, rng)
        assert np.allclose(
            denote_unitary(u, (1,), 3), np.kron(np.eye(2), np.kron(u, np.eye(2)))
        )

    def test_cnot_textbook(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(denote_unitary("CNOT", (0, 1), 2), expected)

    def test_cnot_reversed_targets(self):
        # control on qubit 1 (least significant bit) swaps |01> and |11>
        u = denote_unitary("CNOT", (1, 0), 2)
        perm = np.eye(4)[:, [0, 3, 2, 1]]
        assert np.allclose(u, perm)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            denote_unitary(np.array([[1.0, 0.0], [0.0, 0.5]]), (0,), 1)

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            denote_unitary("CNOT", (0, 0), 2)
        with pytest.raises(ValueError):
            denote_unitary("X", (3,), 2)
        with pytest.raises(DimensionMismatchError):
            embed_operator(np.eye(4), (0,), 2)


def kron_permuted(block: np.ndarray, targets, n: int) -> np.ndarray:
    """block (x) I on the qubit order (targets, rest), axes permuted back."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    m = np.kron(block, np.eye(2 ** (n - len(targets)))).reshape((2,) * (2 * n))
    axes = list(np.argsort(order))
    return m.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


class TestEmbedOperator:
    def test_every_ordered_target_tuple_matches_kron(self):
        rng = rng_for(20)
        for n in range(1, 5):
            for k in range(1, n + 1):
                for targets in permutations(range(n), k):
                    block = rng.standard_normal((2**k, 2**k)) + 1j * rng.standard_normal((2**k, 2**k))
                    assert np.array_equal(
                        embed_operator(block, targets, n), kron_permuted(block, targets, n)
                    ), targets


class TestBasicStatements:
    def test_skip_returns_input(self):
        f = sampling.random_pdo(2, rng_for(2), trace=0.7)
        report = interpret(parse("qubit q; skip;"), f)
        assert np.allclose(report.output.matrix, f.matrix)
        assert report.residual == pytest.approx(0.3, abs=1e-12)
        assert report.converged
        assert report.iterations_per_loop == []
        assert report.chain_trace_log == [report.output.trace]

    def test_basis_flip(self):
        report = interpret(parse("qubit q; x q;"), GROUND)
        assert np.allclose(report.output.matrix, np.outer(KET1, KET1))

    def test_inline_matrix_equals_named_gate(self):
        by_name = interpret(parse("qubit q; x q;"), GROUND).output.matrix
        by_matrix = interpret(parse("qubit q; [[0, 1], [1, 0]] q;"), GROUND).output.matrix
        assert np.allclose(by_name, by_matrix)

    def test_unitary_only_program_preserves_trace(self):
        rng = rng_for(3)
        f = sampling.random_pdo(4, rng, trace=0.8)
        prog = parse("qubit a; qubit b; h a; cnot a b; t b; s a;")
        report = interpret(prog, f)
        assert report.output.trace == pytest.approx(0.8, abs=1e-9)

    def test_branch_hand_computation(self):
        f = PartialDensityOperator(np.diag([0.3, 0.6]))
        prog = parse("qubit q; if q in |0> { x q; } else { skip; }")
        report = interpret(prog, f)
        # X(P0 f P0)X + P1 f P1 = diag(0, 0.3) + diag(0, 0.6)
        assert np.allclose(report.output.matrix, np.diag([0.0, 0.9]), atol=1e-12)

    def test_branch_with_unitary_arms_preserves_trace(self):
        rng = rng_for(4)
        f = sampling.random_pdo(2, rng, trace=0.9)
        prog = parse("qubit q; if q in |+> { z q; } else { x q; }")
        report = interpret(prog, f)
        assert report.output.trace == pytest.approx(0.9, abs=1e-9)

    def test_input_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            interpret(parse("qubit a; qubit b; skip;"), GROUND)


def fair_coin_expected(n: int) -> np.ndarray:
    """Closed form for the fair-coin loop: exiting at round k deposits
    2^-k of mass on |0><0|, a geometric series summing to 1 - 2^-n."""
    return (1.0 - 2.0**-n) * np.outer(KET0, KET0)


class TestFairCoinLoop:
    PROGRAM = "qubit q; h q; while q in |1> { h q; }"

    def test_truncated_runs_match_path_sum_oracle(self):
        prog = parse(self.PROGRAM)
        for n in range(1, 21):
            report = interpret(prog, GROUND, FixpointConfig(max_iterations=n))
            assert report.residual == pytest.approx(2.0**-n, abs=1e-9)
            assert np.allclose(report.output.matrix, fair_coin_expected(n), atol=1e-9)

    def test_converged_run(self):
        report = interpret(parse(self.PROGRAM), GROUND)
        assert report.converged
        assert report.output.trace >= 1.0 - FixpointConfig().trace_tol
        assert np.allclose(report.output.matrix, np.outer(KET0, KET0), atol=1e-8)
        assert report.iterations_per_loop and report.iterations_per_loop[0] >= 28

    def test_iterations_count_the_elements_after_the_first(self):
        # truncated (n <= 29) and converged runs count loop steps alike
        prog = parse(self.PROGRAM)
        for n in range(1, 32):
            report = interpret(prog, GROUND, FixpointConfig(max_iterations=n))
            assert len(report.chain_trace_log) == report.iterations_per_loop[0] + 1, n

    def test_chain_trace_log_nondecreasing(self):
        report = interpret(parse(self.PROGRAM), GROUND)
        log = report.chain_trace_log
        assert all(a <= b + 1e-15 for a, b in zip(log, log[1:]))
        assert log[-1] == pytest.approx(report.output.trace, abs=1e-12)


class TestDivergingLoop:
    def test_zero_output(self):
        report = interpret(parse("qubit q; while q in |0> { skip; }"), GROUND)
        assert report.residual == 1.0
        assert report.converged
        assert np.allclose(report.output.matrix, 0.0)
        assert report.iterations_per_loop == [1]

    def test_full_space_guard_has_empty_exit_block(self):
        prog = Program((("q", 1),), While(ClosedSubspace.full(2), Skip()))
        report = interpret(prog, GROUND)
        assert report.residual == 1.0
        assert report.iterations_per_loop == [1]

    def test_partial_divergence(self):
        # half the mass diverges, half exits immediately
        plus = PartialDensityOperator.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        report = interpret(parse("qubit q; while q in |0> { skip; }"), plus)
        assert report.residual == pytest.approx(0.5, abs=1e-12)


class TestPhaseFlipLoop:
    def test_two_round_convergence(self):
        # |0> splits evenly; the z gate maps the retained |+> mass onto
        # |->, which exits in the following round
        report = interpret(parse("qubit q; while q in |+> { z q; }"), GROUND)
        assert report.converged
        assert report.residual == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.output.matrix, np.outer(KET_MINUS, KET_MINUS), atol=1e-12)


class TestNestedLoops:
    def test_inner_loop_reported(self):
        prog = parse(
            """
            qubit a; qubit b;
            while a in |1> {
              while b in |1> { h b; }
              x a;
            }
            """
        )
        one_one = PartialDensityOperator.pure(np.kron(KET1, KET1))
        report = interpret(prog, one_one)
        assert report.converged
        assert report.residual == pytest.approx(0.0, abs=1e-8)
        assert len(report.iterations_per_loop) >= 2
        # the outer loop's chain is the one reported
        assert report.chain_trace_log[-1] == pytest.approx(report.output.trace, abs=1e-12)


class TestOneKleeneLoop:
    """Every while loop is evaluated by ``density.chain_supremum``."""

    # the nested program of the CLI reference outputs (run-nested)
    NESTED = "qubit a; qubit b; h b; while a in |+> { t a; h a; while b in |-> { t b; h b; } s b; }"

    def test_each_loop_evaluation_is_one_chain_supremum(self, monkeypatch):
        calls = []
        original = interpreter.chain_supremum

        def spy(chain, cfg=None):
            calls.append(cfg)
            return original(chain, cfg)

        monkeypatch.setattr(interpreter, "chain_supremum", spy)
        report = interpret(parse(self.NESTED), PartialDensityOperator.ground_state(4))
        assert len(report.iterations_per_loop) > 2
        assert len(calls) == len(report.iterations_per_loop)

    @pytest.mark.parametrize("max_iterations", [1, 2, 3, None])
    def test_program_is_denoted_once_per_run(self, count_calls, max_iterations):
        cfg = FixpointConfig() if max_iterations is None else FixpointConfig(max_iterations=max_iterations)
        inputs = [PartialDensityOperator.ground_state(4), sampling.random_pdo(4, rng_for(27))]
        with count_calls(interpreter, "_GuardMaps") as guards, count_calls(interpreter, "denote_unitary") as gates:
            program = denote(parse(self.NESTED))
            for f in inputs:
                report = program.apply(f, cfg)
                # the outer loop runs its body iterations_per_loop[-1] times,
                # and the inner loop once per outer step
                assert len(report.iterations_per_loop) == report.iterations_per_loop[-1] + 1
        assert len(guards) == 2
        assert sorted(gate for gate, _, _ in gates) == ["H", "H", "H", "S", "T", "T"]  # one call per gate

    def test_one_denotation_applies_to_many_inputs_and_configs(self):
        program = denote(parse(self.NESTED))
        inputs = [PartialDensityOperator.ground_state(4), sampling.random_pdo(4, rng_for(26))]
        for cfg in [FixpointConfig(max_iterations=1), FixpointConfig(max_iterations=3), FixpointConfig()]:
            for f in inputs:
                report = program.apply(f, cfg)
                expected = interpret(parse(self.NESTED), f, cfg)
                assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
                # only this application's loops: the outer loop's steps, each
                # with one inner loop, then the outer loop itself
                assert len(report.iterations_per_loop) == report.iterations_per_loop[-1] + 1
                assert all(n <= cfg.max_iterations for n in report.iterations_per_loop)

    @staticmethod
    def fair_coin_chain():
        """The fair coin's Kleene chain built by hand: acc_0 = Q sigma_0 Q,
        sigma_{n+1} = H (P sigma_n P) H+, acc_{n+1} = acc_n + Q sigma_{n+1} Q,
        with P = |1><1| and Q = |0><0| applied as entry masks."""
        h = denote_unitary("H", (0,), 1)
        keep = np.array([[False, False], [False, True]])
        leave = np.array([[True, False], [False, False]])
        sigma = h @ GROUND.matrix @ h.conj().T
        acc = np.where(leave, sigma, 0)
        yield acc
        while True:
            sigma = h @ np.where(keep, sigma, 0) @ h.conj().T
            acc = acc + np.where(leave, sigma, 0)
            yield acc

    @pytest.mark.parametrize("max_iterations", [1, 2, 5, None])
    def test_fair_coin_run_is_its_chain_supremum(self, max_iterations):
        cfg = FixpointConfig() if max_iterations is None else FixpointConfig(max_iterations=max_iterations)
        sup, iterations, converged, traces = chain_supremum(self.fair_coin_chain(), cfg)
        report = interpret(parse(TestFairCoinLoop.PROGRAM), GROUND, cfg)
        assert sup.tobytes() == report.output.matrix.tobytes()
        assert iterations == report.iterations_per_loop[0]
        assert converged == report.converged
        assert traces == report.chain_trace_log
        assert converged == (max_iterations is None)


class TestDenotationLinearity:
    def test_convex_combinations(self):
        rng = rng_for(5)
        prog = parse("qubit q; h q; if q in |0> { s q; } else { x q; } while q in |1> { h q; }")
        cfg = FixpointConfig(max_iterations=25, trace_tol=1e-300, monotonicity_check=False)
        for _ in range(5):
            f1 = sampling.random_pdo(2, rng)
            f2 = sampling.random_pdo(2, rng)
            alpha = float(rng.uniform(0, 1))
            beta = float(rng.uniform(0, 1 - alpha))
            mix = PartialDensityOperator(alpha * f1.matrix + beta * f2.matrix)
            lhs = interpret(prog, mix, cfg).output.matrix
            rhs = alpha * interpret(prog, f1, cfg).output.matrix + beta * interpret(
                prog, f2, cfg
            ).output.matrix
            assert np.allclose(lhs, rhs, atol=1e-8)


class TestRunReport:
    def test_json_field_names(self):
        report = interpret(parse("qubit q; x q;"), GROUND)
        data = report.to_json()
        assert set(data) == {
            "output",
            "iterations_per_loop",
            "residual",
            "converged",
            "chain_trace_log",
        }
        assert set(data["output"]) == {"dim", "re", "im"}

    def test_residual_matches_trace_deficit(self):
        rng = rng_for(6)
        f = sampling.random_pdo(2, rng)
        report = interpret(parse("qubit q; h q;"), f)
        assert abs(report.residual - (1.0 - report.output.trace)) <= 1e-12

    def test_trace_never_increases(self):
        rng = rng_for(7)
        programs = [
            "qubit q; h q; while q in |1> { h q; }",
            "qubit q; if q in |0> { skip; } else { z q; }",
            "qubit a; qubit b; cnot a b; while b in |0> { x a; }",
        ]
        for source in programs:
            prog = parse(source)
            f = sampling.random_pdo(prog.dim, rng)
            report = interpret(prog, f, FixpointConfig(max_iterations=50))
            assert report.output.trace <= f.trace + 1e-9


ROADMAP_6Q = (
    "qubit a; qubit b; qubit c; qubit d; qubit e; qubit f; h a; h b; cnot a c; h d; "
    "while a in |1> { h a; cnot a b; t c; h e; cnot e f; }"
)


class TestBoundaryValidation:
    def test_only_the_output_is_certified_at_full_dimension(self, count_eigensolves):
        ground = PartialDensityOperator.ground_state(2**6)
        with count_eigensolves() as sizes:
            prog = parse(ROADMAP_6Q)
            report = interpret(prog, ground)
        (steps,) = report.iterations_per_loop
        assert report.converged
        # parsing builds the `|1>` guard without an eigensolve; a converged
        # loop compares `steps` pairs of approximants: one 32 x 32
        # exit-block check each; then the output is certified
        assert sizes == [32] * steps + [64]

    def test_dense_guard_builds_no_subspace_per_run(self, count_inits):
        prog = parse("qubit a; qubit b; h b; while a in |+> { t a; h a; cnot a b; }")
        f = sampling.random_pdo(4, rng_for(24))
        with count_inits(ClosedSubspace) as inits:
            first = interpret(prog, f)
            second = interpret(prog, f)
        assert inits == []
        assert first.converged and first.iterations_per_loop == second.iterations_per_loop
        assert first.output.matrix.tobytes() == second.output.matrix.tobytes()

    def test_negative_body_result_raises_with_witness(self, monkeypatch):
        prog = parse("qubit a; qubit b; h a; h b; while a in |1> { h a; }")
        loop = prog.body.statements[-1]
        assert isinstance(loop, While)
        dent = np.zeros((4, 4), dtype=complex)
        dent[1, 1] = 0.3  # |01>, inside the exit subspace of `a in |1>`
        calls = []
        original = interpreter._denote

        def faulty_denote(stmt, *args, **kwargs):
            body = original(stmt, *args, **kwargs)
            if stmt is not loop.body:
                return body

            def faulty_body(rho, *args):
                out = body(rho, *args)
                calls.append(stmt)
                return -dent if len(calls) == 2 else out

            return faulty_body

        monkeypatch.setattr(interpreter, "_denote", faulty_denote)
        with pytest.raises(ChainMonotonicityError) as err:
            interpret(prog, PartialDensityOperator.ground_state(4))
        assert err.value.index == 2
        witness = err.value.witness
        assert witness.shape == (4,)
        assert np.linalg.norm(witness) == pytest.approx(1.0)
        assert abs(witness[1]) == pytest.approx(1.0)

    def test_without_monotonicity_check_the_output_certificate_catches_it(self, monkeypatch):
        prog = parse("qubit a; qubit b; while a in |1> { h a; }")
        original = interpreter._denote

        def faulty_denote(stmt, *args, **kwargs):
            body = original(stmt, *args, **kwargs)
            if stmt is not prog.body.body:
                return body
            return lambda rho, *args: body(rho, *args) - 0.3 * np.diag([0.0, 1.0, 0.0, 0.0])

        monkeypatch.setattr(interpreter, "_denote", faulty_denote)
        ground = PartialDensityOperator.ground_state(4)
        with pytest.raises(ChainMonotonicityError) as err:
            interpret(prog, ground)
        assert err.value.index == 1
        with pytest.raises(NotPositiveError):
            interpret(prog, ground, FixpointConfig(monotonicity_check=False))


def unfused(stmt, rho: np.ndarray, n: int, loop_steps) -> np.ndarray:
    """Reference semantics that applies every gate on its own, as a dense
    ``embed_operator`` conjugation, and runs each loop (in evaluation order,
    no nesting) for the next count of ``loop_steps``."""
    if isinstance(stmt, Skip):
        return rho
    if isinstance(stmt, Seq):
        for inner in stmt.statements:
            rho = unfused(inner, rho, n, loop_steps)
        return rho
    if isinstance(stmt, ApplyUnitary):
        block = GATES[stmt.gate.upper()] if isinstance(stmt.gate, str) else stmt.gate
        u = embed_operator(block, stmt.targets, n)
        return u @ rho @ u.conj().T
    p = stmt.guard.projection
    q = np.eye(len(p)) - p
    if isinstance(stmt, Branch):
        return unfused(stmt.then_body, p @ rho @ p, n, loop_steps) + unfused(
            stmt.else_body, q @ rho @ q, n, loop_steps
        )
    acc, sigma = q @ rho @ q, rho
    for _ in range(next(loop_steps)):
        sigma = unfused(stmt.body, p @ sigma @ p, n, loop_steps)
        acc = acc + q @ sigma @ q
    return acc


@pytest.fixture
def conjugations(monkeypatch):
    """Every unitary the interpreter conjugates a state with, in order."""
    applied = []
    original = interpreter._conjugate

    def spy(u, rho, *args):
        applied.append(u)
        return original(u, rho, *args)

    monkeypatch.setattr(interpreter, "_conjugate", spy)
    return applied


def gate_product(source_gates, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for name, targets in source_gates:
        u = denote_unitary(name, targets, n) @ u
    return u


class TestGateFusion:
    """Each maximal run of consecutive gates is one certified unitary,
    applied as one conjugation; a lone gate is applied as it is."""

    PREFIX = (("H", (0,)), ("H", (1,)), ("CNOT", (0, 2)), ("H", (3,)))
    BODY = (("H", (0,)), ("CNOT", (0, 1)), ("T", (2,)), ("H", (4,)), ("CNOT", (4, 5)))

    def test_six_qubit_runs_are_one_conjugation_each(self, conjugations):
        prog = parse(ROADMAP_6Q)
        ground = PartialDensityOperator.ground_state(64)
        report = interpret(prog, ground)
        assert report.iterations_per_loop == [29]
        # the 4-gate prefix once, then the 5-gate body once per Kleene step
        assert len(conjugations) == 1 + 29
        assert linalg.max_norm(conjugations[0] - gate_product(self.PREFIX, 6)) <= 1e-15
        body = conjugations[1]
        assert all(u is body for u in conjugations[1:])
        assert linalg.max_norm(body - gate_product(self.BODY, 6)) <= 1e-15

        reference = unfused(prog.body, ground.matrix, 6, iter([29]))
        assert linalg.max_norm(report.output.matrix - reference) <= 1e-14

    @pytest.mark.parametrize(
        "breaker",
        ["skip;", "if b in |1> { x a; } else { skip; }", "while b in |1> { h b; }"],
    )
    def test_runs_are_not_fused_across_skip_if_or_while(self, breaker, conjugations):
        prog = parse(f"qubit a; qubit b; h a; cnot a b; {breaker} t b; h a;")
        f = sampling.random_pdo(4, rng_for(25))
        report = interpret(prog, f)
        before = gate_product((("H", (0,)), ("CNOT", (0, 1))), 2)
        after = gate_product((("T", (1,)), ("H", (0,))), 2)
        assert np.array_equal(conjugations[0], before)
        assert np.array_equal(conjugations[-1], after)
        # whatever the breaker applied sits between the two runs, gate by gate
        for u in conjugations[1:-1]:
            assert u.shape == (4, 4) and any(
                np.array_equal(u, denote_unitary(g, t, 2)) for g, t in (("X", (0,)), ("H", (1,)))
            )
        steps = iter(report.iterations_per_loop)
        reference = unfused(prog.body, f.matrix, 2, steps)
        assert linalg.max_norm(report.output.matrix - reference) <= 1e-14

    # ``interpret`` of the fair coin before gate runs were fused: the
    # converged run's chain trace log (its last entry is the output's only
    # nonzero entry, at [0, 0]) in float.hex form. The run with
    # ``max_iterations=n`` ends on entry n - 1, so its residual is
    # 1 - log[n - 1]: 2^-n up to one or two ulps of 1.
    FAIR_COIN_LOG = [
        "0x1.ffffffffffffep-2", "0x1.7fffffffffffep-1", "0x1.bfffffffffffep-1",
        "0x1.dfffffffffffep-1", "0x1.efffffffffffep-1", "0x1.f7ffffffffffep-1",
        "0x1.fbffffffffffep-1", "0x1.fdffffffffffep-1", "0x1.feffffffffffep-1",
        "0x1.ff7fffffffffep-1", "0x1.ffbfffffffffep-1", "0x1.ffdfffffffffep-1",
        "0x1.ffefffffffffep-1", "0x1.fff7ffffffffep-1", "0x1.fffbffffffffep-1",
        "0x1.fffdffffffffep-1", "0x1.fffeffffffffep-1", "0x1.ffff7fffffffep-1",
        "0x1.ffffbfffffffep-1", "0x1.ffffdfffffffep-1", "0x1.ffffefffffffep-1",
        "0x1.fffff7ffffffep-1", "0x1.fffffbffffffep-1", "0x1.fffffdffffffep-1",
        "0x1.fffffeffffffep-1", "0x1.ffffff7fffffep-1", "0x1.ffffffbfffffep-1",
        "0x1.ffffffdfffffep-1", "0x1.ffffffefffffep-1", "0x1.fffffff7ffffep-1",
    ]

    def test_fair_coin_matches_pre_fusion_recording_bit_for_bit(self):
        log = [float.fromhex(x) for x in self.FAIR_COIN_LOG]
        prog = parse(TestFairCoinLoop.PROGRAM)
        report = interpret(prog, GROUND)
        assert report.chain_trace_log == log
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 0] = log[-1]
        assert report.output.matrix.tobytes() == expected.tobytes()
        for n in range(1, 31):
            truncated = interpret(prog, GROUND, FixpointConfig(max_iterations=n))
            assert truncated.residual == 1.0 - log[n - 1]
            assert abs(truncated.residual - 2.0**-n) <= 2.5e-16

    def test_run_of_near_unitaries_within_k_tolerances_is_accepted(self):
        # each factor is (1 + eps) X or (1 + eps) Z, with defect
        # (1 + eps)^2 - 1 = 0.9 UNITARY_TOL; the run's defect is about 4.5
        scale = 1.0 + 0.45 * linalg.UNITARY_TOL
        x = f"[[0, {scale!r}], [{scale!r}, 0]]"
        z = f"[[{scale!r}, 0], [0, -{scale!r}]]"
        prog = parse(f"qubit a; qubit b; {x} a; {z} b; {x} b; {z} a; {x} a;")
        defects = [linalg.max_norm(s.gate.conj().T @ s.gate - np.eye(2)) for s in prog.body.statements]
        assert all(0.85 * linalg.UNITARY_TOL < d < 0.95 * linalg.UNITARY_TOL for d in defects)
        report = interpret(prog, PartialDensityOperator.ground_state(4))
        assert report.output.trace == pytest.approx(scale**10, abs=1e-15)

    def test_run_beyond_k_tolerances_is_rejected(self, monkeypatch):
        # factors with defect 1.2 UNITARY_TOL each, as no certified gate
        # has: the 5-gate run's product is off by about 6 UNITARY_TOL
        original = interpreter.denote_unitary

        def loose(gate, targets, total_qubits):
            return (1.0 + 0.6 * linalg.UNITARY_TOL) * original(gate, targets, total_qubits)

        monkeypatch.setattr(interpreter, "denote_unitary", loose)
        prog = parse("qubit a; qubit b; h a; cnot a b; t b; h b; s a;")
        with pytest.raises(NonUnitaryError, match="run of 5 gates"):
            interpret(prog, PartialDensityOperator.ground_state(4))


def kron_at(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    return reduce(np.kron, [factors.get(q, np.eye(2)) for q in range(n)])


class TestGuardPaths:
    """|0>/|1> guards run as 0/1 masks, |+>/|-> guards as dense P rho P;
    both must match an np.kron reference."""

    N = 3

    def test_guard_maps_match_kron_projection(self):
        rho = sampling.random_pdo(2**self.N, rng_for(21)).matrix
        for ket, v in KET_VECTORS.items():
            for q in range(self.N):
                maps = interpreter._GuardMaps(ClosedSubspace(ket_guard_projection(ket, q, self.N)))
                assert maps.masked == (ket in "01")
                p = kron_at({q: np.outer(v, v.conj())}, self.N)
                e = np.eye(2**self.N) - p
                assert linalg.max_norm(maps.keep(rho) - p @ rho @ p) <= 1e-12
                assert linalg.max_norm(maps.exit(rho) - e @ rho @ e) <= 1e-12
                w = rng_for(22).standard_normal(2 ** (self.N - 1)) + 0j
                x = maps.lift(w)
                assert linalg.max_norm(e @ x - x) <= 1e-12
                block = maps.exit_block(rho)
                assert np.vdot(x, rho @ x) == pytest.approx(np.vdot(w, block @ w), abs=1e-12)

    def test_programs_match_kron_reference(self):
        names = "abc"
        rng = rng_for(23)
        steps = 12
        cfg = FixpointConfig(max_iterations=steps, trace_tol=1e-300)
        for ket, v in KET_VECTORS.items():
            for q in range(self.N):
                o = (q + 1) % self.N
                source = (
                    f"qubit a; qubit b; qubit c; "
                    f"if {names[q]} in |{ket}> {{ t {names[q]}; }} else {{ s {names[o]}; }} "
                    f"while {names[q]} in |{ket}> {{ h {names[q]}; cnot {names[q]} {names[o]}; }}"
                )
                f = sampling.random_pdo(2**self.N, rng)
                report = interpret(parse(source), f, cfg)
                assert report.iterations_per_loop == [steps - 1]

                p = kron_at({q: np.outer(v, v.conj())}, self.N)
                e = np.eye(2**self.N) - p
                t = kron_at({q: GATES["T"]}, self.N)
                s_o = kron_at({o: GATES["S"]}, self.N)
                cnot = kron_at({q: np.diag([1, 0])}, self.N) + kron_at(
                    {q: np.diag([0, 1]), o: GATES["X"]}, self.N
                )
                body = cnot @ kron_at({q: GATES["H"]}, self.N)
                sigma = t @ p @ f.matrix @ p @ t.conj().T + s_o @ e @ f.matrix @ e @ s_o.conj().T
                acc = e @ sigma @ e
                for _ in range(steps - 1):
                    sigma = body @ p @ sigma @ p @ body.conj().T
                    acc = acc + e @ sigma @ e
                assert linalg.max_norm(report.output.matrix - acc) <= 1e-12, (ket, q)
