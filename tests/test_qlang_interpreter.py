import dataclasses
import json
from itertools import permutations, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpartial import linalg, sampling
from qpartial.cli import main
from qpartial.density import FixpointConfig, PartialDensityOperator, chain_supremum
from qpartial.errors import DimensionMismatchError, NonUnitaryError, NotPositiveError
from qpartial.logic import ClosedSubspace
from qpartial.qlang import denote, gates, interpret, interpreter, parse, z_basis
from qpartial.qlang.ast import KETS, ApplyUnitary, Branch, Guard, Program, While
from qpartial.qlang.gates import GATES, apply_unitary, gate_arity
from qpartial.verify import random_program

from conftest import KET_VECTORS, ket_projection, kron_at, kron_permuted

GROUND = PartialDensityOperator.ground_state(2)
KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
KET_MINUS = np.array([1.0, -1.0]) / np.sqrt(2)


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([17, test_id])


def guard_projection(guard: Guard, n: int) -> np.ndarray:
    """The projection onto a guard's event in an n-qubit register."""
    return ket_projection(guard.ket, guard.qubit, n)


def on_identity(gate, targets, n: int) -> np.ndarray:
    """A gate name or inline matrix, certified and applied on its qubit legs
    to the identity: its full-dimension unitary."""
    return apply_unitary(gate, targets, n, np.eye(2**n, dtype=complex))


def embedded(name: str, targets, n: int) -> np.ndarray:
    """A named gate's full-dimension unitary, by ``kron_permuted``."""
    return kron_permuted(GATES[name], targets, n)


def tree_nodes(block):
    """Every node of a denoted block, each before the nodes of its own
    blocks, in program order."""
    for node in block:
        yield node
        if isinstance(node, interpreter._If):
            yield from tree_nodes(node.then + node.other)
        elif isinstance(node, interpreter._Loop):
            yield from tree_nodes(node.body)


def tree_loops(block) -> list:
    """Every ``_Loop`` of a denoted block, outer before inner."""
    return [n for n in tree_nodes(block) if isinstance(n, interpreter._Loop)]


class TestGateOnIdentity:
    def test_hadamard_single_qubit(self):
        u = on_identity("H", (0,), 1)
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_gate_names_case_insensitive(self):
        assert np.allclose(on_identity("x", (0,), 1), GATES["X"])

    def test_tensor_embedding_matches_kron(self):
        x = GATES["X"]
        assert np.allclose(on_identity("X", (1,), 2), np.kron(np.eye(2), x))
        assert np.allclose(on_identity("X", (0,), 2), np.kron(x, np.eye(2)))
        rng = rng_for(1)
        u = sampling.random_unitary(2, rng)
        assert np.allclose(
            on_identity(u, (1,), 3), np.kron(np.eye(2), np.kron(u, np.eye(2)))
        )

    def test_cnot_textbook(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(on_identity("CNOT", (0, 1), 2), expected)

    def test_cnot_reversed_targets(self):
        # control on qubit 1 (least significant bit) swaps |01> and |11>
        u = on_identity("CNOT", (1, 0), 2)
        perm = np.eye(4)[:, [0, 3, 2, 1]]
        assert np.allclose(u, perm)

    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            on_identity(np.array([[1.0, 0.0], [0.0, 0.5]]), (0,), 1)

    def test_overflowed_gram_defect_is_rejected(self):
        # finite entries whose Gram product overflows: U+U - I is NaN, which
        # must fail the bound, with no numpy warning (an error in this suite)
        u = np.array([[1e200 + 1e200j, 1e200 - 1e200j], [1e200 - 1e200j, 1e200 + 1e200j]])
        with pytest.raises(NonUnitaryError, match="deviates from unitary by nan"):
            on_identity(u, (0,), 1)

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            on_identity("CNOT", (0, 0), 2)
        with pytest.raises(ValueError):
            on_identity("X", (3,), 2)
        with pytest.raises(DimensionMismatchError):
            on_identity(np.eye(4), (0,), 2)

    def test_target_equal_to_register_size_is_out_of_range(self):
        # the last qubit of a 2-qubit register is 1: target 2 is one past it
        with pytest.raises(ValueError, match="out of range"):
            on_identity("X", (2,), 2)
        with pytest.raises(ValueError, match="out of range"):
            on_identity("X", (-1,), 2)
        assert on_identity("X", (1,), 2).shape == (4, 4)


class TestGateTable:
    """The named gates are certified once, at import, in a read-only table;
    ``denote`` certifies only inline matrices and gate runs, a gate-run
    loop's body on its guard's columns."""

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            GATES["X"] = GATES["Z"]
        with pytest.raises(ValueError):
            GATES["H"][0, 0] = 0.0

    def test_six_qubit_program_forms_two_gram_defects(self, count_calls):
        # the run "h a; h b; cnot a c; h d" on all 64 columns, and the
        # 5-gate body on the 32 columns of `a in |1>`, which certifies the
        # loop's Kraus pair; no named gate is certified again
        prog = parse(ROADMAP_6Q)
        with count_calls(linalg, "gram_defect") as defects:
            denote(prog)
        assert [d.shape for (d,) in defects] == [(64, 64), (64, 32)]

    @pytest.mark.parametrize("body", ["[[1, 1], [0, 1]] q;", "h q; [[1, 1], [0, 1]] q;"])
    def test_non_unitary_inline_matrix_is_rejected_at_denote(self, body):
        prog = parse(f"qubit q; while q in |1> {{ {body} }}")
        with pytest.raises(NonUnitaryError, match="gate deviates from unitary"):
            denote(prog)


class TestInlineGateIsItsNearestUnitary:
    """An accepted inline gate is applied as its polar factor ``W V+``, so a
    defect within ``UNITARY_TOL`` does not compound over a loop's steps."""

    @staticmethod
    def rotation_loop(gate: np.ndarray):
        prog = Program(("q",), (While(Guard(0, "0"), (ApplyUnitary(gate, (0,)),)),))
        rho = PartialDensityOperator(np.diag([0.5, 0.0]).astype(complex))
        return interpret(prog, rho, FixpointConfig(max_iterations=20000))

    @pytest.mark.parametrize("cos2", [0.99, 0.999])
    def test_scaled_rotation_loop_gives_the_exact_rotations_output(self, cos2):
        # coefficients scaled by 1 + 4.9e-11, within the certificate: applied
        # as given, the converged output lay 4.9e-9 (cos2 = 0.99) and 4.9e-8
        # (0.999) off the exact rotation's; as their polar factor, 0.0
        c, s = np.sqrt(cos2), np.sqrt(1.0 - cos2)
        rotation = np.array([[c, -s], [s, c]], dtype=complex)
        exact, scaled = self.rotation_loop(rotation), self.rotation_loop((1.0 + 4.9e-11) * rotation)
        assert exact.converged and scaled.converged
        assert linalg.max_norm(scaled.output.matrix - exact.output.matrix) <= 1e-15

    def test_named_gates_are_their_table_blocks(self, count_calls):
        with count_calls(np.linalg, "svd") as svds:
            u = on_identity("H", (0,), 1)
        assert svds == [] and np.array_equal(u, GATES["H"])


class TestQubitLegs:
    def test_every_ordered_target_tuple_matches_kron(self):
        # an inline unitary on every ordered target tuple of 1..4 qubits; it
        # is applied as its polar factor, which lies within a few ulps of it
        rng = rng_for(20)
        for n in range(1, 5):
            for k in range(1, n + 1):
                for targets in permutations(range(n), k):
                    block = sampling.random_unitary(2**k, rng)
                    deviation = linalg.max_norm(on_identity(block, targets, n) - kron_permuted(block, targets, n))
                    assert deviation <= 4e-15, targets

    @staticmethod
    def random_matrix(rng, rows: int) -> np.ndarray:
        return rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))

    def test_gate_applied_on_qubit_legs_matches_embedded_product(self):
        # every gate on every ordered target tuple of 1..4 qubits
        rng = rng_for(28)
        for n in range(1, 5):
            for name in GATES:
                for targets in permutations(range(n), gate_arity(name)):
                    u = self.random_matrix(rng, 2**n)
                    expected = embedded(name, targets, n) @ u
                    assert linalg.max_norm(apply_unitary(name, targets, n, u) - expected) <= 1e-15, (name, targets)

    @pytest.mark.parametrize(
        "name, targets",
        [("H", (0,)), ("T", (5,)), ("Y", (3,)), ("CNOT", (0, 5)), ("CNOT", (5, 0)), ("CNOT", (4, 1)), ("CNOT", (2, 3))],
    )
    def test_six_qubit_gate_on_qubit_legs_matches_embedded_product(self, name, targets):
        # non-adjacent and reversed targets included
        u = self.random_matrix(rng_for(29), 64)
        before = u.copy()
        expected = embedded(name, targets, 6) @ u
        assert linalg.max_norm(apply_unitary(name, targets, 6, u) - expected) <= 1e-15
        assert np.array_equal(u, before)  # u is read, not overwritten


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

    def test_partial_divergence(self):
        # half the mass diverges, half exits immediately
        plus = PartialDensityOperator.pure(np.array([1.0, 1.0]) / np.sqrt(2))
        report = interpret(parse("qubit q; while q in |0> { skip; }"), plus)
        assert report.residual == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("body", ["skip;", ""])
    def test_skip_body_runs_on_blocks_with_the_identity(self, body):
        # `skip` is the identity, so the body is the empty gate run: U B = B,
        # M = I_r and C = 0, and no step lifts the state to full dimension
        denotation = denote(parse(f"qubit q; while q in |0> {{ {body} }}"))
        [loop] = denotation._root
        assert isinstance(loop, interpreter._Loop) and loop.body == ()
        assert np.array_equal(loop.m, np.eye(1)) and np.array_equal(loop.c, np.zeros((1, 1)))
        report = denotation.apply(GROUND)
        assert report.residual == 1.0
        assert report.iterations_per_loop == [1]


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
        # every gate is certified through gates._gate_block, whether a run
        # embeds it or applies it on qubit legs
        with count_calls(interpreter, "_GuardMaps") as guards, count_calls(gates, "_gate_block") as blocks:
            program = denote(parse(self.NESTED))
            for f in inputs:
                report = program.apply(f, cfg)
                # the outer loop runs its body iterations_per_loop[-1] times,
                # and the inner loop once per outer step
                assert len(report.iterations_per_loop) == report.iterations_per_loop[-1] + 1
        assert len(guards) == 2
        # one call per gate, the H's of the two rotated guards included:
        # h b; h a; while a in |0> { h a; t a; h a; h b; while b in |1> {
        # h b; t b; h b; h b; } h b; s b; h a; } h a;
        assert sorted(gate for (gate,) in blocks) == ["H"] * 11 + ["S", "T", "T"]

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
    def fair_coin_chain(held: list):
        """The fair coin's Kleene chain built by hand on full 2 x 2 matrices
        and read through its traces, with P = |1><1| and Q = |0><0| applied
        as entry masks: sigma = H rho H+, a_0 = Q sigma Q, s_0 = P sigma P,
        s_{n+1} = X s_n X+ for X = P H P, and tr a_{n+1} = tr a_n + Re<G, s_n>
        for G = Y+Y, Y = Q H P. As tr a_n is yielded, ``held[0]`` is a_n =
        a_0 + Y S_n Y+, S_n = s_0 + ... + s_{n-1}."""
        h = GATES["H"]
        keep = np.array([[False, False], [False, True]])
        leave = np.array([[True, False], [False, False]])
        out_of_loop = np.array([[False, True], [False, False]])
        x, y = np.where(keep, h, 0), np.where(out_of_loop, h, 0)
        gram = y.conj().T @ y
        sigma = h @ GROUND.matrix @ h.conj().T
        a, s = np.where(leave, sigma, 0), np.where(keep, sigma, 0)
        held[:] = [a]
        t = float(a.trace().real)
        yield t
        total = None
        while True:
            total = s if total is None else total + s
            held[:] = [a + y @ total @ y.conj().T]
            t += float(np.vdot(gram, s).real)
            yield t
            s = x @ s @ x.conj().T

    @pytest.mark.parametrize("max_iterations", [1, 2, 5, None])
    def test_fair_coin_run_is_its_chain_supremum(self, max_iterations):
        cfg = FixpointConfig() if max_iterations is None else FixpointConfig(max_iterations=max_iterations)
        held = []
        iterations, converged, traces = chain_supremum(self.fair_coin_chain(held), cfg)
        report = interpret(parse(TestFairCoinLoop.PROGRAM), GROUND, cfg)
        assert held[0].tobytes() == report.output.matrix.tobytes()
        assert iterations == report.iterations_per_loop[0]
        assert converged == report.converged
        assert traces == report.chain_trace_log
        assert converged == (max_iterations is None)


class TestDenotationLinearity:
    def test_convex_combinations(self):
        rng = rng_for(5)
        prog = parse("qubit q; h q; if q in |0> { s q; } else { x q; } while q in |1> { h q; }")
        cfg = FixpointConfig(max_iterations=25, trace_tol=1e-300)
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


# The body `h a` of a loop on `a in |1>`, behind an `if` whose arms are
# equal: the identity on the loop's inputs, but not a gate, so the loop
# runs a body step (its node has `m is None`)
BODY_STEP_H = "if a in |1> { } else { } h a;"


class TestBlockContract:
    """A block is a flat tuple of statements. A hand-built AST is outside
    input: anything else inside a block, a nested tuple included, is
    rejected at ``denote``."""

    X = ApplyUnitary("X", (0,))
    GUARD = Guard(0, "1")

    def block_with(self, where: str, bad) -> tuple:
        return {
            "top_level": (self.X, bad),
            "loop_body": (While(self.GUARD, (bad,)),),
            "gate_run_loop_body": (While(self.GUARD, (self.X, bad)),),
            "else_arm": (Branch(self.GUARD, (), (bad,)),),
        }[where]

    @pytest.mark.parametrize("where", ["top_level", "loop_body", "gate_run_loop_body", "else_arm"])
    @pytest.mark.parametrize("bad", ["skip", None, (X,)], ids=["str", "none", "nested_tuple"])
    def test_non_statement_in_a_block_raises_type_error(self, where, bad):
        with pytest.raises(TypeError, match="unknown statement node"):
            denote(Program(("q",), self.block_with(where, bad)))

    def test_unknown_ket_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown ket '2'"):
            Guard(0, "2")

    @pytest.mark.parametrize("qubit", [1, -1])
    @pytest.mark.parametrize("ket", ["1", "+"])
    def test_guard_qubit_outside_the_register_raises_value_error_at_denote(self, qubit, ket):
        prog = Program(("q",), (While(Guard(qubit, ket), (self.X,)),))
        with pytest.raises(ValueError, match=f"guard qubit {qubit} out of range for 1 qubit"):
            denote(prog)

    def test_empty_blocks_denote_the_identity(self):
        prog = Program(("q",), (Branch(self.GUARD, (), ()),))
        f = sampling.random_pdo(2, rng_for(26))
        out = interpret(prog, f).output.matrix
        p = guard_projection(self.GUARD, 1)
        q = np.eye(2) - p
        assert linalg.max_norm(out - (p @ f.matrix @ p + q @ f.matrix @ q)) <= 1e-15
        assert interpret(Program(("q",), ()), f).output.matrix.tobytes() == f.matrix.tobytes()


class TestDenotationTree:
    """``denote`` builds a tree of frozen nodes in the AST's shape, each
    block the tuple of its nodes; the kernel a loop runs is read off its
    node: ``m is None`` for body steps, else the Kraus pair (m, c) of its
    gate-run body, which the node keeps in place of the body ``()``."""

    NESTED = "qubit a; qubit b; h b; while a in |+> { t a; h a; while b in |-> { t b; h b; } s b; }"

    def test_six_qubit_program_is_a_prefix_run_then_a_block_loop(self):
        root = denote(parse(ROADMAP_6Q))._root
        assert [type(node) for node in root] == [interpreter._Gates, interpreter._Loop]
        loop = root[1]
        assert loop.body == ()
        assert loop.m.shape == (32, 32) and loop.c.shape == (32, 32)

    def test_nested_program_has_a_body_step_loop_around_a_block_loop(self):
        # each |+>/|-> loop sits between the H's of its rotated guard
        root = denote(parse(self.NESTED))._root
        assert [type(node) for node in root] == [interpreter._Gates, interpreter._Loop, interpreter._Gates]
        outer = root[1]
        assert outer.m is None and outer.c is None
        assert [type(node) for node in outer.body] == [
            interpreter._Gates,
            interpreter._Loop,
            interpreter._Gates,
        ]
        inner = outer.body[1]
        assert inner.body == () and inner.m.shape == (2, 2)
        assert tree_loops(root) == [outer, inner]

    def test_nodes_are_frozen(self):
        root = denote(parse(self.NESTED))._root
        for node in tree_nodes(root):
            field = dataclasses.fields(node)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, field, None)


class TestBoundaryValidation:
    def test_only_the_output_is_certified_at_full_dimension(self, count_eigensolves):
        ground = PartialDensityOperator.ground_state(2**6)
        with count_eigensolves() as sizes:
            prog = parse(ROADMAP_6Q)
            report = interpret(prog, ground)
        assert report.iterations_per_loop == [29]
        assert report.converged
        # parsing builds the `|1>` guard without an eigensolve; the loop's
        # body is a gate run, whose Kraus pair `denote` certifies once, so
        # its 29 steps run no check; then the output is certified
        assert sizes == [64]

    def test_no_guard_runs_an_eigensolve(self, count_eigensolves):
        # the nested program's `|+>` and `|->` guards are `|0>` and `|1>`
        # guards under H, run on index arrays; the output's certificate is
        # the one eigensolve
        prog = parse(TestOneKleeneLoop.NESTED)
        with count_eigensolves() as at_denote:
            denotation = denote(prog)
        with count_eigensolves() as at_apply:
            report = denotation.apply(PartialDensityOperator.ground_state(4))
        assert report.converged
        assert (at_denote, at_apply) == ([], [4])

    def test_dense_guard_builds_no_subspace_per_run(self, count_inits):
        prog = parse("qubit a; qubit b; h b; while a in |+> { t a; h a; cnot a b; }")
        f = sampling.random_pdo(4, rng_for(24))
        with count_inits(ClosedSubspace) as inits:
            first = interpret(prog, f)
            second = interpret(prog, f)
        assert inits == []
        assert first.converged and first.iterations_per_loop == second.iterations_per_loop
        assert first.output.matrix.tobytes() == second.output.matrix.tobytes()

    # |01> lies in the exit subspace of `a in |1>`, spanned by |00> and |01>
    DENT = np.diag([0.0, 0.3, 0.0, 0.0]).astype(complex)

    def test_negative_body_result_raises_with_witness(self, monkeypatch):
        # an `if` whose arms are equal keeps the loop off the block kernel:
        # it runs body steps. On the loop's own guard the `if` is the
        # identity, so the body still denotes `h a`
        prog = parse(f"qubit a; qubit b; h a; h b; while a in |1> {{ {BODY_STEP_H} }}")
        loop = prog.body[-1]
        assert isinstance(loop, While)
        calls = []
        original = interpreter._denote

        def faulty_denote(block, *args, **kwargs):
            body = original(block, *args, **kwargs)
            if block != loop.body:
                return body

            def fault(rho, *args):
                calls.append(block)
                return -self.DENT if len(calls) == 2 else rho

            return body + (fault,)

        monkeypatch.setattr(interpreter, "_denote", faulty_denote)
        with pytest.raises(NotPositiveError) as err:
            interpret(prog, PartialDensityOperator.ground_state(4))
        # no step is checked: the output certificate rejects the run, with
        # a witness in the exit subspace
        witness = err.value.witness
        assert len(calls) == 2 and err.value.eigenvalue < -linalg.PSD_TOL
        assert witness.shape == (4,) and np.linalg.norm(witness) == pytest.approx(1.0)
        assert abs(witness[2]) <= 1e-12 and abs(witness[3]) <= 1e-12

    def test_negative_block_step_raises_with_witness(self, monkeypatch):
        # a gate-run body runs on the guard's blocks with the Kraus pair
        # (M, C), the rows of U B; a fault in its CNOT puts M+M + C+C, the
        # Gram product of U B, off the identity, and `denote` rejects the
        # run, naming it and its defect (1 + 1e-6)^2 - 1, before any input
        # is touched
        prog = parse("qubit a; qubit b; h a; h b; while a in |1> { h a; cnot a b; }")
        original = interpreter.apply_unitary

        def faulty_apply(gate, *args):
            u = original(gate, *args)
            return (1.0 + 1e-6) * u if gate == "CNOT" else u

        monkeypatch.setattr(interpreter, "apply_unitary", faulty_apply)
        with pytest.raises(NonUnitaryError, match=r"run of 2 gates") as err:
            denote(prog)
        assert "by 2.000e-06" in str(err.value)

    def test_the_output_certificate_catches_a_negative_body_step(self, monkeypatch):
        prog = parse(f"qubit a; qubit b; while a in |1> {{ {BODY_STEP_H} }}")
        original = interpreter._denote

        def faulty_denote(block, *args, **kwargs):
            body = original(block, *args, **kwargs)
            if block != prog.body[0].body:
                return body
            return body + (lambda rho, *args: rho - self.DENT,)

        monkeypatch.setattr(interpreter, "_denote", faulty_denote)
        with pytest.raises(NotPositiveError):
            interpret(prog, PartialDensityOperator.ground_state(4))

    def test_the_output_certificate_catches_a_negative_block_step(self):
        # a certified block loop runs no per-step check: one that forms its
        # exit block as a_0 - C S C+, through a negated C+, is caught by the
        # output certificate. On |10> all the mass loops, so a_0 = 0
        denotation = denote(parse("qubit a; qubit b; while a in |1> { h a; }"))
        [loop] = denotation._root
        assert loop.m is not None
        faulty = interpreter.Denotation(denotation.dim, (dataclasses.replace(loop, c_adj=-loop.c_adj),))
        one_zero = PartialDensityOperator.pure(np.kron(KET1, KET0))
        assert denotation.apply(one_zero).converged
        with pytest.raises(NotPositiveError):
            faulty.apply(one_zero)


def unfused(stmt, rho: np.ndarray, n: int, loop_steps) -> np.ndarray:
    """Reference semantics of a statement or a block that applies every gate
    on its own, as a dense ``kron_permuted`` conjugation, and runs each loop
    (in evaluation order, no nesting) for the next count of ``loop_steps``."""
    if isinstance(stmt, tuple):
        for inner in stmt:
            rho = unfused(inner, rho, n, loop_steps)
        return rho
    if isinstance(stmt, ApplyUnitary):
        block = GATES[stmt.gate.upper()] if isinstance(stmt.gate, str) else stmt.gate
        u = kron_permuted(block, stmt.targets, n)
        return u @ rho @ u.conj().T
    p = guard_projection(stmt.guard, n)
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


# A Kleene chain run in float64 lies within this, in max norm, of the same
# chain run in np.clongdouble on the same float64 blocks, in its output and
# in its chain trace log (``TestExtendedPrecisionChain``). The worst seen,
# over the fair coin, the 6-qubit program and four of verify's block loops,
# is 1.3e-16 in the output and 1.6e-16 in the log, whether the exit block is
# added step by step or formed once.
KLEENE_TOL = 4 * np.finfo(float).eps


def gate_product(source_gates, n: int) -> np.ndarray:
    u = np.eye(2**n, dtype=complex)
    for name, targets in source_gates:
        u = embedded(name, targets, n) @ u
    return u


# each factor is (1 + eps) X or (1 + eps) Z, with defect (1 + eps)^2 - 1 =
# 0.9 UNITARY_TOL, each accepted and applied as its polar factor, X or Z
NEAR_SCALE = 1.0 + 0.45 * linalg.UNITARY_TOL
_NEAR_X = f"[[0, {NEAR_SCALE!r}], [{NEAR_SCALE!r}, 0]]"
_NEAR_Z = f"[[{NEAR_SCALE!r}, 0], [0, -{NEAR_SCALE!r}]]"
NEAR_RUN = f"{_NEAR_X} a; {_NEAR_Z} b; {_NEAR_X} b; {_NEAR_Z} a; {_NEAR_X} a;"


class TestGateFusion:
    """Each maximal run of consecutive gates is one unitary, applied as one
    conjugation; a run of more than one gate is certified."""

    PREFIX = (("H", (0,)), ("H", (1,)), ("CNOT", (0, 2)), ("H", (3,)))
    BODY = (("H", (0,)), ("CNOT", (0, 1)), ("T", (2,)), ("H", (4,)), ("CNOT", (4, 5)))

    def test_six_qubit_runs_are_one_conjugation_each(self):
        # an `if` whose arms are equal, first in the body, sends it through
        # body steps: the 5-gate run is one `_Gates` node, one conjugation
        # of the lifted 64 x 64 state per Kleene step
        prog = parse(ROADMAP_6Q.replace("{ h a;", "{ if a in |1> { } else { } h a;"))
        denotation = denote(prog)
        prefix, loop = denotation._root
        assert linalg.max_norm(prefix.u - gate_product(self.PREFIX, 6)) <= 1e-15
        assert loop.m is None
        gates = [n for n in tree_nodes(loop.body) if isinstance(n, interpreter._Gates)]
        assert len(gates) == 1 and gates[0] is loop.body[-1]
        assert linalg.max_norm(gates[0].u - gate_product(self.BODY, 6)) <= 1e-15

        ground = PartialDensityOperator.ground_state(64)
        report = denotation.apply(ground)
        assert report.iterations_per_loop == [29]
        reference = unfused(prog.body, ground.matrix, 6, iter([29]))
        assert linalg.max_norm(report.output.matrix - reference) <= 1e-14

    def test_six_qubit_loop_runs_on_the_guards_blocks(self, count_calls):
        prog = parse(ROADMAP_6Q)
        with count_calls(interpreter, "_product") as products:
            denotation = denote(prog)
        # the prefix is one 64 x 64 conjugation; the body is applied only to
        # the 32 columns of `a in |1>` (indices 32..63), U B, whose rows in
        # that range (M) and its complement's (C) are the 32 x 32 blocks
        # each Kleene step runs on; no d x d product of the body is formed
        assert [columns.shape for _, _, columns in products] == [(64, 64), (64, 32)]
        assert np.array_equal(products[1][2], np.eye(64)[:, 32:])
        prefix, loop = denotation._root
        assert linalg.max_norm(prefix.u - gate_product(self.PREFIX, 6)) <= 1e-15
        u = gate_product(self.BODY, 6)
        assert loop.body == ()
        assert loop.m.shape == (32, 32) and loop.c.shape == (32, 32)
        assert linalg.max_norm(loop.m - u[32:, 32:]) <= 1e-15
        assert linalg.max_norm(loop.c - u[:32, 32:]) <= 1e-15

        ground = PartialDensityOperator.ground_state(64)
        report = denotation.apply(ground)
        assert report.iterations_per_loop == [29]
        reference = unfused(prog.body, ground.matrix, 6, iter([29]))
        assert linalg.max_norm(report.output.matrix - reference) <= 1e-14

    def test_runs_are_fused_across_skip(self, count_calls):
        # `skip` is the identity and parses to no statement, so it never
        # ends a run: each program is one product of three factors, one
        # `_Gates` node, with the same bytes out
        flat = parse("qubit a; qubit b; h a; cnot a b; t b;")
        skipped = parse("qubit a; qubit b; skip; h a; skip; cnot a b; skip; t b; skip;")
        f = sampling.random_pdo(4, rng_for(25))
        with count_calls(interpreter, "_product") as products:
            denotations = [denote(prog) for prog in (flat, skipped)]
        assert [len(run) for run, _, _ in products] == [3, 3]
        u = gate_product((("H", (0,)), ("CNOT", (0, 1)), ("T", (1,))), 2)
        roots = [d._root for d in denotations]
        assert [len(r) for r in roots] == [1, 1]
        assert all(isinstance(r[0], interpreter._Gates) and np.array_equal(r[0].u, u) for r in roots)
        outputs = [d.apply(f).output.matrix.tobytes() for d in denotations]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize(
        "breaker",
        ["if b in |1> { x a; } else { skip; }", "while b in |1> { h b; }"],
    )
    def test_runs_are_not_fused_across_if_or_while(self, breaker):
        prog = parse(f"qubit a; qubit b; h a; cnot a b; {breaker} t b; h a;")
        denotation = denote(prog)
        before, middle, after = denotation._root
        assert np.array_equal(before.u, gate_product((("H", (0,)), ("CNOT", (0, 1))), 2))
        assert np.array_equal(after.u, gate_product((("T", (1,)), ("H", (0,))), 2))
        # whatever the breaker holds sits between the two runs, gate by gate
        assert isinstance(middle, (interpreter._If, interpreter._Loop))
        for node in tree_nodes((middle,)):
            if isinstance(node, interpreter._Gates):
                assert any(np.array_equal(node.u, embedded(g, t, 2)) for g, t in (("X", (0,)), ("H", (1,))))
        f = sampling.random_pdo(4, rng_for(25))
        report = denotation.apply(f)
        steps = iter(report.iterations_per_loop)
        reference = unfused(prog.body, f.matrix, 2, steps)
        assert linalg.max_norm(report.output.matrix - reference) <= 1e-14

    # ``interpret`` of the fair coin, in float.hex form: the converged run's
    # chain trace log, tr a_0 + Re<C+C, s_0> + ... added step by step, and
    # the output's only nonzero entry, at [0, 0], of the run with
    # ``max_iterations=n``, a_0 + C S C+ formed once, at n - 1. Its
    # residual, 1 - that entry, is 2^-n up to two ulps of 1, 4.44e-16: the
    # worst is 3.33e-16, at 13 of the 30 n. On the rounded entries of H the
    # exact chain's exit block lies up to 3.5e-16 off 1 - 2^-n, so its
    # nearest float is 3.33e-16 off, and no order of forming it keeps the
    # 2.5e-16 that the exit block added step by step kept (worst 2.22e-16)
    FAIR_COIN_LOG = [
        "0x1.ffffffffffffep-2", "0x1.7fffffffffffep-1", "0x1.bfffffffffffdp-1",
        "0x1.dfffffffffffdp-1", "0x1.efffffffffffdp-1", "0x1.f7ffffffffffdp-1",
        "0x1.fbffffffffffdp-1", "0x1.fdffffffffffdp-1", "0x1.feffffffffffdp-1",
        "0x1.ff7fffffffffdp-1", "0x1.ffbfffffffffdp-1", "0x1.ffdfffffffffdp-1",
        "0x1.ffefffffffffdp-1", "0x1.fff7ffffffffdp-1", "0x1.fffbffffffffdp-1",
        "0x1.fffdffffffffdp-1", "0x1.fffeffffffffdp-1", "0x1.ffff7fffffffdp-1",
        "0x1.ffffbfffffffdp-1", "0x1.ffffdfffffffdp-1", "0x1.ffffefffffffdp-1",
        "0x1.fffff7ffffffdp-1", "0x1.fffffbffffffdp-1", "0x1.fffffdffffffdp-1",
        "0x1.fffffeffffffdp-1", "0x1.ffffff7fffffdp-1", "0x1.ffffffbfffffdp-1",
        "0x1.ffffffdfffffdp-1", "0x1.ffffffefffffdp-1", "0x1.fffffff7ffffdp-1",
    ]
    FAIR_COIN_EXITS = [
        "0x1.ffffffffffffep-2", "0x1.7fffffffffffep-1", "0x1.bfffffffffffep-1",
        "0x1.dfffffffffffdp-1", "0x1.efffffffffffep-1", "0x1.f7ffffffffffdp-1",
        "0x1.fbffffffffffdp-1", "0x1.fdffffffffffdp-1", "0x1.feffffffffffep-1",
        "0x1.ff7fffffffffep-1", "0x1.ffbfffffffffep-1", "0x1.ffdfffffffffdp-1",
        "0x1.ffefffffffffep-1", "0x1.fff7ffffffffep-1", "0x1.fffbffffffffep-1",
        "0x1.fffdffffffffdp-1", "0x1.fffeffffffffdp-1", "0x1.ffff7fffffffdp-1",
        "0x1.ffffbfffffffep-1", "0x1.ffffdfffffffep-1", "0x1.ffffefffffffep-1",
        "0x1.fffff7ffffffep-1", "0x1.fffffbffffffep-1", "0x1.fffffdffffffep-1",
        "0x1.fffffeffffffdp-1", "0x1.ffffff7fffffdp-1", "0x1.ffffffbfffffdp-1",
        "0x1.ffffffdfffffep-1", "0x1.ffffffefffffdp-1", "0x1.fffffff7ffffdp-1",
    ]

    def test_fair_coin_matches_its_recording_bit_for_bit(self):
        log = [float.fromhex(x) for x in self.FAIR_COIN_LOG]
        exits = [float.fromhex(x) for x in self.FAIR_COIN_EXITS]
        prog = parse(TestFairCoinLoop.PROGRAM)
        report = interpret(prog, GROUND)
        assert report.chain_trace_log == log
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 0] = exits[-1]
        assert report.output.matrix.tobytes() == expected.tobytes()
        for n in range(1, 31):
            truncated = interpret(prog, GROUND, FixpointConfig(max_iterations=n))
            assert truncated.residual == 1.0 - exits[n - 1]
            assert abs(truncated.residual - 2.0**-n) <= 2 * np.finfo(float).eps

    def test_run_of_near_unitaries_within_k_tolerances_is_accepted(self):
        prog = parse(f"qubit a; qubit b; {NEAR_RUN}")
        defects = [linalg.max_norm(s.gate.conj().T @ s.gate - np.eye(2)) for s in prog.body]
        assert all(0.85 * linalg.UNITARY_TOL < d < 0.95 * linalg.UNITARY_TOL for d in defects)
        # each accepted factor is applied as its nearest unitary, its polar
        # factor, so the run conserves trace up to rounding
        report = interpret(prog, PartialDensityOperator.ground_state(4))
        assert report.output.trace == pytest.approx(1.0, abs=1e-15)

    def test_run_beyond_k_tolerances_is_rejected(self, monkeypatch):
        # factors with defect 1.2 UNITARY_TOL each, scaled after the
        # per-gate certificate, as no certified gate is: the 5-gate run's
        # product, embedded and leg-wise factors alike, is off by about
        # 6 UNITARY_TOL
        original = gates._gate_block

        def loose(gate):
            return (1.0 + 0.6 * linalg.UNITARY_TOL) * original(gate)

        monkeypatch.setattr(gates, "_gate_block", loose)
        prog = parse("qubit a; qubit b; h a; cnot a b; t b; h b; s a;")
        with pytest.raises(NonUnitaryError, match="run of 5 gates"):
            interpret(prog, PartialDensityOperator.ground_state(4))


class TestGuardPaths:
    """|0>/|1> guards run on index arrays, |+>/|-> guards as |0>/|1> guards
    under H on their qubit; both must match an np.kron reference."""

    N = 3

    def test_guard_maps_match_kron_projection(self):
        rho = sampling.random_pdo(2**self.N, rng_for(21)).matrix
        for ket in "01":
            v = KET_VECTORS[ket]
            for q in range(self.N):
                maps = interpreter._GuardMaps(Guard(q, ket), self.N)
                p = kron_at({q: np.outer(v, v.conj())}, self.N)
                e = np.eye(2**self.N) - p
                # the index arrays are those of the projection's 1s and 0s
                assert np.array_equal(maps.b, np.flatnonzero(np.diag(p) == 1))
                assert np.array_equal(maps.e, np.flatnonzero(np.diag(p) == 0))
                keep = maps.lift(maps.b, maps.compress(maps.b, rho))
                exit = maps.lift(maps.e, maps.compress(maps.e, rho))
                assert linalg.max_norm(keep - p @ rho @ p) <= 1e-12
                assert linalg.max_norm(exit - e @ rho @ e) <= 1e-12
                w = rng_for(22).standard_normal(2 ** (self.N - 1)) + 0j
                x = maps.lift(maps.e, np.outer(w, w.conj()))
                assert linalg.max_norm(e @ x @ e - x) <= 1e-12
                block = maps.compress(maps.e, rho)
                assert np.trace(x @ rho) == pytest.approx(np.vdot(w, block @ w), abs=1e-12)

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


class TestBlockPath:
    """A loop whose body is one gate run runs on the guard's blocks with its
    Kraus pair (M, C); behind an `if` on the loop's guard whose arms are
    equal, the identity on the loop's inputs, the same body runs body steps
    on the same blocks."""

    DECLARATIONS = ("a", "b")
    BODY = (ApplyUnitary("H", (0,)), ApplyUnitary("CNOT", (0, 1)))

    def both_paths(self, guard: Guard, f: PartialDensityOperator, cfg: FixpointConfig):
        blocks = interpret(Program(self.DECLARATIONS, (While(guard, self.BODY),)), f, cfg)
        same = Branch(guard, (), ())
        full = interpret(Program(self.DECLARATIONS, (While(guard, (same,) + self.BODY),)), f, cfg)
        return blocks, full

    def test_every_ket_guard_matches_the_full_path(self):
        f = sampling.random_pdo(4, rng_for(29))
        for ket in KETS:
            for q in range(2):
                blocks, full = self.both_paths(Guard(q, ket), f, FixpointConfig())
                assert blocks.converged and full.converged
                assert blocks.iterations_per_loop == full.iterations_per_loop, (ket, q)
                assert linalg.max_norm(blocks.output.matrix - full.output.matrix) <= 1e-14, (ket, q)
                assert np.allclose(blocks.chain_trace_log, full.chain_trace_log, rtol=0, atol=1e-14)


class TestKrausCertificate:
    """`denote` forms a gate-run loop's body only on its guard's columns, X
    = U B, whose rows are the Kraus pair (M, C): the run's own certificate
    on X, ``max_norm(X+X - I_r) <= k UNITARY_TOL`` for k > 1 gates, is
    ``max_norm(M+M + C+C - I_r)``, and a body of at most one gate is exact
    with no certificate. Its steps then run no per-step check; loops that
    run body steps check no step either, and the output is certified."""

    def test_defect_beyond_tolerance_is_rejected_at_denote(self, monkeypatch, tmp_path, capsys):
        source = "qubit a; qubit b; h a; while a in |1> { h a; cnot a b; }"
        original = interpreter.apply_unitary

        def faulty_apply(gate, *args):
            # defect (1 + 1.1e-10)^2 - 1 = 2.2 UNITARY_TOL, above the 2
            # UNITARY_TOL a 2-gate run is allowed
            u = original(gate, *args)
            return (1.0 + 1.1 * linalg.UNITARY_TOL) * u if gate == "CNOT" else u

        monkeypatch.setattr(interpreter, "apply_unitary", faulty_apply)
        with pytest.raises(NonUnitaryError, match=r"run of 2 gates"):
            denote(parse(source))
        (tmp_path / "prog.qp").write_text(source)
        assert main(["run", str(tmp_path / "prog.qp"), "--max-iter", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "run of 2 gates deviates from unitary" in captured.err

    @pytest.mark.parametrize("ket", ["1", "+"])
    def test_near_unitary_run_is_accepted_in_a_loop_body(self, ket, count_calls):
        # the run of near-unitary inline gates in a loop body, certified
        # within 5 UNITARY_TOL: M+M + C+C = (U B)+ U B is a compression of
        # U+U, so its defect is no larger. Under `|+>` the body is denoted
        # as `h a; NEAR_RUN; h a;`, 7 gates
        prog = parse(f"qubit a; qubit b; h a; while a in |{ket}> {{ {NEAR_RUN} }}")
        with count_calls(interpreter, "_require_unitary") as certified:
            denotation = denote(prog)
        (x, tol, _) = certified[-1]
        assert tol == {"1": 5, "+": 7}[ket] * linalg.UNITARY_TOL
        assert x.shape == (4, 2) and linalg.max_norm(x.conj().T @ x - np.eye(2)) <= tol
        report = denotation.apply(PartialDensityOperator.ground_state(4))
        assert report.converged

    def test_run_on_columns_is_the_products_columns(self):
        # applying a gate on its legs treats each column on its own, so the
        # run on any columns of the identity is those columns of its product,
        # up to rounding: the matrix product's kernel can change with the
        # number of columns. With at most one gate no entry is rounded, and
        # the columns are those of the embedded gate exactly. Named gates (Y,
        # CNOT both ways) and inline matrices, on random column subsets
        rng = rng_for(33)
        for n in range(1, 7):
            eye = np.eye(2**n, dtype=complex)
            for _ in range(8):
                run = []
                for _ in range(rng.integers(0, 7)):
                    k = int(rng.integers(1, min(n, 2) + 1))
                    targets = tuple(int(q) for q in rng.permutation(n)[:k])
                    named = ["CNOT"] if k == 2 else ["Y", "H", "T"]
                    gate = sampling.random_unitary(2**k, rng) if rng.random() < 0.3 else str(rng.choice(named))
                    run.append(ApplyUnitary(gate, targets))
                cols = rng.choice(2**n, size=int(rng.integers(1, 2**n + 1)), replace=False)
                on_columns = interpreter._product(tuple(run), n, eye[:, cols])
                full = interpreter._product(tuple(run), n, eye)
                assert linalg.max_norm(on_columns - full[:, cols]) <= len(run) * np.finfo(float).eps, (n, run)
                lone = run[:1]
                exact = eye if not lone else on_identity(lone[0].gate, lone[0].targets, n)
                assert np.array_equal(interpreter._product(tuple(lone), n, eye[:, cols]), exact[:, cols])

    @pytest.mark.parametrize("body", ["skip;", ""])
    def test_skip_body_is_exact_with_no_certificate(self, body, count_calls):
        # the empty run's X is B itself, columns of the identity: M = I_r
        # and C = 0 exactly, so nothing is certified
        prog = parse(f"qubit a; qubit b; while a in |1> {{ {body} }}")
        with count_calls(interpreter, "_require_unitary") as certified:
            [loop] = denote(prog)._root
        assert certified == []
        assert np.array_equal(loop.m, np.eye(2)) and np.array_equal(loop.c, np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "body",
        ["h a; if b in |0> { x b; } else { skip; }", "while b in |1> { h b; } h a;"],
    )
    def test_body_step_runs_no_eigensolve_a_step(self, body, count_eigensolves):
        prog = parse(f"qubit a; qubit b; h a; h b; while a in |1> {{ {body} }}")
        ground = PartialDensityOperator.ground_state(4)
        with count_eigensolves() as sizes:
            report = interpret(prog, ground)
        # neither the outer body-step loop nor an inner gate-run loop checks
        # a step; the output's certificate is the one eigensolve
        assert report.iterations_per_loop[-1] > 1
        assert sizes == [4]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), data=st.data())
    def test_block_steps_conserve_trace(self, n, data):
        names = sorted(g for g in GATES if n >= 2 or g != "CNOT")
        run = []
        for _ in range(data.draw(st.integers(1, 5))):
            gate = data.draw(st.sampled_from(names))
            k = 2 if gate == "CNOT" else 1
            run.append(ApplyUnitary(gate, tuple(data.draw(st.permutations(range(n)))[:k])))
        qubit = data.draw(st.integers(0, n - 1))
        f = sampling.random_pdo(2**n, np.random.default_rng([17, 32, data.draw(st.integers(0, 2**16))]))
        for ket in KETS:
            prog = Program(tuple(f"q{i}" for i in range(n)), (While(Guard(qubit, ket), tuple(run)),))
            root = denote(prog)._root
            # a |+>/|-> loop's input is first rotated by the H before it
            [loop] = tree_loops(root)
            rho = f.matrix if root[0] is loop else root[0](f.matrix, None, [])
            m, c, maps = loop.m, loop.c, loop.guard
            assert linalg.max_norm(m.conj().T @ m + c.conj().T @ c - np.eye(m.shape[1])) < 1e-14, ket
            assert np.array_equal(loop.gram, c.conj().T @ c)
            # a block step's trace gap is Re<C+C, s>, the trace of its exit C s C+
            s = maps.compress(maps.b, rho)
            exited = np.trace(maps.compress(maps.e, rho)).real
            for _ in range(30):
                exited += np.vdot(loop.gram, s).real
                s = m @ s @ loop.m_adj
            assert abs(np.trace(s).real + exited - f.trace) <= 1e-12, ket


class TestBodyStep:
    """Under a `|0>`/`|1>` guard a loop whose body holds an `if` or a `while`
    runs body steps on index blocks, an exact gather and scatter:
    with lone gates, so that no product is formed, it equals the full-matrix
    reference bit for bit. An `if` whose arms are equal parts gates that
    would otherwise fuse. A block loop in the body forms its exit block
    once, where the reference adds each step's exit, so that run is
    compared within ``KLEENE_TOL``."""

    @pytest.mark.parametrize(
        "source",
        [
            f"h a; if b in |0> {{ }} else {{ }} h b; while a in |1> {{ {BODY_STEP_H} }}",
            "h a; if b in |0> { } else { } h b; while a in |1> { h a; if b in |0> { x b; } else { skip; } }",
            "h a; if b in |0> { } else { } h b; while a in |1> { while b in |1> { h b; } h a; }",
            "h b; while a in |0> { if a in |0> { } else { } }",
        ],
    )
    def test_masked_guards_match_the_full_matrix_reference_exactly(self, source):
        prog = parse(f"qubit a; qubit b; {source}")
        denotation = denote(prog)
        assert denotation._root[-1].m is None
        exact = all(loop.m is None for loop in tree_loops(denotation._root))
        for seed in range(20):
            f = sampling.random_pdo(4, np.random.default_rng([17, 31, seed]))
            report = denotation.apply(f)
            counts = report.iterations_per_loop
            # `unfused` takes the outer loop's count before those of the
            # loops in its body, which complete first
            reference = unfused(prog.body, f.matrix, 2, iter(counts[-1:] + counts[:-1]))
            if exact:
                assert np.array_equal(report.output.matrix, reference), seed
            else:
                assert linalg.max_norm(report.output.matrix - reference) <= KLEENE_TOL, seed


def clongdouble_run(root, rho: np.ndarray, counts) -> tuple[np.ndarray, list]:
    """Reference run of a denoted block of gate runs and block loops in
    np.clongdouble, on the nodes' own float64 U, M and C: each loop runs
    ``next(counts)`` steps of its chain a_{n+1} = a_n + C s_n C+, s_{n+1} =
    M s_n M+. Returns the output and the last loop's traces tr a_0 .. tr a_n."""
    x = rho.astype(np.clongdouble)
    traces = []
    for node in root:
        if isinstance(node, interpreter._Gates):
            u = node.u.astype(np.clongdouble)
            x = u @ x @ u.conj().T
            continue
        assert node.m is not None
        b, e = node.guard.b, node.guard.e
        m, c = node.m.astype(np.clongdouble), node.c.astype(np.clongdouble)
        a, s = x[e[:, None], e], x[b[:, None], b]
        traces = [a.trace().real]
        for _ in range(next(counts)):
            a = a + c @ s @ c.conj().T
            s = m @ s @ m.conj().T
            traces.append(a.trace().real)
        x = np.zeros_like(x)
        x[e[:, None], e] = a
    return x, traces


def verify_trial(t: int):
    """Trial ``[42, 0, t]`` of ``verify qlang``: its program and input state."""
    rng = np.random.default_rng([42, 0, t])
    prog = random_program(int(rng.integers(1, 3)), rng)
    return prog, sampling.random_pdo(prog.dim, rng)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="np.longdouble is float64 on this platform"
)
class TestExtendedPrecisionChain:
    """Block loops against their Kleene chain run in extended precision: the
    output and the chain trace log lie within ``KLEENE_TOL`` of it."""

    def check(self, prog: Program, rho: PartialDensityOperator, cfg: FixpointConfig):
        denotation = denote(prog)
        report = denotation.apply(rho, cfg)
        reference, traces = clongdouble_run(denotation._root, rho.matrix, iter(report.iterations_per_loop))
        assert len(report.chain_trace_log) == len(traces)
        assert np.abs(report.output.matrix - reference).max() <= KLEENE_TOL
        assert max(abs(np.longdouble(t) - ref) for t, ref in zip(report.chain_trace_log, traces)) <= KLEENE_TOL
        return report

    @pytest.mark.parametrize("max_iterations", [*range(1, 31), None])
    def test_fair_coin(self, max_iterations):
        cfg = FixpointConfig() if max_iterations is None else FixpointConfig(max_iterations=max_iterations)
        self.check(parse(TestFairCoinLoop.PROGRAM), GROUND, cfg)

    @pytest.mark.parametrize("cfg", [FixpointConfig(), FixpointConfig(max_iterations=60, trace_tol=1e-300)])
    def test_six_qubit_program(self, cfg):
        report = self.check(parse(ROADMAP_6Q), PartialDensityOperator.ground_state(64), cfg)
        assert report.iterations_per_loop == ([29] if cfg.max_iterations > 60 else [53])

    # trials whose loops are top-level block loops, on 1 and 2 qubits, with
    # complex and real Kraus pairs, one of them cut at verify's 60 steps
    @pytest.mark.parametrize("t", [1, 17, 36, 92])
    def test_verify_block_loops(self, t):
        prog, rho = verify_trial(t)
        report = self.check(prog, rho, FixpointConfig(max_iterations=60))
        assert report.iterations_per_loop[-1] > 20


class TestStalledLoop:
    """Trial ``[42, 0, 27]`` of ``verify qlang`` at its defaults: the loop
    ``while q1 in |+> { skip; cnot q1 q0; t q0; }`` exits no mass on its
    first step, so the trace-gap rule stops it there, far below its limit.
    Its ``skip`` is dropped, so the body is a gate run on the guard's blocks."""

    @staticmethod
    def trial():
        return verify_trial(27)

    @staticmethod
    def limit(prog, rho) -> float:
        return float(np.trace(unfused(prog.body, rho.matrix, prog.total_qubits, repeat(400))).real)

    def test_loop_runs_on_blocks(self):
        prog, _ = self.trial()
        loops = tree_loops(denote(prog)._root)
        assert loops and all(loop.m is not None and loop.m.shape == (2, 2) for loop in loops)

    def test_limit_of_the_reference(self):
        prog, rho = self.trial()
        limit = self.limit(prog, rho)
        assert limit == pytest.approx(0.42473, abs=1e-5)
        longer = np.trace(unfused(prog.body, rho.matrix, prog.total_qubits, repeat(800))).real
        assert abs(longer - limit) <= 1e-12

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_converged_run_reaches_the_limit(self):
        prog, rho = self.trial()
        cfg = FixpointConfig()
        report = interpret(prog, rho, cfg)
        assert report.output.trace >= self.limit(prog, rho) - cfg.trace_tol


def guards(block):
    """Every guard of a block, at every depth."""
    for stmt in block:
        if isinstance(stmt, Branch):
            yield stmt.guard
            yield from guards(stmt.then_body + stmt.else_body)
        elif isinstance(stmt, While):
            yield stmt.guard
            yield from guards(stmt.body)


class TestZBasis:
    """``z_basis`` is the one guard normal form: ``denote`` runs it once, and
    then reads only ``|0>``/``|1>`` guards."""

    NESTED_Z = (
        "qubit a; qubit b; h b; h a; while a in |0> { h a; t a; h a; h b; "
        "while b in |1> { h b; t b; h b; h b; } h b; s b; h a; } h a;"
    )

    def test_nested_program_is_its_hand_written_form(self):
        prog = parse(TestOneKleeneLoop.NESTED)
        assert z_basis(prog.body, 2) == parse(self.NESTED_Z).body

    def test_verify_programs_keep_no_plus_or_minus_guard_at_any_depth(self):
        rewritten = 0
        for t in range(200):
            prog, _ = verify_trial(t)
            normal = z_basis(prog.body, prog.total_qubits)
            assert {g.ket for g in guards(normal)} <= {"0", "1"}, t
            assert z_basis(normal, prog.total_qubits) == normal, t
            rewritten += normal != prog.body
        assert rewritten > 50

    def test_denote_of_the_normal_form_gives_the_same_run(self):
        cfg = FixpointConfig(max_iterations=60)
        for t in range(200):
            prog, rho = verify_trial(t)
            normal = Program(prog.declarations, z_basis(prog.body, prog.total_qubits))
            first, second = denote(prog).apply(rho, cfg), denote(normal).apply(rho, cfg)
            assert first.output.matrix.tobytes() == second.output.matrix.tobytes(), t
            assert first.chain_trace_log == second.chain_trace_log, t

    def test_denote_runs_the_pass_once(self, count_calls):
        with count_calls(interpreter, "z_basis") as calls:
            denote(parse(TestOneKleeneLoop.NESTED))
        assert len(calls) == 1

    def test_a_nested_guard_out_of_range_is_reported_before_a_bad_gate(self):
        bad_gate = ApplyUnitary(np.array([[1.0, 1.0], [0.0, 1.0]]), (0,))
        prog = Program(("q",), (bad_gate, Branch(Guard(0, "1"), (), (While(Guard(1, "+"), ()),))))
        with pytest.raises(ValueError, match="guard qubit 1 out of range for 1 qubit"):
            denote(prog)
