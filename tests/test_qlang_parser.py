import numpy as np
import pytest

from qpartial.errors import ParseError
from qpartial.qlang import parse
from qpartial.qlang.ast import ApplyUnitary, Branch, Guard, Program, While


def test_single_gate_program():
    prog = parse("qubit q; x q;")
    assert prog.declarations == ("q",)
    assert prog.body == (ApplyUnitary("X", (0,)),)


def test_while_with_guard():
    prog = parse("qubit q; while q in |1> { h q; }")
    [loop] = prog.body
    assert isinstance(loop, While)
    assert loop.guard == Guard(0, "1")
    assert loop.body == (ApplyUnitary("H", (0,)),)


def test_if_else():
    prog = parse("qubit q; if q in |0> { x q; } else { skip; }")
    [branch] = prog.body
    assert isinstance(branch, Branch)
    assert branch.guard == Guard(0, "0")
    assert branch.then_body == (ApplyUnitary("X", (0,)),)
    assert branch.else_body == ()


def test_plus_minus_guards():
    assert parse("qubit q; while q in |+> { skip; }").body[0].guard == Guard(0, "+")
    assert parse("qubit q; while q in |-> { skip; }").body[0].guard == Guard(0, "-")


def test_sequence_and_comments():
    prog = parse(
        """
        # two-qubit demo
        qubit a;
        qubit b;
        h a;       # create superposition
        cnot a b;
        """
    )
    assert (prog.declarations, prog.total_qubits, prog.dim) == (("a", "b"), 2, 4)
    assert prog.body == (ApplyUnitary("H", (0,)), ApplyUnitary("CNOT", (0, 1)))


def test_empty_program_is_the_empty_block():
    assert parse("qubit q;").body == ()


def test_blocks_are_flat_tuples_without_skip():
    # `skip` parses to no statement, so a `skip`-only block and an empty
    # block are both `()`; nesting appears only through `if` and `while`
    prog = parse("qubit q; while q in |0> { } if q in |0> { skip; x q; } else { skip; }")
    loop, branch = prog.body
    assert loop.body == ()
    assert branch.then_body == (ApplyUnitary("X", (0,)),)
    assert branch.else_body == ()


class TestSkipParsesAway:
    """``skip`` is the identity: a source with it parses to the same Program
    as the source without it."""

    PAIRS = {
        "top_level": ("qubit q; skip; h q; skip;", "qubit q; h q;"),
        "inside_a_block": (
            "qubit a; qubit b; h b; while a in |+> { skip; t a; h a; skip; cnot a b; }",
            "qubit a; qubit b; h b; while a in |+> { t a; h a; cnot a b; }",
        ),
        "whole_block": (
            "qubit q; if q in |0> { skip; } else { skip; skip; x q; }",
            "qubit q; if q in |0> { } else { x q; }",
        ),
        "whole_program": ("qubit q; skip; skip;", "qubit q;"),
    }

    @pytest.mark.parametrize("case", sorted(PAIRS))
    def test_same_program(self, case):
        with_skip, without = self.PAIRS[case]
        assert parse(with_skip) == parse(without)


def test_program_rejects_duplicate_register_names():
    with pytest.raises(ValueError, match="duplicate"):
        Program(("q", "q"), ())


def test_guard_is_its_qubit_and_ket():
    # the register's index, in declaration order, and the ket's label; the
    # parser builds no d x d projection
    prog = parse("qubit a; qubit b; while b in |1> { x a; } if a in |-> { } else { }")
    assert [stmt.guard for stmt in prog.body] == [Guard(1, "1"), Guard(0, "-")]


def test_inline_matrix_statement():
    prog = parse("qubit q; [[0, 1], [1, 0]] q;")
    [stmt] = prog.body
    assert isinstance(stmt, ApplyUnitary)
    assert np.allclose(stmt.gate, np.array([[0, 1], [1, 0]]))


def test_inline_matrix_complex_entries():
    prog = parse("qubit q; [[0, -1i], [1i, 0]] q;")
    assert np.allclose(prog.body[0].gate, np.array([[0, -1j], [1j, 0]]))
    prog = parse("qubit q; [[0.5+0.5i, 0.5-0.5i], [0.5-0.5i, 0.5+0.5i]] q;")
    assert prog.body[0].gate[0, 0] == pytest.approx(0.5 + 0.5j)


class TestErrors:
    def check(self, source, fragment, line=None):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert fragment in str(err.value)
        if line is not None:
            assert err.value.line == line

    def test_unknown_register(self):
        self.check("qubit q; y r;", "unknown register 'r'")

    def test_unknown_gate(self):
        self.check("qubit q; foo q;", "unknown gate 'foo'")

    def test_missing_semicolon(self):
        self.check("qubit q; x q", "expected")

    def test_duplicate_register(self):
        self.check("qubit q; qubit q;", "duplicate register")

    def test_dimension_overflow(self):
        decls = "".join(f"qubit q{i}; " for i in range(7))
        self.check(decls + "skip;", "dimension overflow")

    def test_unknown_ket(self):
        self.check("qubit q; while q in |2> { skip; }", "unknown ket")

    def test_gate_arity(self):
        self.check("qubit a; qubit b; x a b;", "expects 1 target")
        self.check("qubit a; cnot a;", "expects 2 target")

    def test_duplicate_targets(self):
        self.check("qubit a; qubit b; cnot a a;", "duplicate target")

    def test_matrix_not_square(self):
        self.check("qubit q; [[0, 1]] q;", "square")

    def test_matrix_bad_dimension(self):
        self.check("qubit q; [[1, 0, 0], [0, 1, 0], [0, 0, 1]] q;", "power of two")

    def test_matrix_target_count(self):
        self.check("qubit q; [[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]] q;", "expects 2 target")

    def test_missing_else(self):
        self.check("qubit q; if q in |0> { skip; }", "expected 'else'")

    def test_position_reported(self):
        self.check("qubit q;\nx q\nskip;", "expected", line=3)

    def test_stray_character(self):
        self.check("qubit q; x q; @", "unexpected character")

    def test_unterminated_block(self):
        self.check("qubit q; while q in |0> { skip;", "unterminated block")

    # positions are 1-based; a line starts after "\n", and a tab or "\r" is one column
    POSITIONS = [
        ("qubit q;\r\n\tx q;\n\tfoo q;\n", "3:2: unknown gate 'foo'"),
        ("qubit q; # note\n  x q;\n  while q in |1> { x q; @ }", "3:25: unexpected character '@'"),
        ("qubit q;\nx q", "2:4: expected ';'"),
        ("qubit q;\n\twhile q in |2> { }", "2:13: unknown ket '|2>'"),
        ("qubit a;\r\ncnot a;", "2:7: gate CNOT expects 2 target(s), got 1"),
    ]

    @pytest.mark.parametrize("source, message", POSITIONS)
    def test_error_position(self, source, message):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == message
        assert message.startswith(f"{err.value.line}:{err.value.column}: ")
