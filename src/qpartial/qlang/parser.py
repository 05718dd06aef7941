"""Recursive-descent parser for the while-language.

Grammar (whitespace-insensitive, ``#`` starts a comment):

    program := decl* stmt*
    decl    := "qubit" IDENT ";"
    stmt    := "skip" ";"
             | GATE IDENT+ ";"
             | MATRIX IDENT+ ";"
             | "if" guard "{" stmt* "}" "else" "{" stmt* "}"
             | "while" guard "{" stmt* "}"
    guard   := IDENT "in" KET          KET in { |0> , |1> , |+> , |-> }
    MATRIX  := "[" row ("," row)* "]"  row := "[" entry ("," entry)* "]"

Matrix entries are complex literals such as ``1``, ``-0.5``, ``1i`` or
``0.5-0.5i``. Gate names are case-insensitive. Every register is one
qubit; qubit indices follow declaration order.

The parser emits the normal form: a program and each ``{ ... }`` are the
tuple of the statements they run, and ``skip;``, the identity, parses to
no statement, so ``{ skip; }`` is the empty block ``()``. A guard ``q in
|+>`` parses to ``Guard(index of q, "+")``.

Tokens carry their offset into the source. A ``ParseError`` reports the
1-based line and column of its offset: a line starts after each ``\\n``,
and every other character, a tab or a ``\\r`` too, is one column.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ParseError
from .ast import KETS, MAX_QUBITS, ApplyUnitary, Block, Branch, Guard, Program, Statement, While
from .gates import GATES, gate_arity

_KEYWORDS = {"qubit", "skip", "if", "else", "while", "in"}

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|\#[^\n]*)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ket>\|[^>\n]*>)
  | (?P<sym>[;{}\[\],+-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``text[offset]``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "skip":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", *_position(text, m.start()))
        if kind == "sym" or (kind == "ident" and lexeme in _KEYWORDS):
            kind = lexeme
        tokens.append(Token(kind, lexeme, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.registers: dict[str, int] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok.offset))

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}, got {tok.text!r}" if tok.text else f"expected {what}")
        return self.advance()

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.peek().kind == kind:
            self.advance()
            return True
        return False

    # ---- grammar ----

    def program(self) -> Program:
        while self.accept("qubit"):
            name_tok = self.expect("ident", "register name")
            if name_tok.text in self.registers:
                self.error(f"duplicate register {name_tok.text!r}", name_tok)
            if len(self.registers) >= MAX_QUBITS:
                self.error(f"dimension overflow: more than {MAX_QUBITS} qubits", name_tok)
            self.registers[name_tok.text] = len(self.registers)
            self.expect(";", "';'")
        return Program(declarations=tuple(self.registers), body=self.block("eof"))

    def block(self, end: str) -> Block:
        """The statements up to the ``end`` token, which is consumed, with
        every ``skip`` dropped."""
        statements = []
        while self.peek().kind != end:
            if self.peek().kind == "eof":
                self.error("unterminated block")
            stmt = self.statement()
            if stmt is not None:
                statements.append(stmt)
        self.advance()
        return tuple(statements)

    def statement(self) -> Statement | None:
        """One statement, or None for ``skip``."""
        if self.accept("skip"):
            self.expect(";", "';'")
            return None
        if self.accept("if"):
            guard = self.guard()
            self.expect("{", "'{'")
            then_body = self.block("}")
            if not self.accept("else"):
                self.error("expected 'else'")
            self.expect("{", "'{'")
            else_body = self.block("}")
            return Branch(guard, then_body, else_body)
        if self.accept("while"):
            guard = self.guard()
            self.expect("{", "'{'")
            return While(guard, self.block("}"))
        tok = self.peek()
        if tok.kind == "[":
            matrix, k = self.matrix_literal()
            targets = self.targets(expected=k, what="inline matrix")
            self.expect(";", "';'")
            return ApplyUnitary(matrix, targets)
        if tok.kind == "ident":
            gate_tok = self.advance()
            name = gate_tok.text.upper()
            if name not in GATES:
                self.error(f"unknown gate {gate_tok.text!r}", gate_tok)
            targets = self.targets(expected=gate_arity(name), what=f"gate {name}")
            self.expect(";", "';'")
            return ApplyUnitary(name, targets)
        self.error(f"expected a statement, got {tok.text!r}" if tok.text else "expected a statement")

    def guard(self) -> Guard:
        reg_tok = self.expect("ident", "register name")
        qubit = self.register_index(reg_tok)
        if not self.accept("in"):
            self.error("expected 'in'")
        ket_tok = self.expect("ket", "a ket such as |0>")
        label = ket_tok.text[1:-1]
        if label not in KETS:
            self.error(f"unknown ket {ket_tok.text!r}", ket_tok)
        return Guard(qubit, label)

    def targets(self, expected: int, what: str) -> tuple[int, ...]:
        targets = []
        while self.peek().kind == "ident":
            targets.append(self.register_index(self.advance()))
        if not targets:
            self.error("expected at least one target register")
        if len(targets) != expected:
            self.error(f"{what} expects {expected} target(s), got {len(targets)}")
        if len(set(targets)) != len(targets):
            self.error("duplicate target register")
        return tuple(targets)

    def register_index(self, tok: Token) -> int:
        if tok.text not in self.registers:
            self.error(f"unknown register {tok.text!r}", tok)
        return self.registers[tok.text]

    def matrix_literal(self) -> tuple[np.ndarray, int]:
        open_tok = self.peek()
        rows = self.bracketed(lambda: self.bracketed(self.complex_literal))
        n = len(rows)
        if any(len(row) != n for row in rows):
            self.error(f"matrix must be square, got {n} row(s)", open_tok)
        k = n.bit_length() - 1
        if n < 2 or 2**k != n:
            self.error(f"matrix dimension {n} is not a power of two >= 2", open_tok)
        return np.array(rows, dtype=complex), k

    def bracketed(self, item: Callable[[], object]) -> list:
        """``"[" item ("," item)* "]"``, as the list of its items."""
        self.expect("[", "'['")
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect("]", "']'")
        return items

    def complex_literal(self) -> complex:
        """A sum of signed terms; the first term's sign is optional."""
        value = self.signed_term()
        while self.peek().kind in ("+", "-"):
            value += self.signed_term()
        return value

    def signed_term(self) -> complex:
        sign = 1.0
        if self.peek().kind in ("+", "-"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
        tok = self.expect("number", "a number")
        return sign * _number_value(tok)


def _number_value(tok: Token) -> complex:
    text = tok.text
    if text.endswith("i"):
        return 1j * float(text[:-1])
    return complex(float(text))


def parse(text: str) -> Program:
    """Parse source text into a Program, raising ParseError with position."""
    return _Parser(text).program()
