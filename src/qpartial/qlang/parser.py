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
no statement, so ``{ skip; }`` is the empty block ``()``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..errors import ParseError
from ..logic import ClosedSubspace
from .ast import MAX_QUBITS, ApplyUnitary, Block, Branch, Program, Statement, While
from .gates import GATES, KET_VECTORS, gate_arity, ket_guard_projection

_KEYWORDS = {"qubit", "skip", "if", "else", "while", "in"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?i?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ket>\|[^>\n]*>)
  | (?P<sym>[;{}\[\],+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "ident" and lexeme in _KEYWORDS:
                kind = "keyword"
            elif kind == "sym":
                kind = lexeme
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
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
        raise ParseError(message, tok.line, tok.column)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}, got {tok.text!r}" if tok.text else f"expected {what}")
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == word:
            self.advance()
            return True
        return False

    # ---- grammar ----

    def program(self) -> Program:
        while self.accept_keyword("qubit"):
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
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == "skip":
            self.advance()
            self.expect(";", "';'")
            return None
        if tok.kind == "keyword" and tok.text == "if":
            self.advance()
            guard = self.guard()
            self.expect("{", "'{'")
            then_body = self.block("}")
            if not self.accept_keyword("else"):
                self.error("expected 'else'")
            self.expect("{", "'{'")
            else_body = self.block("}")
            return Branch(guard, then_body, else_body)
        if tok.kind == "keyword" and tok.text == "while":
            self.advance()
            guard = self.guard()
            self.expect("{", "'{'")
            return While(guard, self.block("}"))
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

    def guard(self) -> ClosedSubspace:
        reg_tok = self.expect("ident", "register name")
        qubit = self.register_index(reg_tok)
        if not self.accept_keyword("in"):
            self.error("expected 'in'")
        ket_tok = self.expect("ket", "a ket such as |0>")
        label = ket_tok.text[1:-1]
        if label not in KET_VECTORS:
            self.error(f"unknown ket {ket_tok.text!r}", ket_tok)
        return ClosedSubspace(ket_guard_projection(label, qubit, len(self.registers)))

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
        open_tok = self.expect("[", "'['")
        rows = [self.matrix_row()]
        while self.peek().kind == ",":
            self.advance()
            rows.append(self.matrix_row())
        self.expect("]", "']'")
        n = len(rows)
        if any(len(row) != n for row in rows):
            self.error(f"matrix must be square, got {n} row(s)", open_tok)
        k = n.bit_length() - 1
        if n < 2 or 2**k != n:
            self.error(f"matrix dimension {n} is not a power of two >= 2", open_tok)
        return np.array(rows, dtype=complex), k

    def matrix_row(self) -> list[complex]:
        self.expect("[", "'['")
        entries = [self.complex_literal()]
        while self.peek().kind == ",":
            self.advance()
            entries.append(self.complex_literal())
        self.expect("]", "']'")
        return entries

    def complex_literal(self) -> complex:
        value = self.signed_term()
        while self.peek().kind in ("+", "-"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
            tok = self.expect("number", "a number")
            value += sign * _number_value(tok)
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
