"""Abstract syntax of the while-language.

Guards are resolved to full-dimension closed subspaces at parse time, so
the interpreter never needs the register table. Statement nodes are
immutable; a Program is a declaration list plus one body statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..logic import ClosedSubspace

MAX_QUBITS = 6


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Seq:
    statements: tuple["Statement", ...]


@dataclass(frozen=True)
class ApplyUnitary:
    """Apply a named gate or an inline unitary matrix to target qubits."""

    gate: "str | np.ndarray"
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Branch:
    guard: ClosedSubspace
    then_body: "Statement"
    else_body: "Statement"


@dataclass(frozen=True)
class While:
    guard: ClosedSubspace
    body: "Statement"


Statement = Union[Skip, Seq, ApplyUnitary, Branch, While]


def to_body(statements: Sequence[Statement]) -> Statement:
    """The one block constructor: ``Skip`` for no statements, a lone
    statement as it is, else their ``Seq``."""
    if not statements:
        return Skip()
    return statements[0] if len(statements) == 1 else Seq(tuple(statements))


@dataclass(frozen=True)
class Program:
    declarations: tuple[tuple[str, int], ...]
    body: Statement

    def __post_init__(self):
        names = [name for name, _ in self.declarations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(f"{self.total_qubits} qubits exceed the cap of {MAX_QUBITS}")

    @property
    def total_qubits(self) -> int:
        return sum(size for _, size in self.declarations)

    @property
    def dim(self) -> int:
        return 2**self.total_qubits
