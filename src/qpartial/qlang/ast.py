"""Abstract syntax of the while-language.

A guard is stored as written, ``Guard(qubit, ket)``. Statement nodes are
immutable. A block is the tuple of statements it runs, in order: ``skip``
is the identity and sequencing is associative, so neither has a node of
its own, and an empty block is ``skip``. A Program is its register names,
one qubit each, plus its top-level block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import KET_VECTORS

MAX_QUBITS = 6


@dataclass(frozen=True)
class Guard:
    """The event ``qubit in |ket>``, for a ket 0, 1, + or -."""

    qubit: int
    ket: str

    def __post_init__(self):
        if self.ket not in KET_VECTORS:
            raise ValueError(f"unknown ket {self.ket!r}; choose from {', '.join(KET_VECTORS)}")


@dataclass(frozen=True)
class ApplyUnitary:
    """Apply a named gate or an inline unitary matrix to target qubits."""

    gate: "str | np.ndarray"
    targets: tuple[int, ...]


@dataclass(frozen=True)
class Branch:
    guard: Guard
    then_body: "Block"
    else_body: "Block"


@dataclass(frozen=True)
class While:
    guard: Guard
    body: "Block"


Statement = ApplyUnitary | Branch | While
Block = tuple[Statement, ...]


@dataclass(frozen=True)
class Program:
    declarations: tuple[str, ...]
    body: Block

    def __post_init__(self):
        if len(set(self.declarations)) != len(self.declarations):
            raise ValueError("duplicate register names")
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(f"{self.total_qubits} qubits exceed the cap of {MAX_QUBITS}")

    @property
    def total_qubits(self) -> int:
        return len(self.declarations)

    @property
    def dim(self) -> int:
        return 2**self.total_qubits
