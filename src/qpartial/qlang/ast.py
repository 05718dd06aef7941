"""Abstract syntax of the while-language.

A guard is stored as written, ``Guard(qubit, ket)``. Statement nodes are
immutable. A block is the tuple of statements it runs, in order: ``skip``
is the identity and sequencing is associative, so neither has a node of
its own, and an empty block is ``skip``. A Program is its register names,
one qubit each, plus its top-level block.

``z_basis`` is the one normal form of guards: it rewrites every ``|+>``/
``|->`` guard, at every depth, into its ``|0>``/``|1>`` form under H.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_QUBITS = 6
# the guard kets, in the order random programs draw them
KETS = ("0", "1", "+", "-")


@dataclass(frozen=True)
class Guard:
    """The event ``qubit in |ket>``, for a ket 0, 1, + or -."""

    qubit: int
    ket: str

    def __post_init__(self):
        if self.ket not in KETS:
            raise ValueError(f"unknown ket {self.ket!r}; choose from {', '.join(KETS)}")


@dataclass(frozen=True)
class ApplyUnitary:
    """Apply a named gate or an inline unitary matrix to target qubits."""

    gate: object  # a gate name, or a 2^k x 2^k matrix such as a numpy array
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


def z_basis(block: Block, total_qubits: int) -> Block:
    """``block`` with every guard in ``|0>``/``|1>`` form, at every depth. A
    guard ``q in |+->`` is the ``|0>``/``|1>`` guard under H on q, as
    ``P+- = H P0/1 H``:

        if q in |+-> { A } else { B }  ->  h q; if q in |0/1> { h q; A } else { h q; B }
        while q in |+-> { S }          ->  h q; while q in |0/1> { h q; S; h q; } h q;

    Every guard's qubit is checked, so an error names the guard. Anything
    else in a block is kept as it is."""
    out = []
    for stmt in block:
        if not isinstance(stmt, (Branch, While)):
            out.append(stmt)
            continue
        q = stmt.guard.qubit
        if not 0 <= q < total_qubits:
            raise ValueError(f"guard qubit {q} out of range for {total_qubits} qubit(s)")
        ket = {"+": "0", "-": "1"}.get(stmt.guard.ket)
        h = (ApplyUnitary("H", (q,)),) if ket else ()
        guard = Guard(q, ket) if ket else stmt.guard
        if isinstance(stmt, Branch):
            then_body, else_body = (h + z_basis(b, total_qubits) for b in (stmt.then_body, stmt.else_body))
            out += [*h, Branch(guard, then_body, else_body)]
        else:
            out += [*h, While(guard, h + z_basis(stmt.body, total_qubits) + h), *h]
    return tuple(out)
