"""Reference results computed with plain numpy, independent of qpartial.

Nothing here imports qpartial. The eigensolver is bound at import time,
before the traced run wraps ``numpy.linalg``, so reference work is never
counted as program work.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np
from numpy.linalg import eigvalsh

QUBITS = "abcdef"
DIM = 2 ** len(QUBITS)

_I2 = np.eye(2, dtype=complex)
_P0 = np.diag([1.0, 0.0]).astype(complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
ONE_QUBIT = {
    "x": _X,
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1.0, -1.0]).astype(complex),
    "h": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0),
    "s": np.diag([1.0, 1j]),
    "t": np.diag([1.0, np.exp(1j * math.pi / 4)]),
}


def _kron_at(factors: dict[int, np.ndarray]) -> np.ndarray:
    """Tensor product over all qubits; qubit 0 is the leftmost factor."""
    return reduce(np.kron, [factors.get(q, _I2) for q in range(len(QUBITS))])


def gate_unitary(statement: tuple[str, ...]) -> np.ndarray:
    """Full-register unitary of ``("h", "a")`` or ``("cnot", "a", "b")``."""
    name, *targets = statement
    qubits = [QUBITS.index(t) for t in targets]
    if name == "cnot":
        control, target = qubits
        return _kron_at({control: _P0}) + _kron_at({control: _P1, target: _X})
    return _kron_at({qubits[0]: ONE_QUBIT[name]})


def sequence_unitary(statements) -> np.ndarray:
    u = np.eye(DIM, dtype=complex)
    for statement in statements:
        u = gate_unitary(statement) @ u
    return u


def loop_limit(prefix, body, guard_qubit: str, remaining_tol: float = 1e-15) -> np.ndarray:
    """Exact-to-``remaining_tol`` output of ``prefix; while q in |1> { body }``.

    Starts from the ground state and iterates the Kleene approximants
    ``acc += E s E``, ``s = B (P s P) B+`` until the still-looping trace
    ``tr(s)`` is below ``remaining_tol``; ``acc`` is then within that
    trace of the supremum.
    """
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = 1.0
    u = sequence_unitary(prefix)
    sigma = u @ rho @ u.conj().T
    b = sequence_unitary(body)
    guard = np.real(np.diag(_kron_at({QUBITS.index(guard_qubit): _P1})))
    loop_mask = np.outer(guard, guard)
    exit_mask = np.outer(1.0 - guard, 1.0 - guard)
    acc = np.zeros_like(sigma)
    for _ in range(10_000):
        acc = acc + exit_mask * sigma
        sigma = b @ (loop_mask * sigma) @ b.conj().T
        if np.trace(sigma).real < remaining_tol:
            return acc
    raise ArithmeticError("reference loop did not terminate")


def expectation_interval(a: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """``tr(A f) + (1 - tr f) * [lambda_min, lambda_max]`` as ``(lo, hi)``."""
    eigs = eigvalsh(a)
    observed = float(np.sum(a * f.T).real)
    missing = 1.0 - float(np.trace(f).real)
    return observed + missing * float(eigs[0]), observed + missing * float(eigs[-1])
