"""Gate library and embedding of small unitaries into the full register.

Qubit 0 is the leftmost tensor factor (most significant bit of a basis
index). ``embed_operator`` places a 2^k x 2^k block on arbitrary,
possibly non-adjacent target qubits; ``denote_unitary`` additionally
certifies unitarity.
"""

from __future__ import annotations

import math

import numpy as np

from .. import linalg
from ..errors import DimensionMismatchError, NonUnitaryError

_SQRT2 = math.sqrt(2.0)

GATES: dict[str, np.ndarray] = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}

KET_VECTORS: dict[str, np.ndarray] = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / _SQRT2,
    "-": np.array([1, -1], dtype=complex) / _SQRT2,
}


def gate_arity(name: str) -> int:
    return int(math.log2(GATES[name].shape[0]))


def embed_operator(block, targets, total_qubits: int) -> np.ndarray:
    """Place a 2^k x 2^k operator on the given k target qubits.

    Works for any matrix (projectors included), not only unitaries.
    """
    block = linalg.as_matrix(block)
    k = len(targets)
    if block.shape[0] != 2**k:
        raise DimensionMismatchError(
            f"operator of dimension {block.shape[0]} does not act on {k} qubit(s)"
        )
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    for q in targets:
        if not 0 <= q < total_qubits:
            raise ValueError(f"target qubit {q} out of range for {total_qubits} qubit(s)")
    rest = [q for q in range(total_qubits) if q not in targets]
    # Row/column index of (rest setting i, target setting j): disjoint bits.
    idx = _bit_offsets(rest, total_qubits)[:, None] | _bit_offsets(targets, total_qubits)[None, :]
    full = np.zeros((2**total_qubits, 2**total_qubits), dtype=complex)
    full[idx[:, :, None], idx[:, None, :]] = block
    return full


def _bit_offsets(qubits, total_qubits: int) -> np.ndarray:
    """Basis-index offset of every setting of ``qubits``, the first qubit
    as the most significant bit of the setting."""
    k = len(qubits)
    weights = 1 << (total_qubits - 1 - np.asarray(qubits, dtype=np.int64))
    bits = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return bits @ weights


def denote_unitary(gate, targets, total_qubits: int) -> np.ndarray:
    """Full-dimension unitary for a gate name or inline matrix."""
    if isinstance(gate, str):
        name = gate.upper()
        if name not in GATES:
            raise ValueError(f"unknown gate {gate!r}")
        block = GATES[name]
    else:
        block = linalg.as_matrix(gate)
    _require_unitary(block, linalg.UNITARY_TOL, "gate")
    return embed_operator(block, tuple(targets), total_qubits)


def _require_unitary(u: np.ndarray, tol: float, what: str) -> None:
    """Raise ``NonUnitaryError`` unless ``max_norm(u+u - I) <= tol``. A tall
    ``u`` is certified as an isometry: for ``u = [M; C]`` that is the
    Kraus split ``M+M + C+C = I``."""
    dev = linalg.max_norm(linalg.gram_defect(u))
    if dev > tol:
        raise NonUnitaryError(f"{what} deviates from unitary by {dev:.3e}")


def ket_guard_projection(ket: str, qubit: int, total_qubits: int) -> np.ndarray:
    """Projection onto the event 'this qubit is in the given basis ket'."""
    v = KET_VECTORS[ket]
    return embed_operator(np.outer(v, v.conj()), (qubit,), total_qubits)
