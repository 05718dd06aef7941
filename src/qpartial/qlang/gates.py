"""Gate library and embedding of small unitaries into the full register.

Qubit 0 is the leftmost tensor factor (most significant bit of a basis
index). ``embed_operator`` places a 2^k x 2^k block on arbitrary,
possibly non-adjacent target qubits; ``denote_unitary`` additionally
certifies unitarity, and ``apply_unitary`` multiplies by that unitary
on the target qubits' legs, with no d x d factor.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from .. import linalg
from ..errors import DimensionMismatchError, NonUnitaryError

_SQRT2 = math.sqrt(2.0)


def _require_unitary(u: np.ndarray, tol: float, what: str) -> np.ndarray:
    """``u``, once ``max_norm(u+u - I) <= tol``; else ``NonUnitaryError``. A
    tall ``u`` is certified as an isometry: for ``u = [M; C]`` that is the
    Kraus split ``M+M + C+C = I``."""
    dev = linalg.max_norm(linalg.gram_defect(u))
    if not dev <= tol:  # NaN too, as from an overflowed Gram product
        raise NonUnitaryError(f"{what} deviates from unitary by {dev:.3e}")
    return u


# a read-only table of read-only blocks, each certified unitary once, at import
GATES = MappingProxyType({
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
})
for _name, _block in GATES.items():
    _require_unitary(_block, linalg.UNITARY_TOL, f"gate {_name}").setflags(write=False)
del _name, _block

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
    idx = _leg_index(block, targets, total_qubits)
    full = np.zeros((2**total_qubits, 2**total_qubits), dtype=complex)
    full[idx[:, :, None], idx[:, None, :]] = block
    return full


def _leg_index(block: np.ndarray, targets, total_qubits: int) -> np.ndarray:
    """Basis index of (rest setting i, target setting j) at [i, j], once
    ``block`` is checked to act on len(targets) distinct register qubits."""
    k = len(targets)
    if block.shape[0] != 2**k:
        raise DimensionMismatchError(f"operator of dimension {block.shape[0]} does not act on {k} qubit(s)")
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    for q in targets:
        if not 0 <= q < total_qubits:
            raise ValueError(f"target qubit {q} out of range for {total_qubits} qubit(s)")
    # one axis per qubit, qubit 0 (the most significant bit) first, put in order (rest, targets)
    order = [q for q in range(total_qubits) if q not in targets] + list(targets)
    return np.arange(2**total_qubits).reshape((2,) * total_qubits).transpose(order).reshape(-1, 2**k)


def denote_unitary(gate, targets, total_qubits: int) -> np.ndarray:
    """Full-dimension unitary for a gate name or inline matrix."""
    return embed_operator(_gate_block(gate), tuple(targets), total_qubits)


def apply_unitary(gate, targets, total_qubits: int, u: np.ndarray) -> np.ndarray:
    """``denote_unitary(gate, targets, total_qubits) @ u`` on qubit legs, up
    to rounding: the 2^k rows of u at each setting of the other qubits are
    gathered, multiplied by the certified block and scattered back."""
    block = _gate_block(gate)
    idx = _leg_index(block, tuple(targets), total_qubits).T
    legs = u[idx]
    out = np.empty_like(u)
    out[idx] = (block @ legs.reshape(len(block), -1)).reshape(legs.shape)
    return out


def _gate_block(gate) -> np.ndarray:
    """A gate name's block, certified at import, or an inline matrix's, certified here."""
    if not isinstance(gate, str):
        return _require_unitary(linalg.as_matrix(gate), linalg.UNITARY_TOL, "gate")
    if gate.upper() not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    return GATES[gate.upper()]


def ket_guard_projection(ket: str, qubit: int, total_qubits: int) -> np.ndarray:
    """Projection onto the event 'this qubit is in the given basis ket'."""
    v = KET_VECTORS[ket]
    return embed_operator(np.outer(v, v.conj()), (qubit,), total_qubits)
