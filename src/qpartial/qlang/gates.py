"""Gate library and gates applied on their qubits' legs.

Qubit 0 is the leftmost tensor factor (most significant bit of a basis
index). ``apply_unitary`` multiplies a matrix by a certified 2^k x 2^k
block on arbitrary, possibly non-adjacent target qubits, on those
qubits' legs, with no d x d factor. A named gate is certified once, at
import; an inline matrix is certified within ``UNITARY_TOL`` and then
replaced by its nearest unitary, the polar factor ``W V+`` of its SVD
``W S V+``, so that an accepted defect does not compound in a loop.
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


def gate_arity(name: str) -> int:
    return int(math.log2(GATES[name].shape[0]))


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


def apply_unitary(gate, targets, total_qubits: int, u: np.ndarray) -> np.ndarray:
    """The gate on ``targets``, embedded in the register, times ``u``, up to
    rounding, on qubit legs: the 2^k rows of u at each setting of the other
    qubits are gathered, multiplied by the certified block and scattered back."""
    block = _gate_block(gate)
    idx = _leg_index(block, tuple(targets), total_qubits).T
    legs = u[idx]
    out = np.empty_like(u)
    out[idx] = (block @ legs.reshape(len(block), -1)).reshape(legs.shape)
    return out


def _gate_block(gate) -> np.ndarray:
    """A gate name's block, certified at import, or an inline matrix's,
    certified here and returned as its nearest unitary ``W V+``."""
    if not isinstance(gate, str):
        w, _, vh = np.linalg.svd(_require_unitary(linalg.as_matrix(gate), linalg.UNITARY_TOL, "gate"))
        return w @ vh
    if gate.upper() not in GATES:
        raise ValueError(f"unknown gate {gate!r}")
    return GATES[gate.upper()]
