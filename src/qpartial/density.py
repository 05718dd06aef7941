"""Partial density operators under the Loewner order, with chain suprema.

A partial density operator is a Hermitian positive-semidefinite matrix
with trace at most one. The trace deficit 1 - tr(f) is the probability
that the computation producing f has not terminated. Increasing chains
of such operators converge to a supremum, computed by ``chain_supremum``;
its stopping rule is described there.

Values are certified once, when constructed. Three operations return a
certified result without running the validating constructor:

- ``scale(f, r)`` for r in [0, 1] multiplies every eigenvalue, the trace
  and the Hermitian deviation by r <= 1, so every bound f met still holds;
- ``logic.orthocomplement(k)``: I - P has exactly P's Hermitian deviation
  and, mathematically, P's idempotency defect;
- an event spanned by known orthonormal columns B is certified from the
  Gram matrix B+B instead (``logic._span``).

The only slack in the first two is rounding, about d * eps * |f| (below
1.5e-14 at d = 64), which is below the error of the eigensolver the
original check used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidOperatorError


class PartialDensityOperator:
    """Validated Hermitian PSD matrix with trace in [0, 1].

    Construction validates, with eigenvalue floor and trace slack
    ``linalg.PSD_TOL``; instances are immutable afterwards. ``scale`` keeps
    that certificate without validating again.
    """

    __slots__ = ("_matrix", "_trace")

    def __init__(self, matrix):
        m = linalg.require_positive_semidefinite(matrix)
        tr = float(np.trace(m).real)
        if tr > 1.0 + linalg.PSD_TOL:
            raise InvalidOperatorError(f"trace {tr:.12g} exceeds 1 (tol {linalg.PSD_TOL:.1e})")
        if tr < -linalg.PSD_TOL:
            raise InvalidOperatorError(f"trace {tr:.12g} below 0 (tol {linalg.PSD_TOL:.1e})")
        m = np.array(m, dtype=complex)
        m.setflags(write=False)
        self._matrix = m
        self._trace = tr

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def trace(self) -> float:
        return self._trace

    def __repr__(self):
        return f"PartialDensityOperator(dim={self.dim}, trace={self._trace:.6g})"

    @classmethod
    def zero(cls, dim: int) -> "PartialDensityOperator":
        return cls(np.zeros((dim, dim), dtype=complex))

    @classmethod
    def pure(cls, vector) -> "PartialDensityOperator":
        """Rank-one state |v><v| of the normalized vector (trace one)."""
        v = np.asarray(vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise InvalidOperatorError("cannot normalize the zero vector")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "PartialDensityOperator":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def ground_state(cls, dim: int) -> "PartialDensityOperator":
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(m)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self._matrix.real.tolist(),
            "im": self._matrix.imag.tolist(),
        }


def matrix_from_json(data: dict) -> np.ndarray:
    """Read the {dim, re, im} wire form back into a complex matrix.

    ``dim`` must be an int and the entries numbers. Entries are checked
    through the arrays' dtype, not one by one: strings, nulls and
    all-boolean arrays are rejected, while numpy reads a boolean among
    numbers as 0 or 1.
    """
    try:
        dim = data["dim"]
        re = np.asarray(data["re"])
        im = np.asarray(data["im"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidOperatorError(f"malformed operator JSON: {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise InvalidOperatorError(f"operator JSON dim must be an integer, got {dim!r}")
    if re.dtype.kind not in "iuf" or im.dtype.kind not in "iuf":
        raise InvalidOperatorError(
            f"operator JSON entries must be numbers, got dtypes {re.dtype}/{im.dtype}"
        )
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidOperatorError(
            f"operator JSON arrays have shape {re.shape}/{im.shape}, expected ({dim}, {dim})"
        )
    return re + 1j * im


def loewner_leq(f: PartialDensityOperator, g: PartialDensityOperator) -> tuple[bool, np.ndarray | None]:
    """Decide f <= g in the Loewner order (g - f PSD), with witness.

    When the order fails, the witness x is a unit vector along which
    <x|(g-f)x> < -linalg.PSD_TOL, i.e. f assigns strictly more mass than g.
    """
    linalg.require_same_dim(f.dim, g.dim)
    return linalg.is_positive_semidefinite(g.matrix - f.matrix)


def scale(f: PartialDensityOperator, r: float) -> PartialDensityOperator:
    """The partial state r f, for r in [0, 1], without re-validation.

    r f keeps f's certificate, scaled by r: eigenvalues, trace and
    Hermitian deviation all shrink by the factor r <= 1, so r f meets
    every bound f was certified against, up to rounding of about
    d * eps * |f|. Only r is checked; ``ValueError`` if it lies outside
    [0, 1] or is NaN.
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"scale factor must lie in [0, 1], got {r}")
    m = r * f.matrix
    m.setflags(write=False)
    scaled = object.__new__(PartialDensityOperator)
    scaled._matrix = m
    scaled._trace = float(np.trace(m).real)
    return scaled


def nontermination_probability(f: PartialDensityOperator) -> float:
    return min(1.0, max(0.0, 1.0 - f.trace))


def dyadic_diagonal_state(bits, dim: int) -> PartialDensityOperator:
    """Diagonal operator with entry b_i / 2^(i+1) for each bit b_i.

    Realizes the binary expansion sum(b_i / 2^(i+1)) <= 1 as a partial
    state whose value on every basis axis is a dyadic rational.
    """
    bits = list(bits)
    if len(bits) > dim:
        raise DimensionMismatchError(f"{len(bits)} bits do not fit in dimension {dim}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    diag = np.zeros(dim)
    for i, b in enumerate(bits):
        diag[i] = b / 2.0 ** (i + 1)
    return PartialDensityOperator(np.diag(diag).astype(complex))


@dataclass(frozen=True)
class FixpointConfig:
    """Stopping rules of ``chain_supremum``; ``monotonicity_check`` switches
    the interpreter's per-step check that its loop chains increase."""

    max_iterations: int = 10000
    trace_tol: float = 1e-9
    monotonicity_check: bool = True

    def __post_init__(self):
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.trace_tol < 1.0:  # trace gaps lie in [0, 1]
            raise ValueError("trace_tol must lie in (0, 1)")


def chain_supremum(
    chain, cfg: FixpointConfig | None = None
) -> tuple[np.ndarray, int, bool, list[float]]:
    """Supremum of an increasing chain of partial states, as raw matrices.

    This is the one Kleene loop: the interpreter evaluates every while loop
    through it. Consumes the chain until the trace gap between consecutive
    elements drops below ``cfg.trace_tol`` (converged), the chain ends (a
    finite chain attains its supremum exactly), or ``cfg.max_iterations``
    elements have been consumed (not converged). Returns ``(matrix,
    iterations, converged, traces)``: the last element consumed, the number
    of elements consumed after the first (for a while loop, the number of
    body evaluations), and ``float(np.trace(m).real)`` of every element
    consumed, in order, so ``len(traces) == iterations + 1`` on every return.

    The trace-gap rule is a heuristic: a small gap bounds one step of the
    chain, not its distance to the supremum, so a slowly rising chain or
    one that stalls for a step can be reported converged early.

    The chain is not checked for monotonicity; its producer certifies that
    it increases in the Loewner order (the interpreter checks each
    approximant's increment, and ``scale`` makes ``(1 - 2^-n) f`` increase
    by construction).
    """
    cfg = cfg or FixpointConfig()
    it = iter(chain)
    try:
        current = next(it)
    except StopIteration:
        raise ValueError("supremum of an empty chain is undefined") from None
    traces = [float(np.trace(current).real)]
    for current in itertools.islice(it, cfg.max_iterations - 1):
        traces.append(float(np.trace(current).real))
        if traces[-1] - traces[-2] < cfg.trace_tol:
            converged = True
            break
    else:
        converged = len(traces) < cfg.max_iterations
    return current, len(traces) - 1, converged, traces
