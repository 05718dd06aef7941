"""Partial density operators under the Loewner order, with chain suprema.

A partial density operator is a Hermitian positive-semidefinite matrix
with trace at most one. The trace deficit 1 - tr(f) is the probability
that the computation producing f has not terminated. Increasing chains
of such operators converge to a supremum; ``chain_supremum`` is the
stopping rule that picks the element taken for it, read off the chain's
traces, and is described there.

Values are certified once, when constructed. These return a certified
result without running the validating constructor:

- the named states ``zero``, ``ground_state`` and ``maximally_mixed``
  are diagonal with entries 0, 1 or 1/d: exactly Hermitian and PSD, of
  trace 0, 1, or a rounded sum of d entries 1/d, within d * eps of 1;
- ``scale(f, r)`` for r in [0, 1] multiplies every eigenvalue, the trace
  and the Hermitian deviation by r <= 1, so every bound f met still holds;
- ``logic.orthocomplement(k)``: I - P has exactly P's Hermitian deviation
  and, mathematically, P's idempotency defect;
- an event spanned by orthonormal columns B is certified from the Gram
  matrix B+B instead (``linalg.require_orthonormal``), except the named
  events ``zero`` and ``full``, whose identity columns are exact, and an
  observable's eigenprojections and events, which inherit the one
  certificate of its eigenvector columns.

The only slack in ``scale`` and ``orthocomplement`` is rounding, about
d * eps * |f| (below 1.5e-14 at d = 64), which is below the error of the
eigensolver the original check used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidOperatorError, NotPositiveError


class PartialDensityOperator:
    """Validated Hermitian PSD matrix with trace in [0, 1].

    Construction validates, with eigenvalue floor and trace slack
    ``linalg.PSD_TOL``; instances are immutable afterwards. The named
    states are certified by construction, and ``scale`` keeps a state's
    certificate, without validating again (see the module docstring).
    """

    __slots__ = ("_matrix", "_trace")

    def __init__(self, matrix):
        m = linalg.require_psd_hermitian(linalg.require_hermitian(matrix))
        tr = float(m.trace().real)
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
        return _certified(_zeros(dim), 0.0)

    @classmethod
    def pure(cls, vector) -> "PartialDensityOperator":
        """Rank-one state |v><v| of the normalized vector (trace one)."""
        v = linalg.as_vector(vector)
        # a zero, non-finite or overflowed norm fails before it divides anything
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(v))
        if not 0.0 < norm < np.inf:
            raise InvalidOperatorError(f"cannot normalize a vector of norm {norm}")
        v = v / norm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "PartialDensityOperator":
        m = _zeros(dim)
        np.fill_diagonal(m, 1.0 / dim)
        return _certified(m, float(m.trace().real))

    @classmethod
    def ground_state(cls, dim: int) -> "PartialDensityOperator":
        m = _zeros(dim)
        m[0, 0] = 1.0
        return _certified(m, 1.0)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self._matrix.real.tolist(),
            "im": self._matrix.imag.tolist(),
        }


def matrix_from_json(data: dict) -> np.ndarray:
    """Read the {dim, re, im} wire form back into a complex matrix.

    ``dim`` must be an int and the entries numbers: strings and nulls
    are rejected through the arrays' dtype, and booleans row by row, as
    numpy would read a boolean among numbers as 0 or 1.
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
    if any(bool in set(map(type, row)) for rows in (data["re"], data["im"]) for row in rows):
        raise InvalidOperatorError("operator JSON entries must be numbers, got a boolean")
    return re + 1j * im


def loewner_leq(f: PartialDensityOperator, g: PartialDensityOperator) -> tuple[bool, np.ndarray | None]:
    """Decide f <= g in the Loewner order (g - f PSD), with witness.

    When the order fails, the witness x is a unit vector along which
    <x|(g-f)x> < -linalg.PSD_TOL, i.e. f assigns strictly more mass than g.
    """
    linalg.require_same_dim(f.dim, g.dim)
    d = g.matrix - f.matrix
    # each state met HERMITIAN_TOL, so g - f may miss it by twice that; its
    # Hermitian part, d itself when f and g are Hermitian, is not checked
    try:
        linalg.require_psd_hermitian(0.5 * (d + d.conj().T))
    except NotPositiveError as exc:
        return False, exc.witness
    return True, None


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
    return _certified(m, float(m.trace().real))


def _zeros(dim: int) -> np.ndarray:
    """The d x d zero matrix a named state is built on, for ``dim >= 1``."""
    if dim < 1:
        raise DimensionMismatchError(f"a state needs dimension at least 1, got {dim}")
    return np.zeros((dim, dim), dtype=complex)


def _certified(m: np.ndarray, trace: float) -> PartialDensityOperator:
    """The one place that builds a state without the validating
    constructor; each caller states why m needs no check. ``m`` is made
    read-only, and ``trace`` must be ``float(np.trace(m).real)``."""
    m.setflags(write=False)
    state = object.__new__(PartialDensityOperator)
    state._matrix = m
    state._trace = trace
    return state


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
    """Stopping rules of ``chain_supremum``."""

    max_iterations: int = 10000
    trace_tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.max_iterations, int) or isinstance(self.max_iterations, bool):
            raise ValueError(f"max_iterations must be an int, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.trace_tol < 1.0:  # trace gaps lie in [0, 1]
            raise ValueError("trace_tol must lie in (0, 1)")


def chain_supremum(traces, cfg: FixpointConfig | None = None) -> tuple[int, bool, list[float]]:
    """The Kleene stopping rule, read off an increasing chain of partial
    states through its traces.

    This is the one Kleene loop: the interpreter evaluates every while loop
    through it. ``traces`` iterates the real traces ``tr a_0, tr a_1, ...``
    of the chain's elements, as floats; the caller owns the elements, and
    forms the one the rule stops at. Consumes traces until the gap between
    consecutive ones drops below ``cfg.trace_tol`` (converged), the
    iterator ends (a finite chain attains its supremum exactly), or
    ``cfg.max_iterations`` traces have been consumed (not converged).
    Returns ``(iterations, converged, traces)``: the number of traces
    consumed after the first, so the supremum taken is element
    ``iterations`` (for a while loop, the number of body evaluations), and
    every trace consumed, in order, so ``len(traces) == iterations + 1`` on
    every return. A generator is left suspended where the rule stopped it,
    after yielding ``tr a_iterations``.

    The trace-gap rule is a heuristic: a small gap bounds one step of the
    chain, not its distance to the supremum, so a slowly rising chain or
    one that stalls for a step can be reported converged early.

    The chain is not checked for monotonicity; it increases in the Loewner
    order by construction (every interpreter loop adds a sum of
    congruences of a PSD block at each step, and ``scale`` makes ``(1 -
    2^-n) f`` increase), and the interpreter certifies only its output.
    """
    cfg = cfg or FixpointConfig()
    it = iter(traces)
    try:
        read = [next(it)]
    except StopIteration:
        raise ValueError("supremum of an empty chain is undefined") from None
    for trace in itertools.islice(it, cfg.max_iterations - 1):
        read.append(trace)
        if read[-1] - read[-2] < cfg.trace_tol:
            converged = True
            break
    else:
        converged = len(read) < cfg.max_iterations
    return len(read) - 1, converged, read
