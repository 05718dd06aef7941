"""Bounded observables, their projection-valued measures, and interval
expected values.

An observable is a Hermitian matrix stored as its certified eigenvector
columns, grouped by eigenvalue: one certified eigensolve gives the
columns, and its one orthonormality certificate covers every subset of
them, so every group and every event. The expected value needs only the
spectrum's ends and one weight tr(P_k f) per eigenvalue, and each weight
is read off the group's columns, so no eigenprojection is formed for it.
Eigenprojections, and every event of the projection-valued measure, are
built from the columns only when ``spectral`` or ``pvm_map`` reads them.
In finite dimension that measure factors through the spectrum, so a
Borel set acts only through which eigenvalues it contains: it is passed
as its indicator function, a predicate on floats such as
``lambda x: x > 0``.

The expected value against a partial density operator f is the compact
interval

    tr(A f) + (1 - tr(f)) * [min spec, max spec]

whose width reflects that the nonterminated probability mass is known to
sit somewhere in the spectrum's range, but not where.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import linalg
from .density import PartialDensityOperator, nontermination_probability
from .errors import CrossCheckError
from .intervals import CompactInterval
from .logic import ClosedSubspace, _certified


class BoundedObservable:
    """Hermitian operator stored as its certified eigenvector columns V,
    the start index of each eigenvalue group in V, and one eigenvalue per
    group.

    The eigendecomposition comes from ``linalg.hermitian_eig``, certified
    there: its eigenvector columns pass ``linalg.require_orthonormal`` and
    reconstruct the operator within ``linalg.EIG_TOL * max(1, |A|)``.
    Eigenvalues whose consecutive gaps stay within ``linalg.EIG_GROUP_TOL``
    form one group, with the group's mean as eigenvalue, so grouping moves
    an eigenvalue by at most its group's spread. Every group, and every
    event ``pvm_map`` builds, is a subset of V's columns and inherits V's
    certificate, so it spans a projection with no check of its own.
    Eigenprojections are built from the columns each time ``spectral`` is
    read, and not kept.
    """

    __slots__ = ("_operator", "_vecs", "_starts", "_eigenvalues")

    def __init__(self, operator):
        # hermitian_eig coerces and validates the operator
        vals, vecs = linalg.hermitian_eig(operator)
        # a group starts at the first eigenvalue and wherever the gap to the
        # previous one exceeds the tolerance, inf too; it ends where the next starts
        is_start = np.empty(len(vals), dtype=bool)
        is_start[:1] = True
        with np.errstate(over="ignore"):
            is_start[1:] = vals[1:] - vals[:-1] > linalg.EIG_GROUP_TOL
        starts = np.flatnonzero(is_start)
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:]
        ends[-1:] = len(vals)
        a = np.array(operator, dtype=complex)
        a.setflags(write=False)
        self._operator = a
        self._vecs = vecs
        self._starts = starts
        self._eigenvalues = tuple((np.add.reduceat(vals, starts) / (ends - starts)).tolist())

    @property
    def operator(self) -> np.ndarray:
        return self._operator

    @property
    def dim(self) -> int:
        return self._operator.shape[0]

    @property
    def spectral(self) -> tuple[tuple[float, ClosedSubspace], ...]:
        """Pairs (eigenvalue, eigenprojection), eigenvalues ascending and
        distinct, each eigenprojection built from its group's certified
        columns on this read."""
        return tuple((lam, _certified(b)) for lam, b in self._eigenspaces())

    @property
    def eigenvalues(self) -> list[float]:
        return list(self._eigenvalues)

    def _eigenspaces(self):
        """Pairs (eigenvalue, the group's columns as a view of V), eigenvalues ascending."""
        v = self._vecs
        bounds = self._starts.tolist() + [v.shape[1]]
        return zip(self._eigenvalues, (v[:, i:j] for i, j in zip(bounds, bounds[1:])))

    def __repr__(self):
        return f"BoundedObservable(dim={self.dim}, spectrum={self.eigenvalues})"


def pvm_map(r: BoundedObservable, u: Callable[[float], bool]) -> ClosedSubspace:
    """Event that the observable's value lies in the Borel set u, passed
    as its indicator function: ``u(x)`` is true when x is in the set, and
    only its values at the eigenvalues are read.

    The join of the eigenprojections with eigenvalue in u: being mutually
    orthogonal, it is the span of their columns taken together, a subset
    of V's columns certified with V. An empty selection is the zero event.
    """
    columns = [b for lam, b in r._eigenspaces() if u(lam)]
    if not columns:
        return ClosedSubspace.zero(r.dim)
    return _certified(np.hstack(columns))


def spectrum_bounds(r: BoundedObservable) -> tuple[float, float]:
    eigs = r.eigenvalues
    return eigs[0], eigs[-1]


def distribution(r: BoundedObservable, f: PartialDensityOperator) -> tuple[tuple[float, float], ...]:
    """Push the state's measure through the observable's PVM: its
    (eigenvalue, weight) pairs, eigenvalues ascending.

    Each weight is tr(P f) = sum over the group's columns v of v+ f v,
    every column's term read off the one product f V; no eigenprojection
    is formed. The weights are not clamped: ``e0`` cross-checks the
    weighted sum against the trace form, and clamping many weights near
    the PSD floor could move that sum past ``linalg.E0_CROSS_TOL``. Nor
    are they checked again: f's certificate lets a rank-r eigenprojection
    carry weight down to -r * ``linalg.PSD_TOL``, and the weights sum to
    tr f up to rounding.
    """
    linalg.require_same_dim(r.dim, f.dim)
    return tuple(zip(r._eigenvalues, _weights(r, f.matrix[None])[0].tolist()))


def _weights(r: BoundedObservable, stack: np.ndarray) -> np.ndarray:
    """The weights of ``distribution`` for each matrix of an n x d x d
    stack, as an n x (groups) array, all read off the one product
    ``stack @ V``."""
    v = r._vecs
    column_weights = np.einsum("ij,nij->nj", v.conj(), stack @ v).real
    return np.add.reduceat(column_weights, r._starts, axis=1)


def e0(r: BoundedObservable, f: PartialDensityOperator) -> float:
    """Expectation of the observed part: sum of eigenvalue * weight.

    Cross-checked against tr(A f) = sum_ij A_ij f_ji, which shares no
    code with the weights; divergence beyond ``linalg.E0_CROSS_TOL *
    max(1, |A|)`` means the stored spectral data no longer matches the
    operator. The bound scales with A, as the rounding of both sums does.
    """
    linalg.require_same_dim(r.dim, f.dim)
    return _expectations(r, f.matrix[None])[0]


def _expectations(r: BoundedObservable, stack: np.ndarray) -> list[float]:
    """``e0`` of each matrix of an n x d x d stack: the weights of all of
    them from ``_weights``, their trace forms from one product over the
    stack, and every spectral sum and cross-check in one pass.

    Each spectral sum adds eigenvalue * weight from the lowest eigenvalue
    up, one term at a time (``np.cumsum`` does not pair terms), and the
    final ``+ 0.0`` turns a sum of -0.0 into 0.0, as Python's ``sum``
    does from its start value 0. The first matrix whose sums diverge
    raises."""
    trace_forms = np.einsum("ij,nji->n", r.operator, stack).real
    tol = linalg.E0_CROSS_TOL * max(1.0, linalg.max_norm(r.operator))
    terms = _weights(r, stack) * np.array(r._eigenvalues)
    spectral_sums = np.cumsum(terms, axis=1)[:, -1] + 0.0
    diverged = np.abs(spectral_sums - trace_forms) > tol
    if diverged.any():
        i = int(diverged.argmax())
        raise CrossCheckError(
            f"spectral expectation {float(spectral_sums[i])!r} and trace form "
            f"{float(trace_forms[i])!r} diverge"
        )
    return spectral_sums.tolist()


def missing_mass_interval(center: float, f: PartialDensityOperator, lo: float, hi: float) -> CompactInterval:
    """center + (1 - tr f) * [lo, hi]: an observed expectation plus the
    missing mass, which may sit anywhere in [lo, hi]. Requires lo <= hi;
    the missing mass is never negative, so the endpoints keep their
    order."""
    p = nontermination_probability(f)
    return CompactInterval(center + p * lo, center + p * hi)


def expected_interval(r: BoundedObservable, f: PartialDensityOperator) -> CompactInterval:
    """Interval expected value: e0 plus the missing mass spread over [m, M]."""
    return missing_mass_interval(e0(r, f), f, *spectrum_bounds(r))


def expected_interval_op(a, f: PartialDensityOperator) -> CompactInterval:
    """Same as ``expected_interval`` for a raw Hermitian matrix."""
    return expected_interval(BoundedObservable(a), f)


def observable_square_interval(a, f: PartialDensityOperator) -> CompactInterval:
    """Expected value of the square, from the original operator's spectrum.

    The square's spectrum range is [k^2, K^2] with k and K the smallest
    and largest eigenvalue magnitudes of the original operator.
    """
    r = BoundedObservable(a)
    linalg.require_same_dim(r.dim, f.dim)
    magnitudes = [abs(lam) for lam in r.eigenvalues]
    k, big_k = min(magnitudes), max(magnitudes)
    center = float(np.trace(r.operator @ r.operator @ f.matrix).real)
    return missing_mass_interval(center, f, k * k, big_k * big_k)
