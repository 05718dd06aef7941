"""Bounded observables, their projection-valued measures, and interval
expected values.

An observable is a Hermitian matrix together with its grouped spectral
decomposition: distinct eigenvalues paired with eigenprojections. One
certified eigensolve gives the eigenvector columns, and each
eigenprojection is the span of its group's columns, certified from their
Gram matrix (``logic._span``), as is every event of the
projection-valued measure. In finite dimension that measure factors
through the spectrum, so Borel sets are represented as finite unions of
intervals; membership of each eigenvalue is all that matters.

The expected value against a partial density operator f is the compact
interval

    tr(A f) + (1 - tr(f)) * [min spec, max spec]

whose width reflects that the nonterminated probability mass is known to
sit somewhere in the spectrum's range, but not where.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .density import PartialDensityOperator, nontermination_probability
from .errors import CrossCheckError
from .intervals import CompactInterval, scale_interval, translate
from .logic import ClosedSubspace, _span


@dataclass(frozen=True)
class BorelInterval:
    """One real interval with open/closed endpoint tags; endpoints may be inf."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("NaN endpoint")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed and not math.isinf(x):
            return True
        if x == self.hi and self.hi_closed and not math.isinf(x):
            return True
        return False

    def intersects(self, other: "BorelInterval") -> bool:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return False
        if lo < hi:
            return True
        return self.contains(lo) and other.contains(lo)


class BorelSet:
    """A finite union of pairwise disjoint intervals, kept sorted."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        parts = sorted(intervals, key=lambda iv: (iv.lo, iv.hi))
        for prev, cur in zip(parts, parts[1:]):
            if prev.intersects(cur):
                raise ValueError(f"intervals {prev} and {cur} are not disjoint")
        self.intervals = tuple(parts)

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals)

    @classmethod
    def empty(cls) -> "BorelSet":
        return cls(())

    @classmethod
    def reals(cls) -> "BorelSet":
        return cls((BorelInterval(-math.inf, math.inf, False, False),))

    @classmethod
    def closed(cls, lo: float, hi: float) -> "BorelSet":
        return cls((BorelInterval(lo, hi),))

    def __repr__(self):
        return f"BorelSet({list(self.intervals)!r})"


class BoundedObservable:
    """Hermitian operator with its grouped spectral decomposition cached.

    The eigendecomposition comes from ``linalg.hermitian_eig``, certified
    there within ``linalg.EIG_TOL``: its eigenvector columns are
    orthonormal and reconstruct the operator. Eigenvalues closer than
    ``linalg.EIG_GROUP_TOL`` are merged into a single eigenprojection,
    the span of their columns, with the group's mean as eigenvalue; so
    the eigenprojections resolve the identity and are mutually
    orthogonal, and grouping moves an eigenvalue by at most its group's
    spread. Each eigenprojection is certified from its group's r x r Gram
    matrix and keeps the columns as its basis.
    """

    __slots__ = ("_operator", "_spectral")

    def __init__(self, operator):
        a = linalg.as_matrix(operator)
        vals, vecs = linalg.hermitian_eig(a)
        spectral = []
        for idx in _group_indices(vals, linalg.EIG_GROUP_TOL):
            spectral.append((float(np.mean(vals[idx])), _span(vecs[:, idx])))
        a = np.array(a, dtype=complex)
        a.setflags(write=False)
        self._operator = a
        self._spectral = tuple(spectral)

    @property
    def operator(self) -> np.ndarray:
        return self._operator

    @property
    def dim(self) -> int:
        return self._operator.shape[0]

    @property
    def spectral(self) -> tuple[tuple[float, ClosedSubspace], ...]:
        """Pairs (eigenvalue, eigenprojection), eigenvalues ascending and distinct."""
        return self._spectral

    @property
    def eigenvalues(self) -> list[float]:
        return [lam for lam, _ in self._spectral]

    def __repr__(self):
        return f"BoundedObservable(dim={self.dim}, spectrum={self.eigenvalues})"


def _group_indices(vals: np.ndarray, tol: float) -> list[np.ndarray]:
    """Cluster ascending eigenvalues whose consecutive gaps stay within tol."""
    groups = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


def pvm_map(r: BoundedObservable, u: BorelSet) -> ClosedSubspace:
    """Event that the observable's value lies in the Borel set u.

    The join of the eigenprojections with eigenvalue in u: being mutually
    orthogonal, it is the span of their columns taken together. An empty
    selection is the zero event.
    """
    columns = [k.basis for lam, k in r.spectral if u.contains(lam)]
    if not columns:
        return ClosedSubspace.zero(r.dim)
    return _span(np.hstack(columns))


def spectrum_bounds(r: BoundedObservable) -> tuple[float, float]:
    eigs = r.eigenvalues
    return eigs[0], eigs[-1]


@dataclass(frozen=True)
class SubDistribution:
    """(eigenvalue, weight) pairs of a certified state's measure.

    Not checked again: a rank-r eigenprojection may carry weight down to
    -r * ``linalg.PSD_TOL``, and ``total`` is tr f up to rounding.
    """

    support: tuple[tuple[float, float], ...]
    total: float


def distribution(r: BoundedObservable, f: PartialDensityOperator) -> SubDistribution:
    """Push the state's measure through the observable's PVM.

    Each weight is tr(P f) = sum_ij P_ij f_ji, as in ``gleason_measure``,
    but not clamped: ``e0`` cross-checks the weighted sum against the
    trace form, and clamping many weights near the PSD floor could move
    that sum past ``linalg.E0_CROSS_TOL``. Nor are they checked again:
    f's certificate lets a rank-r eigenprojection carry weight down to
    -r * ``linalg.PSD_TOL``, and the total is tr f up to rounding.
    """
    linalg.require_same_dim(r.dim, f.dim)
    support = []
    total = 0.0
    for lam, k in r.spectral:
        w = float(np.einsum("ij,ji->", k.projection, f.matrix).real)
        support.append((lam, w))
        total += w
    return SubDistribution(tuple(support), total)


def e0(r: BoundedObservable, f: PartialDensityOperator) -> float:
    """Expectation of the observed part: sum of eigenvalue * weight.

    Cross-checked against tr(A f), formed as a matrix product so that it
    shares no code with the weights; divergence beyond
    ``linalg.E0_CROSS_TOL`` means the cached spectral data no longer
    matches the operator.
    """
    dist = distribution(r, f)
    spectral_sum = sum(lam * w for lam, w in dist.support)
    trace_form = float(np.trace(r.operator @ f.matrix).real)
    if abs(spectral_sum - trace_form) > linalg.E0_CROSS_TOL:
        raise CrossCheckError(
            f"spectral expectation {spectral_sum!r} and trace form {trace_form!r} diverge"
        )
    return spectral_sum


def missing_mass_interval(center: float, f: PartialDensityOperator, lo: float, hi: float) -> CompactInterval:
    """center + (1 - tr f) * [lo, hi]: an observed expectation plus the
    missing mass, which may sit anywhere in [lo, hi]."""
    return translate(center, scale_interval(nontermination_probability(f), CompactInterval(lo, hi)))


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
