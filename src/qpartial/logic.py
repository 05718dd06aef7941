"""Closed subspaces (quantum events), their lattice, and the measure view.

A closed subspace of the finite Hilbert space is stored canonically as
its orthogonal projection matrix, and every event but a complement is
built with an orthonormal basis as matrix columns. Events spanned by
orthonormal columns B (``subspace_from_vectors``, the one vector check,
and so ``join`` and ``meet``; the exact ``zero`` and ``full``; an
observable's eigenprojections and events) keep B, so neither their
validation nor their rank runs an eigensolve. The measure view of a
partial density operator f assigns tr(P_K f) to every event K; this is a
sub-probability measure, and the map f -> measure is an order isomorphism
between the Loewner order and the pointwise order on measures (dim > 2 is
needed only for surjectivity, which plays no computational role here:
every measure is evaluated as ``gleason_measure(f, K)`` from its operator).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .density import PartialDensityOperator, loewner_leq
from .errors import CrossCheckError, DimensionMismatchError


class ClosedSubspace:
    """A quantum event, canonically an orthogonal projection matrix, with
    an orthonormal basis of its range as matrix columns.

    Validation requires the matrix to be Hermitian within
    ``linalg.HERMITIAN_TOL`` and idempotent within ``linalg.PROJ_TOL``,
    and the basis is then read off one eigensolve: the eigenvectors with
    eigenvalue above one half. ``_certified`` builds an event on certified
    columns, and ``orthocomplement`` keeps the other event's certificate,
    without validating again. Only a complement defers its basis, to the
    first read: the completion of the other event's basis to a unitary
    (one QR factorization), so it does not depend on what was read before.
    """

    __slots__ = ("_projection", "_basis", "_complement_of")

    def __init__(self, projection):
        p = linalg.require_hermitian(projection)
        # an overflowed P @ P reads inf or NaN, and either fails the bound
        with np.errstate(over="ignore", invalid="ignore"):
            idem = linalg.max_norm(p @ p - p)
        if not idem <= linalg.PROJ_TOL:
            raise ValueError(
                f"matrix is not idempotent: |P^2 - P| = {idem:.3e} (tol {linalg.PROJ_TOL:.1e})"
            )
        p = np.array(p, dtype=complex)
        vals, vecs = np.linalg.eigh(p)
        _fill(self, p, vecs[:, vals > 0.5])

    @property
    def projection(self) -> np.ndarray:
        return self._projection

    @property
    def dim(self) -> int:
        return self._projection.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """Orthonormal basis of the subspace, as matrix columns."""
        if self._basis is None:
            c = self._complement_of.basis
            self._basis = np.linalg.qr(c, mode="complete")[0][:, c.shape[1]:]
            self._basis.setflags(write=False)
        return self._basis

    def __repr__(self):
        return f"ClosedSubspace(dim={self.dim}, rank={self.rank})"

    def __eq__(self, other):
        if not isinstance(other, ClosedSubspace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._projection, other._projection)

    @classmethod
    def zero(cls, dim: int) -> "ClosedSubspace":
        return _certified(_identity(dim)[:, :0])

    @classmethod
    def full(cls, dim: int) -> "ClosedSubspace":
        return _certified(_identity(dim))


def _identity(dim: int) -> np.ndarray:
    """The d x d identity, whose exact columns span the named events, for ``dim >= 1``."""
    if dim < 1:
        raise DimensionMismatchError(f"an event needs dimension at least 1, got {dim}")
    return np.eye(dim, dtype=complex)


def _fill(event: ClosedSubspace, projection, basis, complement_of=None) -> ClosedSubspace:
    """Set an event's slots, its arrays read-only; a complement's basis is None."""
    projection.setflags(write=False)
    if basis is not None:
        basis.setflags(write=False)
    event._projection, event._basis, event._complement_of = projection, basis, complement_of
    return event


def _certified(b: np.ndarray) -> ClosedSubspace:
    """The one builder of an event on orthonormal columns B already
    certified: P = B B+, with basis B. Each caller states why B needs no check."""
    return _fill(object.__new__(ClosedSubspace), b @ b.conj().T, b)


def _span(b: np.ndarray) -> ClosedSubspace:
    """The event spanned by the d x r columns B, certified from B+B alone.

    B must pass ``linalg.require_orthonormal``, which raises
    ``CrossCheckError`` otherwise and bounds P = B B+'s idempotency defect
    within ``linalg.PROJ_TOL``. The computed B B+ is Hermitian up to
    rounding of about 2 r eps_mach (below 1.5e-14 at d = 64), far inside
    ``linalg.HERMITIAN_TOL``.
    """
    linalg.require_orthonormal(b)
    return _certified(b)


def subspace_from_vectors(vectors, dim: int | None = None) -> ClosedSubspace:
    """Projection onto the span of the given vectors; the one place a
    vector family is coerced (``linalg.as_vector``) and every length
    checked. ``dim`` is only required for an empty family, which yields the
    zero subspace. A non-finite entry raises in ``linalg.orthonormalize``.
    """
    vecs = [linalg.as_vector(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("empty vector family needs an explicit dimension")
        dim = vecs[0].shape[0]
    for v in vecs:
        if v.shape[0] != dim:
            raise DimensionMismatchError(f"vectors have dimension {v.shape[0]}, expected {dim}")
    return _span(linalg.orthonormalize(vecs, dim)) if vecs else ClosedSubspace.zero(dim)


def orthocomplement(k: ClosedSubspace) -> ClosedSubspace:
    """The complement I - P, without re-validation.

    I - P keeps P's certificate: its Hermitian deviation is exactly P's,
    and (I - P)^2 - (I - P) = P^2 - P, so its idempotency defect is
    mathematically P's, up to rounding of about d * eps (below 1.5e-14 at
    d = 64), far inside ``linalg.PROJ_TOL``. Its basis is deferred (see
    ``ClosedSubspace``).
    """
    return _fill(object.__new__(ClosedSubspace), np.eye(k.dim, dtype=complex) - k.projection, None, k)


def join(k1: ClosedSubspace, k2: ClosedSubspace) -> ClosedSubspace:
    """Smallest subspace containing both: the span of their bases' columns,
    passed as views, since a stacked copy changes BLAS's dot kernel and so
    the rounding."""
    linalg.require_same_dim(k1.dim, k2.dim)
    return _span(linalg.orthonormalize([*k1.basis.T, *k2.basis.T], k1.dim))


def meet(k1: ClosedSubspace, k2: ClosedSubspace) -> ClosedSubspace:
    """Intersection, through the De Morgan dual of the join."""
    linalg.require_same_dim(k1.dim, k2.dim)
    return orthocomplement(join(orthocomplement(k1), orthocomplement(k2)))


def subspace_leq(k1: ClosedSubspace, k2: ClosedSubspace) -> bool:
    """Inclusion K1 is a subspace of K2, tested as P2 P1 = P1."""
    linalg.require_same_dim(k1.dim, k2.dim)
    return linalg.max_norm(k2.projection @ k1.projection - k1.projection) <= linalg.PROJ_TOL


def gleason_measure(f: PartialDensityOperator, k: ClosedSubspace) -> float:
    """Probability tr(P_K f) that the event K occurs in the partial state f.

    It is evaluated as sum_ij P_ij f_ji, which equals tr(P f) for any two
    square matrices, in O(d^2) and without forming the product P f, and
    then read through ``_measure_value``.
    """
    linalg.require_same_dim(f.dim, k.dim)
    return _measure_value(complex(np.einsum("ij,ji->", k.projection, f.matrix)))


def _measure_value(trace: complex) -> float:
    """The value rule of ``gleason_measure``, for one trace tr(P f): its
    real part, clamped to [0, 1] when it lies within ``linalg.PSD_TOL`` of
    that range. An imaginary part beyond ``linalg.IMAG_TOL`` signals
    corrupted inputs and raises ``CrossCheckError``.
    """
    if abs(trace.imag) > linalg.IMAG_TOL:
        raise CrossCheckError(f"measure has imaginary part {trace.imag:.3e}")
    x = trace.real
    if -linalg.PSD_TOL <= x <= 1.0 + linalg.PSD_TOL:
        x = min(1.0, max(0.0, x))
    return x


def state_leq(f: PartialDensityOperator, g: PartialDensityOperator) -> tuple[bool, ClosedSubspace | None]:
    """Decide the measure order G(f) <= G(g) via the operator order.

    The two orders coincide, so this is ``loewner_leq`` with its witness
    lifted to an event: on failure, the line spanned by the most negative
    eigendirection x of g - f, on which f measures strictly more than g.
    """
    ok, witness = loewner_leq(f, g)
    if ok:
        return True, None
    return False, subspace_from_vectors([witness])
