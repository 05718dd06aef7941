"""Closed subspaces (quantum events), their lattice, and the measure view.

A closed subspace of the finite Hilbert space is stored canonically as
its orthogonal projection matrix. An event spanned by known orthonormal
columns B (``subspace_from_vectors``, and so ``join`` and ``meet``) is
certified from the r x r Gram matrix of B and keeps B as its basis, so
neither its validation nor its rank runs an eigensolve; an observable's
eigenprojections and events keep their columns too, certified with the
observable's eigenvector matrix. The measure view of a partial density
operator f assigns tr(P_K f) to every event K; this is a sub-probability
measure, and the map f -> measure is an order isomorphism between the
Loewner order and the pointwise order on measures (dim > 2 is needed only
for surjectivity, which plays no computational role here: every measure
is evaluated as ``gleason_measure(f, K)`` from its operator).
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .density import PartialDensityOperator, loewner_leq
from .errors import CrossCheckError, DimensionMismatchError


class ClosedSubspace:
    """A quantum event, canonically an orthogonal projection matrix.

    Validation requires the matrix to be Hermitian within
    ``linalg.HERMITIAN_TOL`` and idempotent within ``linalg.PROJ_TOL``;
    ``orthocomplement`` keeps that certificate without validating again,
    and ``_span`` certifies an event from its orthonormal columns instead.
    Unless the event was built from its columns, the rank and basis are
    computed on first use and cached: for a complement, as the completion
    of the other event's basis to a unitary (one QR factorization), so
    its value does not depend on which bases were read before; otherwise
    from one eigensolve of the projection, the rank being the number of
    eigenvalues above one half.
    """

    __slots__ = ("_projection", "_basis", "_complement_of")

    def __init__(self, projection):
        p = linalg.require_hermitian(projection)
        idem = linalg.max_norm(p @ p - p)
        if idem > linalg.PROJ_TOL:
            raise ValueError(
                f"matrix is not idempotent: |P^2 - P| = {idem:.3e} (tol {linalg.PROJ_TOL:.1e})"
            )
        p = np.array(p, dtype=complex)
        p.setflags(write=False)
        self._projection = p
        self._basis = None
        self._complement_of = None

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
            if self._complement_of is not None:
                c = self._complement_of.basis
                basis = np.linalg.qr(c, mode="complete")[0][:, c.shape[1]:]
            else:
                vals, vecs = np.linalg.eigh(self._projection)
                basis = np.array(vecs[:, vals > 0.5])
            basis.setflags(write=False)
            self._basis = basis
        return self._basis

    def __repr__(self):
        return f"ClosedSubspace(dim={self.dim}, rank={self.rank})"

    def __eq__(self, other):
        if not isinstance(other, ClosedSubspace):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self._projection, other._projection)

    @classmethod
    def zero(cls, dim: int) -> "ClosedSubspace":
        return _span(_identity(dim)[:, :0])

    @classmethod
    def full(cls, dim: int) -> "ClosedSubspace":
        return _span(_identity(dim))


def _identity(dim: int) -> np.ndarray:
    """The d x d identity whose columns span the named events, for ``dim >= 1``."""
    if dim < 1:
        raise DimensionMismatchError(f"an event needs dimension at least 1, got {dim}")
    return np.eye(dim, dtype=complex)


def _certified(
    projection: np.ndarray, basis: np.ndarray | None = None, complement_of: ClosedSubspace | None = None
) -> ClosedSubspace:
    """The one place that builds an event without ``ClosedSubspace.__init__``;
    each caller states why its projection needs no check. ``basis`` spans
    the event, if known; ``complement_of`` is the event it complements."""
    projection.setflags(write=False)
    if basis is not None:
        basis.setflags(write=False)
    event = object.__new__(ClosedSubspace)
    event._projection = projection
    event._basis = basis
    event._complement_of = complement_of
    return event


def _span(b: np.ndarray) -> ClosedSubspace:
    """The event spanned by the d x r columns B, certified from B+B alone.

    B must pass ``linalg.require_orthonormal``, which raises
    ``CrossCheckError`` otherwise and bounds P = B B+'s idempotency defect
    within ``linalg.PROJ_TOL``; P is returned with basis B, without
    validating it again. The computed B B+ is Hermitian up to rounding of
    about 2 r eps_mach (below 1.5e-14 at d = 64), far inside
    ``linalg.HERMITIAN_TOL``.
    """
    linalg.require_orthonormal(b)
    return _certified(b @ b.conj().T, b)


def subspace_from_vectors(vectors, dim: int | None = None) -> ClosedSubspace:
    """Projection onto the span of the given vectors.

    ``dim`` is only required for an empty family, which yields the zero
    subspace.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        if dim is None:
            raise ValueError("empty vector family needs an explicit dimension")
        return ClosedSubspace.zero(dim)
    n = vecs[0].shape[0]
    if dim is not None and dim != n:
        raise DimensionMismatchError(f"vectors have dimension {n}, expected {dim}")
    basis = linalg.orthonormalize(vecs)
    if not basis:
        return ClosedSubspace.zero(n)
    return _span(np.column_stack(basis))


def orthocomplement(k: ClosedSubspace) -> ClosedSubspace:
    """The complement I - P, without re-validation.

    I - P keeps P's certificate: its Hermitian deviation is exactly P's,
    and (I - P)^2 - (I - P) = P^2 - P, so its idempotency defect is
    mathematically P's, up to rounding of about d * eps (below 1.5e-14 at
    d = 64), far inside ``linalg.PROJ_TOL``. The complement's basis, when
    read, is the completion of ``k.basis`` to a unitary, whatever was read
    before; if P's basis is known, reading it (as ``meet`` does through
    ``join``) runs no eigensolve.
    """
    return _certified(np.eye(k.dim, dtype=complex) - k.projection, complement_of=k)


def join(k1: ClosedSubspace, k2: ClosedSubspace) -> ClosedSubspace:
    """Smallest subspace containing both: the span of their union."""
    linalg.require_same_dim(k1.dim, k2.dim)
    columns = [k1.basis[:, j] for j in range(k1.rank)] + [k2.basis[:, j] for j in range(k2.rank)]
    return subspace_from_vectors(columns, dim=k1.dim)


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
