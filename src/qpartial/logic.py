"""Closed subspaces (quantum events), their lattice, and the measure view.

A closed subspace of the finite Hilbert space is stored canonically as
its orthogonal projection matrix. An event spanned by known orthonormal
columns B (``subspace_from_vectors``, and so ``join`` and ``meet``; an
observable's eigenprojections) is certified from the r x r Gram matrix
of B and keeps B as its basis, so neither its validation nor its rank
runs an eigensolve. The measure view of a partial density operator f
assigns tr(P_K f) to every event K; this is a sub-probability measure,
and the map f -> measure is an order isomorphism between the Loewner
order and the pointwise order on measures (dim > 2 is needed only for
surjectivity, which plays no computational role here: every measure is
evaluated as ``gleason_measure(f, K)`` from its operator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    computed on first use and cached: for the complement of an event with
    known columns, as the completion of those columns to a unitary (one
    QR factorization); otherwise from one eigensolve of the projection,
    the rank being the number of eigenvalues above one half.
    """

    __slots__ = ("_projection", "_basis", "_cobasis")

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
        self._cobasis = None

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
            c = self._cobasis
            if c is not None:
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
        return _span(np.zeros((dim, 0), dtype=complex))

    @classmethod
    def full(cls, dim: int) -> "ClosedSubspace":
        return _span(np.eye(dim, dtype=complex))


def _certified(
    projection: np.ndarray, basis: np.ndarray | None = None, cobasis: np.ndarray | None = None
) -> ClosedSubspace:
    """The one place that builds an event without ``ClosedSubspace.__init__``;
    each caller states why its projection needs no check. ``basis`` spans
    the event and ``cobasis`` its complement, each if known."""
    projection.setflags(write=False)
    if basis is not None:
        basis.setflags(write=False)
    event = object.__new__(ClosedSubspace)
    event._projection = projection
    event._basis = basis
    event._cobasis = cobasis
    return event


def _span(b: np.ndarray) -> ClosedSubspace:
    """The event spanned by the d x r columns B, certified from B+B alone.

    With E = B+B - I and eps = |E|_F, it requires eps (1 + eps) <=
    ``linalg.PROJ_TOL`` and raises ``CrossCheckError`` otherwise; it then
    returns P = B B+ with basis B, without validating P again.
    P^2 - P = B E B+, so P's idempotency defect in max norm is at most
    |B|_2^2 |E|_2 <= (1 + eps) eps: the max norm never exceeds the
    spectral norm, |E|_2 <= |E|_F, and |B|_2^2 = |B+B|_2 <= 1 + eps. The
    computed B B+ is Hermitian up to rounding of about 2 r eps_mach
    (below 1.5e-14 at d = 64), far inside ``linalg.HERMITIAN_TOL``.
    """
    r = b.shape[1]
    eps = float(np.linalg.norm(b.conj().T @ b - np.eye(r)))
    if eps * (1.0 + eps) > linalg.PROJ_TOL:
        raise CrossCheckError(
            f"span columns are not orthonormal: |B+B - I|_F = {eps:.3e} (tol {linalg.PROJ_TOL:.1e})"
        )
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
    d = 64), far inside ``linalg.PROJ_TOL``. If P's basis is known, the
    complement's basis is its completion to a unitary, so reading it (as
    ``meet`` does through ``join``) runs no eigensolve.
    """
    return _certified(np.eye(k.dim, dtype=complex) - k.projection, cobasis=k._basis)


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
    square matrices, in O(d^2) and without forming the product P f. The
    value is clamped to [0, 1] when it lies within ``linalg.PSD_TOL``
    of that range; an imaginary component beyond ``linalg.IMAG_TOL``
    signals corrupted inputs and raises ``CrossCheckError``.
    """
    linalg.require_same_dim(f.dim, k.dim)
    value = complex(np.einsum("ij,ji->", k.projection, f.matrix))
    if abs(value.imag) > linalg.IMAG_TOL:
        raise CrossCheckError(f"measure has imaginary part {value.imag:.3e}")
    x = value.real
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


@dataclass
class AxiomCheckReport:
    """Outcome of randomized sub-probability axiom checks for one operator."""

    trials: int
    seed: int
    zero_event_value: float
    full_space_value: float
    worst_additivity_deviation: float
    failures: list = field(default_factory=list)
    passed: bool = True

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "zero_event_value": self.zero_event_value,
            "full_space_value": self.full_space_value,
            "worst_additivity_deviation": self.worst_additivity_deviation,
            "failures": list(self.failures),
            "passed": self.passed,
        }


def check_subprobability_axioms(
    f: PartialDensityOperator, trials: int, rng_seed: int
) -> AxiomCheckReport:
    """Randomized check of the three sub-probability measure axioms.

    Per trial, a random unitary image of a random partition of basis
    vectors gives a family of mutually orthogonal subspaces; additivity
    requires the measure of the join to match the sum of the members'
    measures within ``linalg.ADDITIVITY_TOL``. The zero event must measure
    exactly 0 and the whole space at most 1 (within ``linalg.PSD_TOL``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = f.dim
    zero_value = gleason_measure(f, ClosedSubspace.zero(n))
    full_value = gleason_measure(f, ClosedSubspace.full(n))
    report = AxiomCheckReport(
        trials=trials,
        seed=rng_seed,
        zero_event_value=zero_value,
        full_space_value=full_value,
        worst_additivity_deviation=0.0,
    )
    if zero_value != 0.0:
        report.failures.append({"check": "zero_event", "value": zero_value})
    if full_value > 1.0 + linalg.PSD_TOL:
        report.failures.append({"check": "full_space", "value": full_value})
    for t in range(trials):
        rng = np.random.default_rng([rng_seed, t])
        family = _random_orthogonal_family(n, rng)
        total = sum(gleason_measure(f, k) for k in family)
        joined = family[0]
        for k in family[1:]:
            joined = join(joined, k)
        deviation = abs(gleason_measure(f, joined) - total)
        report.worst_additivity_deviation = max(report.worst_additivity_deviation, deviation)
        if deviation > linalg.ADDITIVITY_TOL:
            report.failures.append({"check": "additivity", "trial": t, "deviation": deviation})
    report.passed = not report.failures
    return report


def _random_orthogonal_family(n: int, rng: np.random.Generator) -> list[ClosedSubspace]:
    """Mutually orthogonal subspaces spanned by unitary images of basis blocks."""
    from .sampling import random_unitary

    u = random_unitary(n, rng)
    subset_size = int(rng.integers(1, n + 1))
    axes = rng.permutation(n)[:subset_size]
    group_count = int(rng.integers(1, subset_size + 1))
    groups: list[list[int]] = [[] for _ in range(group_count)]
    for idx, axis in enumerate(axes):
        groups[idx % group_count].append(int(axis))
    return [subspace_from_vectors([u[:, i] for i in g], dim=n) for g in groups]
