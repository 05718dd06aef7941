"""Matrix and vector coercion, norms, Gram-Schmidt, the Hermitian
eigensolver, the PSD test, and the library's validation tolerances.

All functions operate on ``complex128`` numpy arrays and treat them
as immutable values: nothing here mutates its arguments. The eigensolver
delegates to LAPACK through ``numpy.linalg`` and then checks the
reconstruction residual, and its eigenvector columns with
``require_orthonormal``, so a returned decomposition is always certified
against its tolerances. ``hermitian_eig`` is the one certified
eigendecomposition: observables group its eigenvector columns instead of
certifying a spectrum of their own, and every subset of those columns
inherits the orthonormality certificate (see ``require_orthonormal``).

The tolerances below are the single table every validation check reads,
at the time the check runs (max norm unless stated otherwise).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CrossCheckError, DimensionMismatchError, NotHermitianError, NotPositiveError

HERMITIAN_TOL = 1e-10  # deviation from Hermitian, times max(1, |A|)
UNITARY_TOL = 1e-10  # deviation of U+U from the identity
EIG_TOL = 1e-9  # reconstruction of an eigendecomposition, times max(1, |A|)
PSD_TOL = 1e-9  # eigenvalue floor of the PSD test; trace slack of partial density operators
RANK_TOL = 1e-8  # residual norm below which Gram-Schmidt drops a vector
PROJ_TOL = 1e-8  # idempotency, orthogonality and inclusion of projections; orthonormal columns
EIG_GROUP_TOL = 1e-8  # gap below which eigenvalues share an eigenprojection
IMAG_TOL = 1e-9  # imaginary part of a measure value
E0_CROSS_TOL = 1e-7  # spectral sum versus trace form of an expectation, times max(1, |A|)


def as_matrix(a) -> np.ndarray:
    """Coerce to a square, finite complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    # a complex entry is finite only when both of its parts are
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D complex vector; more than one axis longer than 1,
    as in a matrix, raises ``DimensionMismatchError``."""
    a = np.asarray(v, dtype=complex)
    if a.ndim > 1 and max(a.shape) != a.size:
        raise DimensionMismatchError(f"expected a vector, got shape {a.shape}")
    return a.reshape(-1)


def max_norm(a) -> float:
    """Largest entry magnitude (the max norm used by all tolerance checks)."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def gram_defect(v: np.ndarray) -> np.ndarray:
    """V+V - I for the columns V, as a new array: the identity is taken off
    the Gram matrix's diagonal in place, which rounds exactly as
    subtracting ``np.eye`` does. Overflow reads inf or NaN, with no warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = v.conj().T @ v
    g.flat[:: g.shape[0] + 1] -= 1.0
    return g


def euclidean_norm(x: np.ndarray) -> float:
    """The 2-norm of a complex vector, or the Frobenius norm of a complex
    matrix, by the formula ``np.linalg.norm`` applies to complex input,
    so the result is the same to the bit, without its dispatch."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def require_same_dim(m: int, n: int) -> None:
    """The one dimension check: raise unless two operands share dimension."""
    if m != n:
        raise DimensionMismatchError(f"dimension mismatch: {m} vs {n}")


def require_hermitian(a) -> np.ndarray:
    """Coerce, and raise ``NotHermitianError`` unless |A - A+| <=
    ``HERMITIAN_TOL * max(1, |A|)``. The bound scales with A because the
    rounding of a matrix built in floating point, such as U D U+, does;
    at |A| <= 1, the case of every state and projection, it is
    ``HERMITIAN_TOL``."""
    a = as_matrix(a)
    # an overflowed deviation reads inf, which fails the bound
    with np.errstate(over="ignore"):
        dev = max_norm(a - a.conj().T)
    # max(1, |A|) >= 1, so within the unscaled bound |A| need not be read
    if dev > HERMITIAN_TOL:
        tol = HERMITIAN_TOL * max(1.0, max_norm(a))
        if dev > tol:
            raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e} (tol {tol:.1e})")
    return a


def require_orthonormal(b: np.ndarray) -> None:
    """The one orthonormality certificate for d x r columns B: with
    eps = |B+B - I|_F, raise ``CrossCheckError`` unless eps (1 + eps) <=
    ``PROJ_TOL``.

    It certifies B B+ as a projection: P^2 - P = B E B+ with E = B+B - I,
    so P's idempotency defect in max norm is at most |B|_2^2 |E|_2 <=
    (1 + eps) eps, since the max norm never exceeds the spectral norm,
    |E|_2 <= |E|_F, and |B|_2^2 = |B+B|_2 <= 1 + eps. Every subset of the
    columns inherits it: the subset's Gram defect is a principal
    submatrix of E, whose Frobenius norm is no larger.
    """
    eps = euclidean_norm(gram_defect(b))
    if not eps * (1.0 + eps) <= PROJ_TOL:
        raise CrossCheckError(
            f"span columns are not orthonormal: |B+B - I|_F = {eps:.3e} (tol {PROJ_TOL:.1e})"
        )


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, certified after the fact.

    Returns ``(w, V)`` as ``numpy.linalg.eigh`` does: ascending eigenvalues
    and orthonormal eigenvector columns, both read-only. Raises
    ``NotHermitianError`` for non-Hermitian input and ``CrossCheckError``
    if an eigenvalue overflowed, if, in max norm, the reconstruction
    ``V diag(w) V+`` misses A by more than ``EIG_TOL * max(1, |A|)`` or is
    NaN, or if V fails ``require_orthonormal``,
    which then certifies every subset of V's columns as spanning a
    projection. The reconstruction bound scales with A because its
    rounding does, about d * eps * |A|; at |A| <= 1 it is ``EIG_TOL``.
    """
    a = require_hermitian(a)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise CrossCheckError(f"eigensolver failed to converge: {exc}") from exc
    vals = vals.astype(float)
    if not np.isfinite(vals).all():
        raise CrossCheckError(f"eigensolver overflowed: eigenvalues {vals[0]:.3e} to {vals[-1]:.3e}")
    recon_err = max_norm((vecs * vals) @ vecs.conj().T - a)
    recon_tol = EIG_TOL * max(1.0, max_norm(a))
    if not recon_err <= recon_tol:
        raise CrossCheckError(
            f"spectral decomposition failed certification: "
            f"reconstruction {recon_err:.3e} (tol {recon_tol:.1e})"
        )
    require_orthonormal(vecs)
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return vals, vecs


def orthonormalize(vectors, dim: int) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass, over 1-D
    complex vectors of length ``dim`` as the caller coerced and checked them.

    Returns the dim x r orthonormal columns spanning the input, dim x 0
    when nothing survives: a vector whose residual norm after projection
    falls below ``RANK_TOL`` is dropped. A residual norm that is not
    finite, as from a non-finite entry, raises ``ValueError``.
    """
    basis: list[np.ndarray] = []
    for w in vectors:
        for _ in range(2):
            for u in basis:
                w = w - u * np.vdot(u, w)
        norm = euclidean_norm(w)
        # NaN fails both comparisons: it is neither dropped nor divided by
        if not norm < RANK_TOL:
            if not norm < math.inf:
                raise ValueError(f"vector family is not finite: a residual norm is {norm}")
            basis.append(w / norm)
    return np.column_stack(basis) if basis else np.zeros((dim, 0), dtype=complex)


def require_psd_hermitian(h: np.ndarray) -> np.ndarray:
    """The PSD test, for a complex h already Hermitian: return h, or raise.

    The floor is ``-PSD_TOL``. On failure ``NotPositiveError`` carries the
    most negative eigenvalue and its unit eigenvector x, so that
    <x|hx> < -PSD_TOL; the eigenvectors are computed only then.
    """
    lowest = float(np.linalg.eigvalsh(h)[0])
    if lowest < -PSD_TOL:
        _, vecs = np.linalg.eigh(h)
        witness = vecs[:, 0].copy()
        witness.setflags(write=False)
        raise NotPositiveError(
            f"operator has eigenvalue {lowest:.3e} < -{PSD_TOL:.1e}", witness=witness, eigenvalue=lowest
        )
    return h
