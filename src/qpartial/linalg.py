"""Matrix coercion and norms, the Hermitian eigensolver, the PSD
test, and the library's validation tolerances.

All functions operate on square ``complex128`` numpy arrays and treat them
as immutable values: nothing here mutates its arguments. The eigensolver
delegates to LAPACK through ``numpy.linalg`` and then checks the
reconstruction and orthonormality residuals, so a returned decomposition
is always certified against its tolerance. ``hermitian_eig`` is the one
certified eigendecomposition: observables group its eigenvector columns
instead of certifying a spectrum of their own.

The tolerances below are the single table every validation check reads,
at the time the check runs (max norm unless stated otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, DimensionMismatchError, NotHermitianError, NotPositiveError

HERMITIAN_TOL = 1e-10  # deviation from Hermitian
UNITARY_TOL = 1e-10  # deviation of U+U from the identity
EIG_TOL = 1e-9  # certification of an (ungrouped) eigendecomposition
PSD_TOL = 1e-9  # eigenvalue floor of the PSD test; trace slack of partial density operators
RANK_TOL = 1e-8  # residual norm below which Gram-Schmidt drops a vector
PROJ_TOL = 1e-8  # idempotency, orthogonality and inclusion of projections
EIG_GROUP_TOL = 1e-8  # gap below which eigenvalues share an eigenprojection
IMAG_TOL = 1e-9  # imaginary part of a measure value
ADDITIVITY_TOL = 1e-8  # additivity of a measure over orthogonal families
E0_CROSS_TOL = 1e-7  # spectral sum versus trace form of an expectation


def as_matrix(a) -> np.ndarray:
    """Coerce to a square, finite complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")
    return m


def max_norm(a) -> float:
    """Largest entry magnitude (the max norm used by all tolerance checks)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def require_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def require_hermitian(a) -> np.ndarray:
    a = as_matrix(a)
    dev = max_norm(a - a.conj().T)
    if dev > HERMITIAN_TOL:
        raise NotHermitianError(f"matrix deviates from Hermitian by {dev:.3e} (tol {HERMITIAN_TOL:.1e})")
    return a


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, certified after the fact.

    Raises ``NotHermitianError`` for non-Hermitian input and
    ``CrossCheckError`` if the reconstruction ``V diag(w) V+`` or the
    orthonormality of ``V`` misses ``EIG_TOL`` in max norm.
    """
    a = require_hermitian(a)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise CrossCheckError(f"eigensolver failed to converge: {exc}") from exc
    vals = vals.astype(float)
    recon_err = max_norm((vecs * vals) @ vecs.conj().T - a)
    ortho_err = max_norm(vecs.conj().T @ vecs - np.eye(a.shape[0]))
    if recon_err > EIG_TOL or ortho_err > EIG_TOL:
        raise CrossCheckError(
            f"spectral decomposition failed certification: reconstruction {recon_err:.3e}, "
            f"orthonormality {ortho_err:.3e} (tol {EIG_TOL:.1e})"
        )
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(vals, vecs)


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending eigenvalues only (no certification of eigenvectors)."""
    return np.linalg.eigvalsh(require_hermitian(a)).astype(float)


def orthonormalize(vectors) -> list[np.ndarray]:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Vectors whose residual norm after projection falls below ``RANK_TOL``
    are dropped, so the output is an orthonormal basis of the input span.
    The output may be empty when all inputs are (numerically) zero.
    """
    basis: list[np.ndarray] = []
    dim = None
    for v in vectors:
        w = np.asarray(v, dtype=complex).reshape(-1)
        if dim is None:
            dim = w.shape[0]
        elif w.shape[0] != dim:
            raise DimensionMismatchError(f"vector dimension {w.shape[0]} != {dim}")
        for _ in range(2):
            for u in basis:
                w = w - u * np.vdot(u, w)
        norm = float(np.linalg.norm(w))
        if norm >= RANK_TOL:
            basis.append(w / norm)
    return basis


def require_positive_semidefinite(a) -> np.ndarray:
    """The PSD test: return the Hermitian matrix, or raise with a witness.

    The floor is ``-PSD_TOL``. On failure ``NotPositiveError`` carries the
    most negative eigenvalue and its unit eigenvector x, so that
    <x|ax> < -PSD_TOL.
    """
    a = require_hermitian(a)
    lowest = float(np.linalg.eigvalsh(a)[0])
    if lowest < -PSD_TOL:
        _, vecs = np.linalg.eigh(a)
        witness = vecs[:, 0].copy()
        witness.setflags(write=False)
        raise NotPositiveError(
            f"operator has eigenvalue {lowest:.3e} < -{PSD_TOL:.1e}", witness=witness, eigenvalue=lowest
        )
    return a


def is_positive_semidefinite(a) -> tuple[bool, np.ndarray | None]:
    """``require_positive_semidefinite`` as a verdict: ``(True, None)`` or
    ``(False, x)`` with x the witness."""
    try:
        require_positive_semidefinite(a)
    except NotPositiveError as exc:
        return False, exc.witness
    return True, None
