"""Seeded random generators for states, subspaces, unitaries and observables.

Everything takes an explicit ``numpy.random.Generator`` so that property
tests and verification suites are reproducible from a single seed.
Unitaries are built by composing Householder reflections, subspaces by
orthonormalizing complex Gaussian vectors.
"""

from __future__ import annotations

import numpy as np

from .density import PartialDensityOperator
from .logic import ClosedSubspace, subspace_from_vectors
from .observables import BoundedObservable


def random_complex_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = random_complex_vector(dim, rng)
    return v / np.linalg.norm(v)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Product of ``dim`` random Householder reflections."""
    u = np.eye(dim, dtype=complex)
    for _ in range(dim):
        v = random_unit_vector(dim, rng)
        u = u - 2.0 * np.outer(v, v.conj() @ u)
    return u


def random_subspace(dim: int, rank: int, rng: np.random.Generator) -> ClosedSubspace:
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    if rank == 0:
        return ClosedSubspace.zero(dim)
    vectors = [random_complex_vector(dim, rng) for _ in range(rank)]
    k = subspace_from_vectors(vectors, dim=dim)
    if k.rank != rank:  # vanishing chance of a dependent Gaussian draw
        return random_subspace(dim, rank, rng)
    return k


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_pdo(
    dim: int, rng: np.random.Generator, trace: float | None = None
) -> PartialDensityOperator:
    """Random partial density operator with the given (default: uniform) trace."""
    if trace is None:
        trace = float(rng.uniform(0.0, 1.0))
    if not 0.0 <= trace <= 1.0:
        raise ValueError(f"trace must lie in [0, 1], got {trace}")
    if trace == 0.0:
        return PartialDensityOperator.zero(dim)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    w = w * (trace / float(np.trace(w).real))
    return PartialDensityOperator(0.5 * (w + w.conj().T))


def random_observable(dim: int, rng: np.random.Generator) -> BoundedObservable:
    return BoundedObservable(random_hermitian(dim, rng))


def loewner_pair(
    dim: int, rng: np.random.Generator
) -> tuple[PartialDensityOperator, PartialDensityOperator]:
    """A comparable pair f <= g, built by adding a PSD remainder to f."""
    t_f = float(rng.uniform(0.0, 0.9))
    f = random_pdo(dim, rng, trace=t_f)
    t_extra = float(rng.uniform(0.0, 1.0 - t_f))
    if t_extra == 0.0:
        return f, f
    remainder = random_pdo(dim, rng, trace=t_extra)
    g = PartialDensityOperator(f.matrix + remainder.matrix)
    return f, g


def total_completion(
    f: PartialDensityOperator, rng: np.random.Generator
) -> PartialDensityOperator:
    """A density operator g >= f obtained by topping f up to trace one."""
    deficit = 1.0 - f.trace
    if deficit <= 0.0:
        return PartialDensityOperator(f.matrix)
    remainder = random_pdo(f.dim, rng, trace=deficit)
    g = f.matrix + remainder.matrix
    return PartialDensityOperator(0.5 * (g + g.conj().T))


def commuting_pair_product_spectrum(
    dims: tuple[int, int], rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Commuting Hermitian pair whose joint spectrum is a full product grid.

    The two operators share a random eigenbasis and their eigenvalue
    lists are constant along complementary tensor legs, as for
    observables of two distinct subsystems. For such pairs the spectrum
    of k*A + l*B is the full grid {k*a_i + l*b_j}, so the extremes of
    linear combinations are additive; for general commuting pairs they
    need not be.
    """
    n1, n2 = dims
    dim = n1 * n2
    a_eigs = np.kron(rng.uniform(-1.0, 1.0, size=n1), np.ones(n2))
    b_eigs = np.kron(np.ones(n1), rng.uniform(-1.0, 1.0, size=n2))
    u = random_unitary(dim, rng)
    a = (u * a_eigs) @ u.conj().T
    b = (u * b_eigs) @ u.conj().T
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def independent_pair(
    dim: int, rng: np.random.Generator
) -> tuple[PartialDensityOperator, PartialDensityOperator]:
    """An independent pair of random operators (not constructed comparable)."""
    return random_pdo(dim, rng), random_pdo(dim, rng)
