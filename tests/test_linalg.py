import numpy as np
import pytest

from qpartial import linalg
from qpartial.errors import NotHermitianError


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([42, test_id])


def random_complex_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestHermitianEig:
    def test_diagonal_input(self):
        dec = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        dec = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_trace_identities(self):
        rng = rng_for(6)
        g = random_complex_matrix(8, rng)
        a = 0.5 * (g + g.conj().T)
        dec = linalg.hermitian_eig(a)
        assert abs(np.sum(dec.eigenvalues) - np.trace(a).real) < 1e-9
        assert abs(np.sum(dec.eigenvalues**2) - np.trace(a @ a).real) < 1e-9

    def test_certified_invariants(self):
        rng = rng_for(7)
        for n in (2, 5, 16):
            g = random_complex_matrix(n, rng)
            a = 0.5 * (g + g.conj().T)
            dec = linalg.hermitian_eig(a)
            assert linalg.max_norm(dec.reconstruct() - a) <= linalg.EIG_TOL
            assert linalg.max_norm(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(n)) <= linalg.EIG_TOL
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_deterministic(self):
        a = 0.5 * (lambda g: g + g.conj().T)(random_complex_matrix(6, rng_for(8)))
        d1, d2 = linalg.hermitian_eig(a), linalg.hermitian_eig(a)
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


class TestOrthonormalize:
    def test_already_orthonormal(self):
        out = linalg.orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert len(out) == 2
        assert np.allclose(out[0], [1, 0]) and np.allclose(out[1], [0, 1])

    def test_duplicate_dropped(self):
        out = linalg.orthonormalize([np.array([1.0, 0.0]), np.array([1.0, 0.0])])
        assert len(out) == 1

    def test_gram_matrix_and_span(self):
        rng = rng_for(9)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        out = linalg.orthonormalize(vecs)
        assert len(out) == 3
        b = np.column_stack(out)
        assert linalg.max_norm(b.conj().T @ b - np.eye(3)) < 1e-10
        # every input reconstructs from the output basis
        for v in vecs:
            residual = v - b @ (b.conj().T @ v)
            assert np.linalg.norm(residual) < linalg.RANK_TOL

    def test_all_zero_inputs(self):
        assert linalg.orthonormalize([np.zeros(3), np.zeros(3)]) == []


class TestPositiveSemidefinite:
    def test_identity(self):
        ok, witness = linalg.is_positive_semidefinite(np.eye(3))
        assert ok and witness is None

    def test_negative_direction_witness(self):
        ok, witness = linalg.is_positive_semidefinite(np.diag([1.0, -0.5]))
        assert not ok
        assert abs(abs(witness[1]) - 1.0) < 1e-12

    def test_witness_is_valid(self):
        rng = rng_for(10)
        for _ in range(20):
            g = random_complex_matrix(4, rng)
            a = 0.5 * (g + g.conj().T)
            ok, witness = linalg.is_positive_semidefinite(a)
            if not ok:
                form = float((witness.conj() @ a @ witness).real)
                assert form < linalg.PSD_TOL

    def test_psd_by_construction(self):
        rng = rng_for(11)
        g = random_complex_matrix(4, rng)
        f = g @ g.conj().T
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bigger = f + np.outer(v, v.conj())
        ok, _ = linalg.is_positive_semidefinite(bigger - f)
        assert ok
