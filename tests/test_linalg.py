import numpy as np
import pytest

from qpartial import linalg, sampling
from qpartial.errors import CrossCheckError, DimensionMismatchError, NotHermitianError, NotPositiveError


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([42, test_id])


def random_complex_matrix(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestHermitianEig:
    def test_diagonal_input(self):
        w, _ = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        w, _ = linalg.hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0])

    def test_trace_identities(self):
        rng = rng_for(6)
        g = random_complex_matrix(8, rng)
        a = 0.5 * (g + g.conj().T)
        w, _ = linalg.hermitian_eig(a)
        assert abs(np.sum(w) - np.trace(a).real) < 1e-9
        assert abs(np.sum(w**2) - np.trace(a @ a).real) < 1e-9

    def test_certified_invariants(self):
        rng = rng_for(7)
        for n in (2, 5, 16):
            g = random_complex_matrix(n, rng)
            a = 0.5 * (g + g.conj().T)
            w, v = linalg.hermitian_eig(a)
            assert linalg.max_norm((v * w) @ v.conj().T - a) <= linalg.EIG_TOL
            assert linalg.max_norm(v.conj().T @ v - np.eye(n)) <= linalg.EIG_TOL
            assert np.all(np.diff(w) >= 0)

    def test_deterministic(self):
        a = 0.5 * (lambda g: g + g.conj().T)(random_complex_matrix(6, rng_for(8)))
        (w1, v1), (w2, v2) = linalg.hermitian_eig(a), linalg.hermitian_eig(a)
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)

    @pytest.mark.parametrize("norm, rejected", [(1.0, True), (0.5, True), (100.0, False)])
    def test_reconstruction_bound_is_relative_above_norm_one(self, monkeypatch, norm, rejected):
        # eigh's eigenvalues moved by 1e-8 with its eigenvectors kept: a
        # reconstruction defect of exactly 1e-8, orthonormality untouched
        solver = np.linalg.eigh

        def shifted(a):
            vals, vecs = solver(a)
            return vals + np.array([1e-8, 0.0, 0.0]), vecs

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        a = norm * np.diag([1.0, -0.5, 0.25])
        if rejected:
            with pytest.raises(CrossCheckError, match="reconstruction 1.000e-08"):
                linalg.hermitian_eig(a)
        else:
            assert linalg.hermitian_eig(a)[0][0] == pytest.approx(-0.5 * norm + 1e-8, abs=1e-15)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_overflowed_eigenvalue_is_rejected(self):
        # finite entries near the float maximum: the eigenvalue 2e308
        # overflows to inf, and the error comes before the reconstruction,
        # whose complex product with inf warns (an error in this suite)
        with pytest.raises(CrossCheckError, match="eigensolver overflowed"):
            linalg.hermitian_eig(np.full((2, 2), 1e308))

    def test_nan_reconstruction_is_rejected(self, monkeypatch):
        # a NaN in eigh's eigenvectors makes the reconstruction error NaN,
        # which no tolerance comparison may pass
        solver = np.linalg.eigh

        def poisoned(a):
            vals, vecs = solver(a)
            vecs = vecs.copy()
            vecs[0, 0] = np.nan
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        with pytest.raises(CrossCheckError, match="reconstruction nan"):
            linalg.hermitian_eig(np.diag([1.0, -0.5]))


class TestRequireHermitian:
    @pytest.mark.parametrize("norm", [0.5, 1.0, 1e9])
    @pytest.mark.parametrize("factor, accepted", [(0.9, True), (1.1, False)])
    def test_bound_scales_with_the_operator_above_norm_one(self, norm, factor, accepted):
        a = norm * np.diag([1.0, -0.5, 0.25]).astype(complex)
        a[0, 1] += factor * linalg.HERMITIAN_TOL * max(1.0, norm)
        if accepted:
            assert linalg.require_hermitian(a) is not None
        else:
            tol = linalg.HERMITIAN_TOL * max(1.0, norm)
            with pytest.raises(NotHermitianError, match=f"tol {tol:.1e}"):
                linalg.require_hermitian(a)

    def test_overflowed_deviation_is_rejected(self):
        # a - a+ overflows to inf at finite entries: rejected with no numpy
        # warning (an error in this suite)
        a = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(NotHermitianError, match="by inf"):
            linalg.require_hermitian(a)


@pytest.mark.parametrize("dim, rank", [(2, 1), (4, 3), (16, 16), (64, 5)])
def test_require_orthonormal_reads_numpys_frobenius_norm_of_the_gram_defect(monkeypatch, dim, rank):
    b = sampling.random_subspace(dim, rank, rng_for(40)).basis
    b = b + 1e-12 * rng_for(41).standard_normal(b.shape)
    norm = linalg.euclidean_norm
    seen = []
    monkeypatch.setattr(linalg, "euclidean_norm", lambda x: seen.append(norm(x)) or seen[-1])
    linalg.require_orthonormal(b)
    assert seen == [float(np.linalg.norm(b.conj().T @ b - np.eye(rank)))]


@pytest.mark.parametrize(
    "column",
    [
        # a NaN entry: the Gram product is NaN
        [np.nan, 0.0],
        # an inf entry with an imaginary part: inf * 0 in the Gram product
        [np.inf + 1j, 0.0],
        # finite, but its Gram product overflows
        [1e200 + 1e200j, 0.0],
    ],
)
def test_require_orthonormal_rejects_a_non_finite_defect(column):
    # NaN > tol is False, so the bound must read "not <= tol"; the Gram
    # product warns nothing (warnings are errors in this suite)
    with pytest.raises(CrossCheckError, match="not orthonormal"):
        linalg.require_orthonormal(np.array([column], dtype=complex).T)


class TestOrthonormalize:
    """Gram-Schmidt over vectors already coerced, to the column matrix."""

    def test_already_orthonormal(self):
        out = linalg.orthonormalize([np.array([1.0, 0.0j]), np.array([0.0, 1.0j])], 2)
        assert out.shape == (2, 2)
        assert np.allclose(out, [[1, 0], [0, 1j]])

    def test_duplicate_dropped(self):
        out = linalg.orthonormalize([np.array([1.0, 0.0j]), np.array([1.0, 0.0j])], 2)
        assert out.shape == (2, 1)

    def test_gram_matrix_and_span(self):
        rng = rng_for(9)
        vecs = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(5)]
        b = linalg.orthonormalize(vecs, 3)
        assert b.shape == (3, 3)
        assert linalg.max_norm(b.conj().T @ b - np.eye(3)) < 1e-10
        # every input reconstructs from the output basis
        for v in vecs:
            residual = v - b @ (b.conj().T @ v)
            assert np.linalg.norm(residual) < linalg.RANK_TOL

    def test_all_zero_inputs(self):
        out = linalg.orthonormalize([np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)], 3)
        assert out.shape == (3, 0) and out.dtype == complex
        assert linalg.orthonormalize([], 4).shape == (4, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("position", [0, 1])
    def test_non_finite_residual_norm_raises(self, bad, position):
        # a NaN residual is not dropped as if rank-deficient, nor is an inf
        # one divided by. In the second position the residual is NaN after
        # projection; neither warns
        vecs = [np.array([1.0, 1j]), np.array([bad, 1.0 + 0j])]
        with pytest.raises(ValueError, match="not finite"):
            linalg.orthonormalize(vecs[1 - position :], 2)


class TestAsVector:
    @pytest.mark.parametrize("shape", [(3,), (3, 1), (1, 3), (1, 3, 1)])
    def test_one_long_axis_is_read_as_the_entries(self, shape):
        v = linalg.as_vector(np.arange(3.0).reshape(shape))
        assert v.shape == (3,) and v.dtype == complex
        assert np.array_equal(v, [0, 1, 2])

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 1, 2)])
    def test_two_long_axes_are_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match="expected a vector"):
            linalg.as_vector(np.ones(shape))


class TestPositiveSemidefinite:
    def test_identity(self):
        h = np.eye(3, dtype=complex)
        assert linalg.require_psd_hermitian(h) is h

    def test_negative_direction_witness(self):
        with pytest.raises(NotPositiveError) as exc:
            linalg.require_psd_hermitian(np.diag([1.0, -0.5]).astype(complex))
        assert abs(abs(exc.value.witness[1]) - 1.0) < 1e-12
        assert exc.value.eigenvalue == -0.5

    def test_witness_is_valid(self):
        rng = rng_for(10)
        for _ in range(20):
            g = random_complex_matrix(4, rng)
            a = 0.5 * (g + g.conj().T)
            try:
                linalg.require_psd_hermitian(a)
            except NotPositiveError as exc:
                witness = exc.witness
                form = float((witness.conj() @ a @ witness).real)
                assert form < -linalg.PSD_TOL

    @pytest.mark.parametrize("lowest, ok", [(-2e-9, False), (-0.5e-9, True)])
    def test_the_floor_is_one_billionth(self, lowest, ok):
        # written out, not read from PSD_TOL: a looser floor, say 1e-6,
        # passes every verify suite and is caught here
        h = np.diag([0.5, lowest]).astype(complex)
        if ok:
            assert linalg.require_psd_hermitian(h) is h
        else:
            with pytest.raises(NotPositiveError):
                linalg.require_psd_hermitian(h)

    def test_psd_by_construction(self):
        rng = rng_for(11)
        g = random_complex_matrix(4, rng)
        f = g @ g.conj().T
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bigger = f + np.outer(v, v.conj())
        linalg.require_psd_hermitian(linalg.require_hermitian(bigger - f))


class TestKernelsMatchTheirNumpyForms:
    """The small-d kernels against the numpy expressions they replace, bit
    for bit, on seeded inputs."""

    SHAPES = [(1,), (5,), (2, 2), (3, 3), (4, 4), (16, 16), (64, 64), (64, 32)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_max_norm(self, shape):
        rng = rng_for(12)
        real = rng.standard_normal(shape)
        for a in (real, real + 1j * rng.standard_normal(shape), -np.abs(real)):
            assert linalg.max_norm(a) == float(np.max(np.abs(a)))
        assert linalg.max_norm(np.zeros((0, 0))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("imaginary", [False, True])
    def test_as_matrix_rejects_one_non_finite_part(self, bad, imaginary):
        m = np.zeros((3, 3), dtype=complex)
        m[1, 2] = complex(0.0, bad) if imaginary else complex(bad, 0.0)
        assert np.isfinite(m.real).all() == imaginary and np.isfinite(m.imag).all() != imaginary
        with pytest.raises(ValueError, match="non-finite"):
            linalg.as_matrix(m)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_euclidean_norm(self, shape):
        x = rng_for(13).standard_normal(shape) + 1j * rng_for(14).standard_normal(shape)
        assert linalg.euclidean_norm(x) == float(np.linalg.norm(x))

    @pytest.mark.parametrize("rows, cols", [(2, 2), (4, 3), (16, 16), (64, 32)])
    def test_gram_defect(self, rows, cols):
        v = np.linalg.qr(random_complex_matrix(rows, rng_for(15))[:, :cols])[0]
        expected = v.conj().T @ v - np.eye(cols)
        assert np.array_equal(linalg.gram_defect(v), expected)

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_orthonormalize_divides_by_numpys_norm(self, dim):
        rng = rng_for(16)
        vecs = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(dim + 2)]
        expected = []
        for v in vecs:
            w = v
            for _ in range(2):
                for u in expected:
                    w = w - u * np.vdot(u, w)
            norm = float(np.linalg.norm(w))
            if norm >= linalg.RANK_TOL:
                expected.append(w / norm)
        out = linalg.orthonormalize(vecs, dim)
        assert len(expected) == dim
        assert np.array_equal(out, np.column_stack(expected))
