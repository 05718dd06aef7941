import numpy as np
import pytest

from qpartial import linalg, sampling
from qpartial.density import PartialDensityOperator, scale
from qpartial.errors import CrossCheckError, DimensionMismatchError
from qpartial.logic import (
    ClosedSubspace,
    check_subprobability_axioms,
    gleason_measure,
    join,
    meet,
    orthocomplement,
    state_leq,
    subspace_from_vectors,
    subspace_leq,
)


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([11, test_id])


def basis_vec(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestClosedSubspace:
    def test_from_single_vector(self):
        k = subspace_from_vectors([basis_vec(0, 3)])
        assert np.allclose(k.projection, np.diag([1.0, 0.0, 0.0]))
        assert k.rank == 1

    def test_empty_family_is_zero_event(self):
        k = subspace_from_vectors([], dim=4)
        assert k.rank == 0
        assert linalg.max_norm(k.projection) == 0.0

    def test_spanning_family_gives_identity(self):
        k = subspace_from_vectors([np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2)])
        assert np.allclose(k.projection, np.eye(2), atol=1e-12)

    def test_rejects_non_projection(self):
        with pytest.raises(ValueError, match="idempotent"):
            ClosedSubspace(np.diag([0.5, 0.5]))

    def test_rank_by_thresholding(self):
        rng = rng_for(1)
        for rank in (1, 2, 3):
            k = sampling.random_subspace(4, rank, rng)
            assert k.rank == rank
            assert k.basis.shape == (4, rank)

    def test_basis_is_computed_once_on_first_use(self, count_eigensolves):
        p = sampling.random_subspace(4, 2, rng_for(21)).projection
        with count_eigensolves() as sizes:
            k = ClosedSubspace(p)
            assert sizes == []
            basis, rank = k.basis, k.rank
            assert k.basis is basis
        assert sizes == [4]
        vals, vecs = np.linalg.eigh(k.projection)
        assert rank == 2
        assert np.array_equal(basis, vecs[:, vals > 0.5])


class TestLattice:
    def test_join_with_bottom(self):
        rng = rng_for(2)
        k = sampling.random_subspace(3, 2, rng)
        joined = join(k, ClosedSubspace.zero(3))
        assert linalg.max_norm(joined.projection - k.projection) < 1e-10

    def test_orthogonal_join(self):
        k = join(subspace_from_vectors([basis_vec(0, 4)]), subspace_from_vectors([basis_vec(1, 4)]))
        assert np.allclose(k.projection, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)

    def test_join_rank_matches_svd_oracle(self):
        rng = rng_for(3)
        for _ in range(20):
            k1 = sampling.random_subspace(4, int(rng.integers(1, 4)), rng)
            k2 = sampling.random_subspace(4, int(rng.integers(1, 4)), rng)
            stacked = np.hstack([k1.basis, k2.basis])
            expected_rank = np.linalg.matrix_rank(stacked, tol=1e-10)
            assert join(k1, k2).rank == expected_rank

    def test_meet_with_top(self):
        rng = rng_for(4)
        k = sampling.random_subspace(3, 1, rng)
        met = meet(k, ClosedSubspace.full(3))
        assert linalg.max_norm(met.projection - k.projection) < 1e-8

    def test_orthogonal_meet_is_zero(self):
        met = meet(subspace_from_vectors([basis_vec(0, 3)]), subspace_from_vectors([basis_vec(1, 3)]))
        assert met.rank == 0

    def test_meet_membership_oracle(self):
        rng = rng_for(5)
        hits = 0
        for _ in range(10):
            k1 = sampling.random_subspace(3, 2, rng)
            k2 = sampling.random_subspace(3, 2, rng)
            met = meet(k1, k2)
            if met.rank == 1:
                hits += 1
                x = met.basis[:, 0]
                assert np.linalg.norm(k1.projection @ x - x) < 1e-8
                assert np.linalg.norm(k2.projection @ x - x) < 1e-8
        # two generic planes in dimension 3 intersect in a line
        assert hits == 10

    def test_orthocomplement_examples(self):
        assert orthocomplement(ClosedSubspace.zero(3)).rank == 3
        k = orthocomplement(ClosedSubspace(np.diag([1.0, 0.0])))
        assert np.allclose(k.projection, np.diag([0.0, 1.0]))

    def test_complement_is_not_revalidated(self, count_inits, count_eigensolves):
        k = sampling.random_subspace(4, 3, rng_for(15))
        with count_inits(ClosedSubspace) as inits, count_eigensolves() as sizes:
            q = orthocomplement(k)
        assert inits == [] and sizes == []
        assert q.projection.tobytes() == (np.eye(4) - k.projection).tobytes()
        assert not q.projection.flags.writeable
        assert q.rank == 1

    def test_double_complement(self):
        rng = rng_for(6)
        k = sampling.random_subspace(4, 2, rng)
        back = orthocomplement(orthocomplement(k))
        assert linalg.max_norm(back.projection - k.projection) <= 1e-12

    def test_de_morgan(self):
        rng = rng_for(7)
        k1 = sampling.random_subspace(4, 2, rng)
        k2 = sampling.random_subspace(4, 3, rng)
        left = orthocomplement(meet(k1, k2))
        right = join(orthocomplement(k1), orthocomplement(k2))
        assert linalg.max_norm(left.projection - right.projection) <= linalg.PROJ_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            join(ClosedSubspace.zero(2), ClosedSubspace.zero(3))


class TestGleasonMeasure:
    def test_zero_event_is_exactly_zero(self):
        f = sampling.random_pdo(3, rng_for(8))
        assert gleason_measure(f, ClosedSubspace.zero(3)) == 0.0

    def test_full_space_for_state_is_one(self):
        f = sampling.random_density(3, rng_for(9))
        assert gleason_measure(f, ClosedSubspace.full(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_example(self):
        f = PartialDensityOperator(np.diag([0.5, 0.25]))
        k = subspace_from_vectors([basis_vec(0, 2)])
        assert gleason_measure(f, k) == pytest.approx(0.5, abs=1e-15)

    def test_additive_on_orthogonal_events(self):
        rng = rng_for(10)
        f = sampling.random_pdo(4, rng)
        u = sampling.random_unitary(4, rng)
        k1 = subspace_from_vectors([u[:, 0], u[:, 1]], dim=4)
        k2 = subspace_from_vectors([u[:, 2]], dim=4)
        total = gleason_measure(f, k1) + gleason_measure(f, k2)
        assert gleason_measure(f, join(k1, k2)) == pytest.approx(total, abs=1e-9)

    def test_monotone_in_events(self):
        rng = rng_for(11)
        f = sampling.random_pdo(4, rng)
        u = sampling.random_unitary(4, rng)
        small = subspace_from_vectors([u[:, 0]], dim=4)
        large = subspace_from_vectors([u[:, 0], u[:, 1], u[:, 2]], dim=4)
        assert subspace_leq(small, large)
        assert gleason_measure(f, small) <= gleason_measure(f, large) + 1e-9

    def test_linear_in_the_state(self):
        rng = rng_for(12)
        f = sampling.random_pdo(3, rng)
        k = sampling.random_subspace(3, 2, rng)
        for r in (0.0, 0.3, 1.0):
            assert gleason_measure(scale(f, r), k) == pytest.approx(
                r * gleason_measure(f, k), abs=1e-10
            )

    def test_partial_state_view(self):
        f = sampling.random_pdo(3, rng_for(13), trace=0.6)
        assert gleason_measure(f, ClosedSubspace.full(3)) == pytest.approx(0.6, abs=1e-12)
        k = sampling.random_subspace(3, 1, rng_for(14))
        assert -linalg.PSD_TOL <= gleason_measure(f, k) <= 1 + linalg.PSD_TOL

    def test_corrupted_state_raises_cross_check(self):
        from qpartial.errors import CrossCheckError

        f = sampling.random_pdo(2, rng_for(20))
        f._matrix = np.array([[0.5, 0.5j], [0.5j, 0.25]], dtype=complex)  # bypass validation
        k = subspace_from_vectors([np.array([1.0, 1.0]) / np.sqrt(2)])
        with pytest.raises(CrossCheckError, match="imaginary"):
            gleason_measure(f, k)


class TestSubprobabilityAxioms:
    def test_zero_operator(self):
        report = check_subprobability_axioms(PartialDensityOperator.zero(3), trials=5, rng_seed=1)
        assert report.passed
        assert report.full_space_value == 0.0

    def test_maximally_mixed(self):
        report = check_subprobability_axioms(PartialDensityOperator.maximally_mixed(4), trials=5, rng_seed=2)
        assert report.passed
        assert report.full_space_value == pytest.approx(1.0, abs=1e-12)

    def test_random_operator_many_trials(self):
        f = sampling.random_pdo(4, rng_for(15))
        report = check_subprobability_axioms(f, trials=100, rng_seed=3)
        assert report.passed
        assert report.worst_additivity_deviation < 1e-8

    def test_report_serializes(self):
        f = sampling.random_pdo(2, rng_for(16))
        data = check_subprobability_axioms(f, trials=2, rng_seed=4).to_json()
        assert set(data) == {
            "trials",
            "seed",
            "zero_event_value",
            "full_space_value",
            "worst_additivity_deviation",
            "failures",
            "passed",
        }


class TestStateOrder:
    def test_reflexive(self):
        f = sampling.random_pdo(3, rng_for(17))
        ok, witness = state_leq(f, f)
        assert ok and witness is None

    def test_comparable_diagonals(self):
        f = PartialDensityOperator(np.diag([0.3, 0.3]))
        g = PartialDensityOperator(np.diag([0.5, 0.4]))
        assert state_leq(f, g)[0]

    def test_witness_separates_measures(self):
        f = PartialDensityOperator(np.diag([0.5, 0.0]))
        g = PartialDensityOperator(np.diag([0.0, 0.5]))
        ok, witness = state_leq(f, g)
        assert not ok
        assert witness.rank == 1
        assert np.allclose(witness.projection, np.diag([1.0, 0.0]), atol=1e-12)
        assert gleason_measure(f, witness) == pytest.approx(0.5)
        assert gleason_measure(g, witness) == pytest.approx(0.0)

    def test_loewner_agrees_with_sampled_measure_order(self):
        rng = rng_for(18)
        for dim in (2, 3, 4):
            for _ in range(10):
                f, g = sampling.loewner_pair(dim, rng)
                ok, _ = state_leq(f, g)
                assert ok
                for _ in range(20):
                    k = sampling.random_subspace(dim, int(rng.integers(1, dim)), rng)
                    assert gleason_measure(f, k) <= gleason_measure(g, k) + 1e-9

    def test_witness_on_random_incomparable_pairs(self):
        rng = rng_for(19)
        found = 0
        for _ in range(20):
            f, g = sampling.independent_pair(3, rng)
            ok, witness = state_leq(f, g)
            if not ok:
                found += 1
                assert gleason_measure(f, witness) - gleason_measure(g, witness) > 1e-9
        assert found > 0


def near_orthonormal_columns(eps: float, dim: int = 3) -> np.ndarray:
    """Columns e0 and e1 + s e0 with Gram matrix [[1, s], [s, 1 + s^2]], so
    that |B+B - I|_F = eps (s^2 rounds away): every entry of B+B - I stays
    below eps, and only the Frobenius norm reaches it."""
    s = eps / np.sqrt(2.0)
    return np.column_stack([basis_vec(0, dim), basis_vec(1, dim) + s * basis_vec(0, dim)])


class TestSpanCertificate:
    def test_join_and_meet_of_spans_run_no_eigensolve(self, count_inits, count_eigensolves):
        u = sampling.random_unitary(8, rng_for(30))
        k1 = subspace_from_vectors([u[:, i] for i in range(4)])
        k2 = subspace_from_vectors([u[:, i] for i in range(2, 6)])
        with count_inits(ClosedSubspace) as inits, count_eigensolves() as sizes:
            joined, met = join(k1, k2), meet(k1, k2)
            ranks = (k1.rank, k2.rank, joined.rank, met.rank)
        assert inits == [] and sizes == []
        assert ranks == (4, 4, 6, 2)
        shared = u[:, 2:4]
        assert linalg.max_norm(met.projection - shared @ shared.conj().T) <= 1e-12
        assert linalg.max_norm(met.basis.conj().T @ met.basis - np.eye(2)) <= 1e-12

    def test_state_leq_witness_at_d64_is_not_revalidated(self, count_inits):
        rng = rng_for(31)
        f, g = sampling.random_pdo(64, rng), sampling.random_pdo(64, rng)
        with count_inits(ClosedSubspace) as inits:
            ok, witness = state_leq(f, g)
        assert inits == [] and not ok
        assert witness.rank == 1
        assert gleason_measure(f, witness) > gleason_measure(g, witness)

    @pytest.mark.parametrize("margin, accepted", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_span_orthonormality_bound(self, monkeypatch, margin, accepted):
        # eps (1 + eps) = PROJ_TOL at eps just below PROJ_TOL
        eps = margin * linalg.PROJ_TOL * (1 - linalg.PROJ_TOL)
        columns = near_orthonormal_columns(eps)
        monkeypatch.setattr(linalg, "orthonormalize", lambda vectors: list(columns.T))
        vectors = [basis_vec(0, 3), basis_vec(1, 3)]
        if accepted:
            k = subspace_from_vectors(vectors)
            assert np.array_equal(k.basis, columns)
            assert linalg.max_norm(k.projection @ k.projection - k.projection) <= linalg.PROJ_TOL
        else:
            with pytest.raises(CrossCheckError, match="not orthonormal"):
                subspace_from_vectors(vectors)


class TestMeasureKernel:
    @pytest.mark.parametrize("dim", [2, 3, 4, 16, 64])
    def test_matches_trace_of_product(self, dim):
        rng = rng_for(40 + dim)
        for _ in range(5):
            f = sampling.random_pdo(dim, rng)
            k = sampling.random_subspace(dim, int(rng.integers(1, dim + 1)), rng)
            assert abs(gleason_measure(f, k) - np.trace(k.projection @ f.matrix).real) <= 1e-14

    def test_projection_hermitian_only_within_tolerance(self):
        dim = 64
        rng = rng_for(41)
        p = sampling.random_subspace(dim, 20, rng).projection
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        skew = g - g.conj().T
        skew *= 0.45 * linalg.HERMITIAN_TOL / linalg.max_norm(skew)
        k = ClosedSubspace(p + skew)
        # a state aligned with the anti-Hermitian part, which gives tr(P f)
        # an imaginary part inside IMAG_TOL
        h = 1j * skew / linalg.max_norm(skew)
        h += (0.1 - np.linalg.eigvalsh(h)[0]) * np.eye(dim)
        f = PartialDensityOperator(h / np.trace(h).real)
        assert linalg.max_norm(k.projection - k.projection.conj().T) == pytest.approx(
            0.9 * linalg.HERMITIAN_TOL, rel=1e-6
        )
        exact = np.trace(k.projection @ f.matrix)
        assert 1e-11 < abs(exact.imag) < linalg.IMAG_TOL
        assert abs(gleason_measure(f, k) - exact.real) <= 1e-14
