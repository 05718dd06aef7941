import math

import numpy as np
import pytest

from qpartial import linalg, sampling
from qpartial.density import PartialDensityOperator, loewner_leq, nontermination_probability, scale
from qpartial.errors import CrossCheckError, DimensionMismatchError, NotHermitianError
from qpartial.intervals import (
    CompactInterval,
    add_intervals,
    directed_intersection,
    reverse_inclusion_leq,
    scale_interval,
    translate,
)
from qpartial.logic import ClosedSubspace, join
from qpartial.observables import (
    BoundedObservable,
    _expectations,
    _weights,
    distribution,
    e0,
    expected_interval,
    expected_interval_op,
    missing_mass_interval,
    observable_square_interval,
    pvm_map,
    spectrum_bounds,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def large_norm_product(dim: int, norm: float = 1e9) -> np.ndarray:
    """U D U+ for a random unitary U and D spread evenly over [-norm, norm],
    multiplied out in numpy, so Hermitian only up to its rounding."""
    u = sampling.random_unitary(dim, np.random.default_rng([7, dim]))
    return (u * (norm * np.linspace(-1.0, 1.0, dim))) @ u.conj().T


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([13, test_id])


class TestSpectralData:
    def test_pauli_z(self):
        r = BoundedObservable(PAULI_Z)
        assert r.eigenvalues == [-1.0, 1.0]
        low, high = r.spectral
        assert np.allclose(low[1].projection, np.diag([0.0, 1.0]))
        assert np.allclose(high[1].projection, np.diag([1.0, 0.0]))

    def test_identity_has_single_projection(self):
        r = BoundedObservable(np.eye(3))
        assert len(r.spectral) == 1
        assert r.spectral[0][0] == pytest.approx(1.0)
        assert r.spectral[0][1].rank == 3

    def test_invariants_on_random_input(self):
        rng = rng_for(1)
        a = sampling.random_hermitian(6, rng)
        r = BoundedObservable(a)
        resolution = sum(k.projection for _, k in r.spectral)
        recon = sum(lam * k.projection for lam, k in r.spectral)
        assert linalg.max_norm(resolution - np.eye(6)) <= 1e-9
        assert linalg.max_norm(recon - a) <= 1e-9
        for i, (_, ki) in enumerate(r.spectral):
            for _, kj in r.spectral[i + 1 :]:
                assert linalg.max_norm(ki.projection @ kj.projection) <= linalg.PROJ_TOL

    def test_degenerate_eigenvalues_grouped(self):
        r = BoundedObservable(np.diag([2.0, 1.0, 1.0]))
        assert len(r.spectral) == 2
        assert r.spectral[0][1].rank == 2

    def test_finer_grouping_leaves_expectations_unchanged(self, monkeypatch):
        rng = rng_for(2)
        a = np.diag([1.0, 1.0 + 1e-12, 3.0]).astype(complex)
        f = sampling.random_pdo(3, rng)
        coarse = BoundedObservable(a)
        monkeypatch.setattr(linalg, "EIG_GROUP_TOL", 1e-14)
        fine = BoundedObservable(a)
        assert len(fine.spectral) > len(coarse.spectral)
        a_int = expected_interval(coarse, f)
        b_int = expected_interval(fine, f)
        assert a_int.lo == pytest.approx(b_int.lo, abs=1e-10)
        assert a_int.hi == pytest.approx(b_int.hi, abs=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            BoundedObservable(np.array([[0, 1], [0, 0]], dtype=complex))

    # every consecutive gap is within EIG_GROUP_TOL = 1e-8, so all but the
    # top eigenvalue share one eigenprojection
    @pytest.mark.parametrize(
        "values", [[0.0, 3e-9, 1.0], [0.0, 5e-9, 1.0], [0.0, 9e-9, 1.0], [0.0, 8e-9, 1.6e-8, 1.0]]
    )
    def test_near_degenerate_spectrum_is_grouped(self, values):
        r = BoundedObservable(np.diag(values))
        n = len(values)
        (low, low_k), (high, high_k) = r.spectral
        assert low == pytest.approx(np.mean(values[:-1]), rel=1e-12)
        assert high == 1.0
        assert low_k.rank == n - 1
        assert np.allclose(low_k.projection, np.diag([1.0] * (n - 1) + [0.0]))
        f = PartialDensityOperator(np.eye(n) / n)
        assert e0(r, f) == pytest.approx(np.sum(values) / n, abs=1e-15)

    # the reconstruction error here is 1.3e-8, above the absolute EIG_TOL
    # but a relative error of 6e-16: hermitian_eig scales its bound by |A|
    def test_large_norm_observable_accepted(self):
        a = 1e7 * np.array(
            [
                [1.0, 0.5 - 0.25j, 0.0, 0.2],
                [0.5 + 0.25j, -0.5, 0.1j, 0.0],
                [0.0, -0.1j, 2.0, 0.3],
                [0.2, 0.0, 0.3, -1.0],
            ]
        )
        r = BoundedObservable(a)
        assert e0(r, PartialDensityOperator.maximally_mixed(4)) == pytest.approx(1.5e7 / 4, rel=1e-12)

    @pytest.mark.parametrize("dim", [16, 64])
    def test_large_norm_random_observable_accepted(self, dim):
        a = 1e6 * sampling.random_observable(dim, np.random.default_rng(0)).operator
        r = BoundedObservable(a)
        f = PartialDensityOperator.maximally_mixed(dim)
        assert e0(r, f) == pytest.approx(np.trace(a).real / dim, rel=1e-12)

    # U D U+ built in floating point at norm 1e9 misses Hermitian by about
    # 5e-8, past the unscaled HERMITIAN_TOL; the bound scales with |A|
    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_large_norm_product_observable_accepted(self, dim):
        a = large_norm_product(dim)
        assert linalg.max_norm(a - a.conj().T) > linalg.HERMITIAN_TOL
        r = BoundedObservable(a)
        lowest, highest = np.linalg.eigvalsh(a)[[0, -1]]
        assert spectrum_bounds(r) == pytest.approx((lowest, highest), rel=1e-12)
        box = expected_interval(r, PartialDensityOperator(np.eye(dim) / (2 * dim)))
        assert box.lo == pytest.approx(np.trace(a).real / (2 * dim) + 0.5 * lowest, rel=1e-12)

    def test_spectrum_wider_than_the_float_maximum_has_two_groups(self):
        # the eigenvalues -+sqrt(2) 1e308 are finite, their gap overflows to
        # inf: it starts a group, with no numpy warning (an error here)
        r = BoundedObservable(np.array([[-1e308, 1e308], [1e308, 1e308]]))
        values = [lam for lam, _ in r.spectral]
        assert values == pytest.approx([-1.4142135623730951e308, 1.4142135623730951e308], rel=1e-15)

    def test_one_eigensolve_per_observable(self, count_eigensolves):
        a = sampling.random_hermitian(64, rng_for(21))
        with count_eigensolves() as sizes:
            r = BoundedObservable(a)
        assert len(r.spectral) == 64
        assert sizes == [64]


class TestEigenprojectionCertificate:
    def test_eigenprojections_are_built_from_their_columns(self, count_inits, count_eigensolves):
        a = sampling.random_hermitian(64, rng_for(22))
        with count_inits(ClosedSubspace) as inits, count_eigensolves() as sizes:
            r = BoundedObservable(a)
            assert len(r.spectral) == 64
            assert sizes == [64] and inits == []
            ranks = [k.rank for _, k in r.spectral]
            bases = [k.basis for _, k in r.spectral]
        assert sizes == [64] and inits == []
        assert ranks == [1] * 64
        for (_, k), b in zip(r.spectral, bases):
            assert np.array_equal(k.projection, b @ b.conj().T)

    def test_near_degenerate_group_still_accepted(self, count_inits):
        with count_inits(ClosedSubspace) as inits:
            r = BoundedObservable(np.diag([0.0, 5e-9, 1.0]))
        assert inits == []
        assert [k.rank for _, k in r.spectral] == [2, 1]

    @staticmethod
    def fake_eigh(monkeypatch, values, vecs) -> np.ndarray:
        """Make ``np.linalg.eigh`` return the given eigenvalues and columns,
        and return the operator V diag(values) V+ they reconstruct, so that
        only the columns' orthonormality is in question."""
        values = np.array(values)
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (values, vecs))
        return (vecs * values) @ vecs.conj().T

    @pytest.mark.parametrize("margin, accepted", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_group_orthonormality_bound(self, monkeypatch, margin, accepted):
        # eps (1 + eps) = PROJ_TOL at eps just below PROJ_TOL
        eps = margin * linalg.PROJ_TOL * (1 - linalg.PROJ_TOL)
        s = eps / np.sqrt(2.0)
        # the degenerate pair's columns have Gram matrix [[1, s], [s, 1 + s^2]];
        # s is past EIG_TOL, so this is the span rule, not a max-norm bound
        vecs = np.eye(3, dtype=complex)
        vecs[0, 1] = s
        assert s > linalg.EIG_TOL
        a = self.fake_eigh(monkeypatch, [1.0, 1.0, 2.0], vecs)
        if accepted:
            r = BoundedObservable(a)
            assert np.array_equal(r.spectral[0][1].basis, vecs[:, :2])
        else:
            with pytest.raises(CrossCheckError, match="not orthonormal"):
                BoundedObservable(a)

    def operator_with_defect(self, monkeypatch, values, row, col) -> np.ndarray:
        """Identity columns with entry (row, col) set, so that columns row
        and col have Gram defect eps just past the bound, eps (1 + eps) >
        PROJ_TOL, returned by a faked eigensolver with the given values."""
        eps = (1 + 1e-6) * linalg.PROJ_TOL * (1 - linalg.PROJ_TOL)
        vecs = np.eye(len(values), dtype=complex)
        vecs[row, col] = eps / np.sqrt(2.0)
        return self.fake_eigh(monkeypatch, values, vecs)

    def test_defect_inside_the_middle_group_is_rejected(self, monkeypatch):
        a = self.operator_with_defect(monkeypatch, [0.0, 1.0, 1.0, 2.0], 1, 2)
        with pytest.raises(CrossCheckError, match="not orthonormal"):
            BoundedObservable(a)

    def test_defect_between_groups_is_rejected_at_construction(self, monkeypatch):
        # neither group's own columns see the defect, but V's certificate,
        # which every group and event inherits, does
        a = self.operator_with_defect(monkeypatch, [1.0, 1.0, 2.0], 1, 2)
        with pytest.raises(CrossCheckError, match="not orthonormal"):
            BoundedObservable(a)

    def test_columns_are_certified_once(self, count_calls):
        a = sampling.random_hermitian(16, rng_for(24))
        with count_calls(linalg, "gram_defect") as defects:
            r = BoundedObservable(a)
            assert len(defects) == 1
            ranks = [pvm_map(r, lambda x: x > 0).rank, pvm_map(r, lambda x: True).rank]
            assert [k.rank for _, k in r.spectral] == [1] * 16
        assert len(defects) == 1
        assert ranks == [sum(lam > 0 for lam in r.eigenvalues), 16]

    def test_pvm_events_are_spans_of_the_selected_columns(self, count_inits, count_eigensolves):
        r = sampling.random_observable(16, rng_for(23))
        m, big_m = spectrum_bounds(r)
        cut = 0.5 * (m + big_m)
        with count_inits(ClosedSubspace) as inits, count_eigensolves() as sizes:
            low = pvm_map(r, lambda x: m <= x <= cut)
            ranks = (pvm_map(r, lambda x: False).rank, low.rank, pvm_map(r, lambda x: True).rank)
        assert inits == [] and sizes == []
        selected = [k for lam, k in r.spectral if lam <= cut]
        assert ranks == (0, len(selected), 16)
        total = sum(k.projection for k in selected)
        assert linalg.max_norm(low.projection - total) <= 1e-14


class TestPvmMap:
    def test_empty_set(self):
        r = BoundedObservable(PAULI_Z)
        assert pvm_map(r, lambda x: False).rank == 0

    def test_whole_line(self):
        r = BoundedObservable(PAULI_Z)
        assert pvm_map(r, lambda x: True).rank == 2

    def test_pauli_z_positive_halfline(self):
        r = BoundedObservable(PAULI_Z)
        k = pvm_map(r, lambda x: 0.0 <= x <= 2.0)
        assert np.allclose(k.projection, np.diag([1.0, 0.0]))

    def test_boundedness_interval(self):
        rng = rng_for(3)
        r = sampling.random_observable(5, rng)
        m, big_m = spectrum_bounds(r)
        a = max(abs(m), abs(big_m))
        assert pvm_map(r, lambda x: -a <= x <= a).rank == 5

    def test_disjoint_sets_orthogonal_union_joins(self):
        rng = rng_for(4)
        r = sampling.random_observable(4, rng)
        m, big_m = spectrum_bounds(r)
        cut = 0.5 * (m + big_m)
        k_low, k_high = pvm_map(r, lambda x: x <= cut), pvm_map(r, lambda x: x > cut)
        assert linalg.max_norm(k_low.projection @ k_high.projection) <= linalg.PROJ_TOL
        union = pvm_map(r, lambda x: x <= cut or x > cut)
        assert linalg.max_norm(union.projection - join(k_low, k_high).projection) <= linalg.PROJ_TOL

    def test_indicator_of_a_scattered_eigenvalue_subset(self):
        # a set given by membership alone, eigenvalues 0, 2, 3 and 6 of a
        # random d = 8 observable, and its complement by the negated indicator
        r = sampling.random_observable(8, rng_for(25))
        chosen = {r.eigenvalues[i] for i in (0, 2, 3, 6)}

        def u(x):
            return x in chosen

        k_in, k_out = pvm_map(r, u), pvm_map(r, lambda x: not u(x))
        assert linalg.max_norm(k_in.projection @ k_out.projection) <= linalg.PROJ_TOL
        assert linalg.max_norm(join(k_in, k_out).projection - np.eye(8)) <= linalg.PROJ_TOL
        assert k_in.rank + k_out.rank == 8


class TestSpectrumBounds:
    def test_examples(self):
        assert spectrum_bounds(BoundedObservable(PAULI_Z)) == (-1.0, 1.0)
        assert spectrum_bounds(BoundedObservable(np.eye(2))) == (1.0, 1.0)
        m, big_m = spectrum_bounds(BoundedObservable(np.diag([2.0, 5.0, 3.0])))
        assert (m, big_m) == (2.0, 5.0)


def total_weight(dist) -> float:
    """Sum of a distribution's weights, in eigenvalue order."""
    return sum(w for _, w in dist)


class TestDistribution:
    def test_zero_state(self):
        r = BoundedObservable(PAULI_Z)
        d = distribution(r, PartialDensityOperator.zero(2))
        assert total_weight(d) == 0.0
        assert all(w == 0.0 for _, w in d)

    def test_pauli_z_weights(self):
        r = BoundedObservable(PAULI_Z)
        d = distribution(r, PartialDensityOperator(np.diag([0.5, 0.25])))
        weights = dict(d)
        assert weights[-1.0] == pytest.approx(0.25)
        assert weights[1.0] == pytest.approx(0.5)
        assert total_weight(d) == pytest.approx(0.75)

    def test_state_gives_probability_distribution(self):
        rng = rng_for(5)
        r = sampling.random_observable(3, rng)
        f = sampling.random_pdo(3, rng, trace=1.0)
        assert total_weight(distribution(r, f)) == pytest.approx(1.0, abs=1e-10)

    def test_rank_two_group_at_the_psd_floor_keeps_its_negative_weight(self):
        # f passes the PSD test, yet the eigenvalue-1 group of A has rank 2,
        # so its weight is -1.8e-9, below -PSD_TOL; it is returned as it is
        r = BoundedObservable(np.diag([2.0, 3.0, 1.0, 1.0]))
        f = PartialDensityOperator(np.diag([0.999, 0.0, -9e-10, -9e-10]))
        weights = dict(distribution(r, f))
        assert weights[1.0] == pytest.approx(-1.8e-9, rel=1e-9)
        assert weights[1.0] < -linalg.PSD_TOL
        assert e0(r, f) == pytest.approx(1.9979999982, abs=1e-15)

    def test_weights_are_the_eigenprojections_measures_on_a_degenerate_spectrum(self):
        # multiplicities 1 to 4, and a pair 5e-9 apart that shares one group
        ranks = [1, 2, 3, 4, 1, 2, 1, 2]
        lams = np.repeat([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0], ranks)
        lams[-1] += 5e-9
        rng = rng_for(26)
        u = sampling.random_unitary(16, rng)
        a = (u * lams) @ u.conj().T
        f = sampling.random_pdo(16, rng)
        r = BoundedObservable(a)
        d = distribution(r, f)
        assert [k.rank for _, k in r.spectral] == ranks
        for (lam, w), (mu, k) in zip(d, r.spectral, strict=True):
            assert lam == mu
            assert abs(w - np.einsum("ij,ji->", k.projection, f.matrix).real) <= 1e-14
        assert abs(total_weight(d) - f.trace) <= 1e-12
        vals, _ = linalg.hermitian_eig(a)
        for lam, group in zip(r.eigenvalues, np.split(vals, np.cumsum(ranks)[:-1]), strict=True):
            assert abs(lam - np.mean(group)) <= 1e-15

    def test_state_with_trace_at_the_boundary(self):
        # tr f = 1 + PSD_TOL exactly; the weights sum to it only up to
        # rounding, a few ulps above 1 + PSD_TOL for this seed
        rng = np.random.default_rng(4)
        u = sampling.random_unitary(64, rng)
        lams = rng.uniform(0.1, 1.0, 64)
        lams *= (1.0 + linalg.PSD_TOL) / lams.sum()
        f = PartialDensityOperator((u * lams) @ u.conj().T)
        r = sampling.random_observable(64, rng)
        d = distribution(r, f)
        assert total_weight(d) > 1.0 + linalg.PSD_TOL
        assert total_weight(d) == pytest.approx(f.trace, abs=1e-14)
        assert e0(r, f) == pytest.approx(float(np.trace(r.operator @ f.matrix).real), abs=1e-12)


class TestE0:
    def test_zero_state(self):
        assert e0(BoundedObservable(PAULI_Z), PartialDensityOperator.zero(2)) == 0.0

    def test_pauli_z_example(self):
        value = e0(BoundedObservable(PAULI_Z), PartialDensityOperator(np.diag([0.5, 0.25])))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_identity_gives_trace(self):
        rng = rng_for(6)
        f = sampling.random_pdo(4, rng)
        assert e0(BoundedObservable(np.eye(4)), f) == pytest.approx(f.trace, abs=1e-10)

    def test_matches_trace_form(self):
        rng = rng_for(7)
        for _ in range(20):
            r = sampling.random_observable(4, rng)
            f = sampling.random_pdo(4, rng)
            assert e0(r, f) == pytest.approx(float(np.trace(r.operator @ f.matrix).real), abs=1e-9)

    def test_weights_at_the_psd_floor_are_not_clamped(self):
        # 60 weights of -0.9 PSD_TOL on eigenvalues in [8, 16]: clamping them
        # to 0 would move the spectral sum by more than E0_CROSS_TOL
        dim = 64
        u = sampling.random_unitary(dim, rng_for(24))
        lams = np.concatenate([np.linspace(8.0, 16.0, 60), [-1.0, 0.0, 1.0, 2.0]])
        weights = np.concatenate([np.full(60, -0.9 * linalg.PSD_TOL), np.full(4, 0.25)])
        r = BoundedObservable((u * lams) @ u.conj().T)
        f = PartialDensityOperator((u * weights) @ u.conj().T)
        floor = [(lam, w) for lam, w in distribution(r, f) if lam >= 7.0]
        assert len(floor) == 60
        assert all(-linalg.PSD_TOL < w < 0.0 for _, w in floor)
        assert sum(-lam * w for lam, w in floor) > linalg.E0_CROSS_TOL
        assert e0(r, f) == pytest.approx(float(np.trace(r.operator @ f.matrix).real), abs=1e-12)

    @pytest.mark.parametrize("dim", [16, 64])
    def test_cross_check_scales_with_the_observable(self, dim):
        # at |A| about 1e9 the two sums part by rounding alone, about 1e-14
        # |A| (6e-14 |A| at these seeds): more than a fixed E0_CROSS_TOL,
        # far within E0_CROSS_TOL |A|
        a = 1e9 * sampling.random_observable(dim, np.random.default_rng(0)).operator
        f = sampling.random_pdo(dim, np.random.default_rng(1))
        assert 1e-14 * linalg.max_norm(a) > linalg.E0_CROSS_TOL
        value = e0(BoundedObservable(a), f)
        assert abs(value - float(np.trace(a @ f.matrix).real)) <= 1e-12 * linalg.max_norm(a)

    @pytest.mark.parametrize("dim", [2, 4, 16, 64])
    def test_spectral_sums_add_left_to_right(self, dim):
        # the reference adds one term at a time, from the lowest eigenvalue
        # up; Python's sum compensates from 3.12 on, so it is not used
        rng = rng_for(25)
        r = sampling.random_observable(dim, rng)
        stack = np.stack([sampling.random_pdo(dim, rng).matrix for _ in range(5)])
        expected = []
        for weights in _weights(r, stack).tolist():
            total = 0.0
            for lam, w in zip(r.eigenvalues, weights):
                total += lam * w
            expected.append(total)
        assert _expectations(r, stack) == expected

    def test_zero_state_under_a_negative_spectrum_is_positive_zero(self):
        # every term is -0.0, and a sum from the start value 0 is 0.0
        r = BoundedObservable(np.diag([-2.0, -1.0]))
        value = e0(r, PartialDensityOperator.zero(2))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_cross_check_names_the_first_diverging_matrix(self):
        r = BoundedObservable(PAULI_Z)
        r._operator = np.diag([5.0, -1.0]).astype(complex)
        stack = np.stack([np.zeros((2, 2)), np.diag([0.5, 0.0]), np.diag([0.25, 0.0])]).astype(complex)
        with pytest.raises(CrossCheckError, match=r"^spectral expectation 0\.5 and trace form 2\.5 diverge$"):
            _expectations(r, stack)

    def test_corrupted_spectral_cache_raises(self):
        r = BoundedObservable(PAULI_Z)
        r._operator = np.diag([5.0, -1.0]).astype(complex)  # desync operator from cache
        with pytest.raises(CrossCheckError, match="diverge"):
            e0(r, PartialDensityOperator.maximally_mixed(2))


class TestExpectedInterval:
    def test_total_ignorance(self):
        rng = rng_for(8)
        r = sampling.random_observable(3, rng)
        m, big_m = spectrum_bounds(r)
        box = expected_interval(r, PartialDensityOperator.zero(3))
        assert box == CompactInterval(m, big_m)

    def test_classical_case_degenerates(self):
        rng = rng_for(9)
        r = sampling.random_observable(3, rng)
        f = sampling.random_pdo(3, rng, trace=1.0)
        box = expected_interval(r, f)
        assert box.width <= 1e-10
        assert box.lo == pytest.approx(float(np.trace(r.operator @ f.matrix).real), abs=1e-10)

    def test_pauli_z_hand_computation(self):
        box = expected_interval(BoundedObservable(PAULI_Z), PartialDensityOperator(np.diag([0.5, 0.25])))
        assert box.lo == pytest.approx(0.0, abs=1e-12)
        assert box.hi == pytest.approx(0.5, abs=1e-12)

    def test_operator_entry_point_identical(self):
        rng = rng_for(10)
        a = sampling.random_hermitian(4, rng)
        f = sampling.random_pdo(4, rng)
        assert expected_interval_op(a, f) == expected_interval(BoundedObservable(a), f)

    def test_scalar_observable_degenerates(self):
        f = sampling.random_pdo(3, rng_for(11), trace=0.4)
        box = expected_interval_op(2.0 * np.eye(3), f)
        assert box.lo == pytest.approx(box.hi)
        assert box.lo == pytest.approx(2.0 * 0.4 + 0.6 * 2.0)

    def test_summary_fields(self):
        r = BoundedObservable(PAULI_Z)
        f = PartialDensityOperator(np.diag([0.5, 0.25]))
        m, big_m = spectrum_bounds(r)
        box = missing_mass_interval(e0(r, f), f, m, big_m)
        fields = (box.lo, box.hi, e0(r, f), nontermination_probability(f), m, big_m)
        assert fields == pytest.approx((0.0, 0.5, 0.25, 0.25, -1.0, 1.0))
        assert box == expected_interval(r, f)


class TestMissingMassInterval:
    def test_matches_the_interval_arithmetic_it_replaces(self):
        rng = rng_for(14)
        states = [PartialDensityOperator.zero(3), PartialDensityOperator.maximally_mixed(3)]
        states += [sampling.random_pdo(3, rng, trace=float(t)) for t in rng.uniform(0.0, 1.0, size=20)]
        for f in states:
            center = float(rng.uniform(-5, 5))
            lo, hi = sorted(rng.uniform(-5, 5, size=2))
            p = nontermination_probability(f)
            expected = translate(center, scale_interval(p, CompactInterval(lo, hi)))
            assert missing_mass_interval(center, f, lo, hi) == expected

    def test_rejects_lo_above_hi_when_mass_is_missing(self):
        with pytest.raises(ValueError, match="empty interval"):
            missing_mass_interval(0.0, PartialDensityOperator(np.diag([0.5, 0.25])), 1.0, -1.0)


class TestMonotonicityAndContinuity:
    def test_expected_interval_monotone(self):
        rng = rng_for(12)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            r = sampling.random_observable(dim, rng)
            f, g = sampling.loewner_pair(dim, rng)
            assert reverse_inclusion_leq(expected_interval(r, f), expected_interval(r, g))

    def test_scott_continuity_along_geometric_chain(self):
        rng = rng_for(13)
        r = sampling.random_observable(3, rng)
        f = sampling.random_pdo(3, rng, trace=0.8)
        chain = [scale(f, 1.0 - 2.0**-n) for n in range(1, 40)]
        boxes = [expected_interval(r, fn) for fn in chain]
        limit = directed_intersection(boxes)
        target = expected_interval(r, f)
        assert limit.lo == pytest.approx(target.lo, abs=1e-6)
        assert limit.hi == pytest.approx(target.hi, abs=1e-6)

    def test_e0_converges_and_sup_form_for_nonnegative_spectrum(self):
        rng = rng_for(14)
        a = sampling.random_hermitian(3, rng)
        a = a - np.linalg.eigvalsh(a)[0] * np.eye(3)  # spectrum >= 0
        r = BoundedObservable(a)
        f = sampling.random_pdo(3, rng, trace=0.7)
        values = [e0(r, scale(f, 1.0 - 2.0**-n)) for n in range(1, 40)]
        assert max(values) == pytest.approx(e0(r, f), abs=1e-8)
        assert values == sorted(values)

    def test_containment_of_total_completions(self):
        rng = rng_for(15)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            r = sampling.random_observable(dim, rng)
            f = sampling.random_pdo(dim, rng, trace=float(rng.uniform(0.0, 0.99)))
            g = sampling.total_completion(f, rng)
            ok, _ = loewner_leq(f, g)
            assert ok and g.trace == pytest.approx(1.0, abs=1e-9)
            value = float(np.trace(r.operator @ g.matrix).real)
            box = expected_interval(r, f)
            assert box.lo - 1e-9 <= value <= box.hi + 1e-9


class TestShiftByLinearity:
    # the identity verify's interval suite reads its nonnegative-spectrum
    # e0 net by; the fresh observable of A + t I is the reference
    @pytest.mark.parametrize("dim", [2, 3, 4, 16])
    @pytest.mark.parametrize("t", [0.0, 0.7, 3.0])
    def test_e0_of_a_plus_t_is_e0_plus_t_trace(self, dim, t):
        rng = rng_for(26)
        r = sampling.random_observable(dim, rng)
        fresh = BoundedObservable(r.operator + t * np.eye(dim))
        for _ in range(5):
            g = sampling.random_pdo(dim, rng)
            assert e0(r, g) + t * g.trace == pytest.approx(e0(fresh, g), abs=1e-12)


class TestLinearity:
    def test_product_spectrum_pairs_exact(self):
        rng = rng_for(16)
        for _ in range(50):
            a, b = sampling.commuting_pair_product_spectrum((2, 2), rng)
            assert linalg.max_norm(a @ b - b @ a) <= 1e-9
            f = sampling.random_pdo(4, rng)
            k = float(rng.uniform(-3, 3))
            ell = float(rng.uniform(-3, 3))
            left = expected_interval_op(k * a + ell * b, f)
            right = add_intervals(
                scale_interval(k, expected_interval_op(a, f)),
                scale_interval(ell, expected_interval_op(b, f)),
            )
            assert left.lo == pytest.approx(right.lo, abs=1e-9)
            assert left.hi == pytest.approx(right.hi, abs=1e-9)

    def test_general_commuting_pairs_only_contain(self):
        # without the product-spectrum structure, the combined interval is
        # contained in the interval-arithmetic sum but need not equal it
        rng = rng_for(17)
        for _ in range(30):
            u = sampling.random_unitary(3, rng)
            a = u @ np.diag(rng.uniform(-1, 1, size=3)) @ u.conj().T
            b = u @ np.diag(rng.uniform(-1, 1, size=3)) @ u.conj().T
            a, b = 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)
            assert linalg.max_norm(a @ b - b @ a) <= 1e-9
            f = sampling.random_pdo(3, rng, trace=0.5)
            k, ell = 1.0, 1.0
            left = expected_interval_op(k * a + ell * b, f)
            right = add_intervals(
                scale_interval(k, expected_interval_op(a, f)),
                scale_interval(ell, expected_interval_op(b, f)),
            )
            assert right.lo <= left.lo + 1e-9 and left.hi <= right.hi + 1e-9

    def test_extreme_additivity_fails_off_product_class(self):
        # A = diag(0,1) and B = diag(1,0) commute, yet A + B = I has
        # spectrum {1}, not {0} + {0}: endpoint additivity needs the
        # product-spectrum structure
        a, b = np.diag([0.0, 1.0]), np.diag([1.0, 0.0])
        assert linalg.max_norm(a @ b - b @ a) <= 1e-10
        f = PartialDensityOperator.zero(2)
        combined = expected_interval_op(a + b, f)
        summed = add_intervals(expected_interval_op(a, f), expected_interval_op(b, f))
        assert combined == CompactInterval(1.0, 1.0)
        assert summed == CompactInterval(0.0, 2.0)
        assert combined != summed


class TestSquareLaw:
    def test_pauli_z_square_is_certain(self):
        rng = rng_for(18)
        for trace in (0.0, 0.3, 1.0):
            f = sampling.random_pdo(2, rng, trace=trace)
            box = observable_square_interval(PAULI_Z, f)
            assert box.lo == pytest.approx(1.0, abs=1e-10)
            assert box.hi == pytest.approx(1.0, abs=1e-10)

    def test_pure_ignorance(self):
        box = observable_square_interval(np.diag([0.0, 2.0]), PartialDensityOperator.zero(2))
        assert box == CompactInterval(0.0, 4.0)

    def test_matches_square_operator_route(self):
        rng = rng_for(19)
        for _ in range(30):
            dim = int(rng.integers(2, 5))
            a = sampling.random_hermitian(dim, rng)
            f = sampling.random_pdo(dim, rng)
            left = observable_square_interval(a, f)
            right = expected_interval_op(a @ a, f)
            assert left.lo == pytest.approx(right.lo, abs=1e-9)
            assert left.hi == pytest.approx(right.hi, abs=1e-9)


class TestDimensionMismatch:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda a, f: distribution(BoundedObservable(a), f),
            lambda a, f: e0(BoundedObservable(a), f),
            lambda a, f: expected_interval(BoundedObservable(a), f),
            expected_interval_op,
            observable_square_interval,
        ],
        ids=["distribution", "e0", "expected_interval", "expected_interval_op", "observable_square_interval"],
    )
    def test_two_dim_observable_on_three_dim_state(self, entry):
        with pytest.raises(DimensionMismatchError):
            entry(PAULI_Z, PartialDensityOperator.maximally_mixed(3))
