import math
from itertools import count, repeat

import numpy as np
import pytest

from qpartial import linalg, sampling
from qpartial.density import (
    FixpointConfig,
    PartialDensityOperator,
    chain_supremum,
    dyadic_diagonal_state,
    loewner_leq,
    matrix_from_json,
    nontermination_probability,
    scale,
)
from qpartial.errors import (
    DimensionMismatchError,
    InvalidOperatorError,
    NotHermitianError,
    NotPositiveError,
)


def rng_for(test_id: int) -> np.random.Generator:
    return np.random.default_rng([7, test_id])


class TestValidation:
    def test_zero_is_bottom(self):
        f = PartialDensityOperator(np.zeros((3, 3)))
        assert f.trace == 0.0

    def test_trace_above_one_rejected(self):
        with pytest.raises(InvalidOperatorError, match="trace"):
            PartialDensityOperator(np.diag([0.5, 0.6]))

    def test_pure_state(self):
        psi = sampling.random_unit_vector(4, rng_for(1))
        f = PartialDensityOperator.pure(psi)
        assert f.trace == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_normalizes_its_vector(self):
        f = PartialDensityOperator.pure([3, 4j])
        assert f.trace == pytest.approx(1.0, abs=1e-15)
        expected = np.array([[0.36, -0.48j], [0.48j, 0.64]])
        assert linalg.max_norm(f.matrix - expected) <= 1e-15

    def test_pure_state_rejects_a_matrix(self):
        # not read as a vector of dimension 4, which would give a 4 x 4 state
        with pytest.raises(DimensionMismatchError, match=r"expected a vector, got shape \(2, 2\)"):
            PartialDensityOperator.pure(np.eye(2))
        assert PartialDensityOperator.pure(np.array([[0.6], [0.8]])).dim == 2

    @pytest.mark.parametrize("vector", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1e200, 1e200]])
    def test_pure_state_rejects_a_vector_it_cannot_normalize(self, vector):
        # [1e200, 1e200]'s norm overflows to inf; dividing by it would give
        # the zero matrix, a trace-0 "pure" state
        with pytest.raises(InvalidOperatorError, match="cannot normalize"):
            PartialDensityOperator.pure(vector)

    def test_not_hermitian_rejected(self):
        with pytest.raises(NotHermitianError):
            PartialDensityOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_negative_rejected_with_witness(self):
        with pytest.raises(NotPositiveError) as err:
            PartialDensityOperator(np.diag([0.5, -0.5]))
        witness = err.value.witness
        form = float((witness.conj() @ np.diag([0.5, -0.5]) @ witness).real)
        assert form < 0

    def test_matrix_is_immutable(self):
        f = PartialDensityOperator.maximally_mixed(2)
        with pytest.raises(ValueError):
            f.matrix[0, 0] = 9.0


class TestNamedStates:
    """The named states are certified by construction: the same matrix,
    trace and read-only flag as the validating constructor gives, with no
    eigensolve."""

    @pytest.mark.parametrize("dim", [2, 3, 64])
    @pytest.mark.parametrize("name", ["ground_state", "zero", "maximally_mixed"])
    def test_named_state_equals_validated_state(self, count_eigensolves, name, dim):
        with count_eigensolves() as sizes:
            f = getattr(PartialDensityOperator, name)(dim)
        assert sizes == []
        validated = PartialDensityOperator(f.matrix)
        assert np.array_equal(f.matrix, validated.matrix)
        assert f.matrix.dtype == validated.matrix.dtype == complex
        assert f.trace == validated.trace
        assert not f.matrix.flags.writeable

    @pytest.mark.parametrize("dim", [0, -1])
    @pytest.mark.parametrize("name", ["ground_state", "zero", "maximally_mixed"])
    def test_named_state_needs_dimension_at_least_one(self, name, dim):
        with pytest.raises(DimensionMismatchError, match="at least 1"):
            getattr(PartialDensityOperator, name)(dim)


class TestLoewnerOrder:
    def test_zero_below_everything(self):
        f = sampling.random_pdo(3, rng_for(2))
        ok, _ = loewner_leq(PartialDensityOperator.zero(3), f)
        assert ok

    def test_scaling_down_stays_below(self):
        f = sampling.random_pdo(3, rng_for(3))
        ok, _ = loewner_leq(scale(f, 0.75), f)
        assert ok

    def test_incomparable_pair(self):
        f = PartialDensityOperator(np.diag([0.5, 0.0]))
        g = PartialDensityOperator(np.diag([0.0, 0.5]))
        assert not loewner_leq(f, g)[0]
        assert not loewner_leq(g, f)[0]

    def test_reflexive_transitive(self):
        rng = rng_for(4)
        for _ in range(10):
            f, g = sampling.loewner_pair(3, rng)
            assert loewner_leq(f, f)[0]
            assert loewner_leq(f, g)[0]
            mid = PartialDensityOperator(0.5 * (f.matrix + g.matrix))
            assert loewner_leq(f, mid)[0] and loewner_leq(mid, g)[0]

    def test_antisymmetry_within_tolerance(self):
        rng = rng_for(5)
        f = sampling.random_pdo(3, rng, trace=0.5)
        pert = sampling.random_hermitian(3, rng)
        pert *= 0.3 * linalg.PSD_TOL / float(np.max(np.abs(np.linalg.eigvalsh(pert))))
        g = PartialDensityOperator(f.matrix + pert)
        assert loewner_leq(f, g)[0] and loewner_leq(g, f)[0]
        assert linalg.max_norm(f.matrix - g.matrix) <= 10 * linalg.PSD_TOL

    def test_norm_below_trace(self):
        rng = rng_for(6)
        for _ in range(10):
            f = sampling.random_pdo(4, rng)
            top = float(np.linalg.eigvalsh(f.matrix)[-1])
            assert top <= f.trace + linalg.PSD_TOL
            assert f.trace <= 1.0 + linalg.PSD_TOL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_leq(PartialDensityOperator.zero(2), PartialDensityOperator.zero(3))

    def test_states_at_the_hermitian_bound(self, hermitian_bound_pair):
        f, g = hermitian_bound_pair
        assert loewner_leq(f, g) == (True, None)
        assert not loewner_leq(g, f)[0]

    def test_hermitian_part_is_not_checked_again(self, count_calls):
        # g - f is made Hermitian before the eigenvalue step, so one
        # eigvalsh and no Hermiticity check decide the order; the witness is
        # the PSD test's
        f = PartialDensityOperator(np.diag([0.5, 0.0]))
        g = PartialDensityOperator(np.diag([0.0, 0.5]))
        with count_calls(linalg, "require_hermitian") as checks:
            ok, witness = loewner_leq(f, g)
        assert checks == [] and not ok
        with pytest.raises(NotPositiveError) as exc:
            linalg.require_psd_hermitian(g.matrix - f.matrix)
        assert np.array_equal(witness, exc.value.witness)


class TestScale:
    def test_identity_and_zero(self):
        f = sampling.random_pdo(3, rng_for(7))
        assert np.allclose(scale(f, 1.0).matrix, f.matrix)
        assert scale(f, 0.0).trace == 0.0

    def test_entrywise(self):
        f = PartialDensityOperator(np.diag([0.5, 0.25]))
        assert np.allclose(scale(f, 0.5).matrix, np.diag([0.25, 0.125]))

    def test_range_checked(self):
        f = PartialDensityOperator.maximally_mixed(2)
        for r in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                scale(f, r)

    def test_result_is_not_revalidated(self, count_eigensolves):
        f = sampling.random_pdo(4, rng_for(15))
        r = 0.3
        with count_eigensolves() as sizes:
            g = scale(f, r)
        assert sizes == []
        expected = r * f.matrix
        assert g.matrix.dtype == expected.dtype
        assert g.matrix.tobytes() == expected.tobytes()
        assert g.trace == float(np.trace(expected).real)
        assert not g.matrix.flags.writeable


class TestChainSupremum:
    """``chain_supremum`` reads a chain through its traces; the caller keeps
    the elements and takes element ``iterations``."""

    def test_constant_chain(self):
        f = sampling.random_pdo(3, rng_for(8))
        iterations, converged, traces = chain_supremum(repeat(f.trace))
        assert converged and iterations == 1
        assert traces == [f.trace, f.trace]

    def test_geometric_chain_reaches_limit(self):
        f = sampling.random_pdo(4, rng_for(9), trace=0.8)
        chain = [scale(f, 1.0 - 2.0**-n) for n in range(1, 65)]
        iterations, converged, traces = chain_supremum(fn.trace for fn in chain)
        sup = chain[iterations].matrix
        assert converged
        assert linalg.max_norm(sup - f.matrix) <= 1e-8
        assert len(traces) == iterations + 1
        assert traces[-1] == float(np.trace(sup).real)

    def test_trace_gap_halves(self):
        f = sampling.random_pdo(3, rng_for(10), trace=0.9)
        traces = [scale(f, 1.0 - 2.0**-n).trace for n in range(1, 12)]
        gaps = np.diff(traces)
        ratios = gaps[1:] / gaps[:-1]
        assert np.allclose(ratios, 0.5, atol=1e-6)

    def test_finite_chain_attains_supremum(self):
        f = sampling.random_pdo(2, rng_for(11), trace=0.6)
        chain = [scale(f, r).matrix for r in (0.25, 0.5, 1.0)]
        traces = [float(np.trace(m).real) for m in chain]
        iterations, converged, read = chain_supremum(iter(traces))
        assert converged and iterations == 2
        assert np.allclose(chain[iterations], f.matrix)
        assert read == traces

    def test_truncation_reports_nonconvergence(self):
        f = sampling.random_pdo(2, rng_for(12), trace=0.9)
        pulled = []

        def slow():
            # the caller's element is the last one whose trace was pulled
            for n in count(1):
                pulled.append(scale(f, 1.0 - 1.0 / (n + 1)))
                yield pulled[-1].trace

        iterations, converged, traces = chain_supremum(slow(), FixpointConfig(max_iterations=5))
        assert not converged and iterations == 4
        assert len(traces) == len(pulled) == 5
        assert np.array_equal(pulled[-1].matrix, scale(f, 1.0 - 1.0 / 6).matrix)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain_supremum(iter([]))

    def test_supremum_is_upper_bound(self):
        f = sampling.random_pdo(3, rng_for(15), trace=0.7)
        chain = [scale(f, 1.0 - 2.0**-n) for n in range(1, 20)]
        iterations, _, _ = chain_supremum(element.trace for element in chain)
        sup = PartialDensityOperator(chain[iterations].matrix)
        for element in chain:
            assert loewner_leq(element, sup)[0]


class TestFixpointConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixpointConfig(max_iterations=0)
        for not_an_int in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError):
                FixpointConfig(max_iterations=not_an_int)
        with pytest.raises(ValueError):
            FixpointConfig(trace_tol=0.0)
        with pytest.raises(ValueError):
            FixpointConfig(trace_tol=1.0)
        with pytest.raises(ValueError):
            FixpointConfig(trace_tol=math.inf)


class TestDyadic:
    def test_single_bit(self):
        f = dyadic_diagonal_state([1], dim=1)
        assert np.allclose(f.matrix, [[0.5]])

    def test_all_ones_geometric_series(self):
        for k in (1, 3, 8):
            f = dyadic_diagonal_state([1] * k, dim=k)
            assert f.trace == pytest.approx(1.0 - 2.0**-k, abs=1e-15)

    def test_bits_101(self):
        f = dyadic_diagonal_state([1, 0, 1], dim=4)
        assert np.allclose(f.matrix, np.diag([0.5, 0.0, 0.125, 0.0]))

    def test_axis_values_are_dyadic(self):
        # measure of each basis axis is b_i / 2^(i+1), a dyadic rational
        from qpartial.logic import gleason_measure, subspace_from_vectors

        bits = [1, 0, 1, 1]
        f = dyadic_diagonal_state(bits, dim=4)
        for i, b in enumerate(bits):
            axis = subspace_from_vectors([np.eye(4)[i]], dim=4)
            value = gleason_measure(f, axis)
            assert value == b / 2.0 ** (i + 1)
            assert (value * 2.0 ** (i + 1)) in (0.0, 1.0)

    def test_too_many_bits(self):
        with pytest.raises(DimensionMismatchError):
            dyadic_diagonal_state([1, 1, 1], dim=2)


class TestNontermination:
    def test_values(self):
        assert nontermination_probability(PartialDensityOperator.maximally_mixed(3)) == pytest.approx(0.0, abs=1e-12)
        assert nontermination_probability(PartialDensityOperator.zero(3)) == 1.0
        assert nontermination_probability(PartialDensityOperator(np.diag([0.5, 0.25]))) == pytest.approx(0.25)


class TestJson:
    def test_roundtrip(self):
        f = sampling.random_pdo(3, rng_for(16))
        back = PartialDensityOperator(matrix_from_json(f.to_json()))
        assert np.allclose(back.matrix, f.matrix)
        assert back.to_json() == f.to_json()

    def test_malformed_rejected(self):
        for data in (
            {"dim": 2, "re": [[1, 0]], "im": [[0, 0]]},
            {"dim": 2.9, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
            {"dim": "2", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
            {"dim": True, "re": [[1]], "im": [[0]]},
            {"dim": 2, "re": [["1", "0"], ["0", "1"]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [[True, False], [False, True]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [[True, 0.0], [0.0, 1.0]], "im": [[0, 0], [0, 0]]},
            {"dim": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, False], [0.0, 0.0]]},
            {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, None]]},
        ):
            with pytest.raises(InvalidOperatorError):
                matrix_from_json(data)
