"""Kernel tests: frozen oracle values, brute-force cross-checks, invariants."""

import math

import numpy as np
import pytest
import scipy.stats

from sentsig.errors import DegenerateScoresError, InvalidInputError
from sentsig.numstat import (
    as_vector,
    cosine,
    cross_entropy,
    make_rng,
    pearson,
    ranks_with_ties,
    softmax,
    spearman,
)


def brute_force_ranks(x):
    """Independent O(n^2) average-rank oracle: #smaller + (#equal + 1) / 2."""
    x = list(x)
    return [
        sum(1 for v in x if v < xi) + (sum(1 for v in x if v == xi) + 1) / 2
        for xi in x
    ]


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_positive_scaling(self):
        assert cosine([2, 0], [1, 0]) == pytest.approx(1.0)

    def test_against_high_precision_oracle(self):
        # mpmath at 50 digits: dot=32, |u|=sqrt(14), |v|=sqrt(77)
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(0.97463184619707627, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            cosine([1, 2], [1, 2, 3])

    def test_zero_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine([0, 0], [1, 2])

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine([float("nan"), 1], [1, 2])

    def test_symmetry_and_scale_invariance(self):
        rng = make_rng(11)
        for _ in range(200):
            d = int(rng.integers(1, 10))
            u = rng.normal(size=d)
            v = rng.normal(size=d)
            alpha = float(rng.uniform(0.01, 100.0))
            c = cosine(u, v)
            assert abs(c) <= 1.0 + 1e-12
            assert c == pytest.approx(cosine(v, u), abs=1e-15)
            assert c == pytest.approx(cosine(alpha * u, v), abs=1e-12)


def cosine_reference(u, v):
    """The per-pair formula, one np.dot per product."""
    return float(np.dot(u, v)) / (math.sqrt(float(np.dot(u, u))) * math.sqrt(float(np.dot(v, v))))


class TestMatrixCosine:
    """Two (n, d) matrices give one cosine per row, bit-identical to the per-pair cosine."""

    @pytest.mark.parametrize("d", [16, 128])
    def test_rows_equal_per_pair_cosine(self, d):
        rng = make_rng(12)
        U = rng.normal(size=(500, d)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
        V = rng.normal(size=(500, d))
        V[:50] = U[:50]  # identical rows
        V[50:100] = -3.0 * U[50:100]
        scores = cosine(U, V)
        assert scores.shape == (500,)
        np.testing.assert_array_equal(scores, [cosine_reference(u, v) for u, v in zip(U, V)])
        assert [cosine(u, v) for u, v in zip(U, V)] == scores.tolist()

    def test_vectors_still_give_a_float(self):
        assert type(cosine(np.ones(3), np.arange(1.0, 4.0))) is float

    def test_zero_norm_row_rejected(self):
        U = np.ones((3, 4))
        V = np.ones((3, 4))
        V[1] = 0.0
        with pytest.raises(InvalidInputError, match="zero-norm"):
            cosine(U, V)
        with pytest.raises(InvalidInputError, match="zero-norm"):
            cosine(V, U)

    def test_nan_entry_rejected(self):
        U = np.ones((3, 4))
        V = np.ones((3, 4))
        V[2, 3] = np.nan
        with pytest.raises(InvalidInputError, match="NaN"):
            cosine(U, V)

    @pytest.mark.parametrize("shape_v", [(3, 5), (2, 4), (4,)])
    def test_shape_mismatch_rejected(self, shape_v):
        with pytest.raises(InvalidInputError):
            cosine(np.ones((3, 4)), np.ones(shape_v))


class TestRanksWithTies:
    def test_distinct(self):
        np.testing.assert_array_equal(ranks_with_ties([10, 20, 30]), [1, 2, 3])

    def test_pair_tie(self):
        np.testing.assert_array_equal(ranks_with_ties([5, 5]), [1.5, 1.5])

    def test_mixed_ties(self):
        # brute-force oracle: 1s cover ranks 1,2 -> 1.5 each
        np.testing.assert_array_equal(ranks_with_ties([3, 1, 4, 1]), [3, 1.5, 4, 1.5])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            ranks_with_ties([])

    def test_matches_brute_force_and_sum(self):
        rng = make_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            x = rng.integers(0, 8, size=n).astype(float)  # heavy ties
            got = ranks_with_ties(x)
            np.testing.assert_allclose(got, brute_force_ranks(x), atol=1e-12)
            assert got.sum() == pytest.approx(n * (n + 1) / 2, abs=1e-9)

    def test_matches_scipy(self):
        rng = make_rng(6)
        for _ in range(50):
            x = rng.integers(0, 5, size=20).astype(float)
            np.testing.assert_allclose(ranks_with_ties(x), scipy.stats.rankdata(x), atol=1e-12)


class TestPearson:
    def test_affine_increasing(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_negation(self):
        x = [1.0, 2.0, 3.0]
        assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_direct_covariance_oracle(self):
        # exact fractions: cov=1/3, var_x=var_y=2/3 -> r=0.5
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            pearson([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(DegenerateScoresError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_matches_scipy(self):
        rng = make_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0)

    def test_rank_then_pearson_oracle(self):
        # ranks of y=[3,1,2] are [3,1,2]; pearson([1,2,3],[3,1,2]) = -0.5
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-15)

    def test_monotone_transform_invariance(self):
        rng = make_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert spearman(x, y) == spearman(np.exp(x), y)

    def test_matches_brute_force_oracle_with_ties(self):
        rng = make_rng(41)
        for _ in range(300):
            n = int(rng.integers(3, 50))
            x = rng.integers(0, n, size=n).astype(float)
            y = rng.integers(0, n, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            oracle = pearson(brute_force_ranks(x), brute_force_ranks(y))
            assert spearman(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_matches_scipy(self):
        rng = make_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 10, size=n).astype(float)
            y = rng.normal(size=n)
            if len(set(x)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(scipy.stats.spearmanr(x, y)[0], abs=1e-12)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0, 0, 0]), [1 / 3] * 3, atol=1e-15)

    def test_shift_invariance(self):
        rng = make_rng(9)
        for _ in range(100):
            z = rng.normal(size=int(rng.integers(1, 12)))
            shifted = softmax(z + float(rng.uniform(-50, 50)))
            np.testing.assert_allclose(softmax(z), shifted, atol=1e-12)

    def test_against_extended_precision_oracle(self):
        # mpmath at 50 digits
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        np.testing.assert_allclose(softmax([1, 2, 3]), expected, atol=1e-15)

    def test_sums_to_one_and_positive(self):
        rng = make_rng(10)
        for _ in range(200):
            z = rng.uniform(-100, 100, size=int(rng.integers(1, 20)))
            p = softmax(z)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p > 0)

    def test_large_logits_stable(self):
        p = softmax([1000.0, 1000.0])
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-15)


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert cross_entropy([1.0, 0.0, 0.0], 0) == 0.0

    def test_uniform_three_way(self):
        assert cross_entropy([1 / 3] * 3, 2) == pytest.approx(math.log(3), rel=1e-14)

    def test_direct_formula_oracle(self):
        # -ln(softmax([1,2,3])[1]) via mpmath at 50 digits
        assert cross_entropy(softmax([1, 2, 3]), 1) == pytest.approx(1.4076059644443803, abs=1e-14)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cross_entropy([0.5, 0.5], 2)

    def test_zero_probability_is_finite(self):
        assert math.isfinite(cross_entropy([0.0, 1.0], 0))


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123).integers(0, 1_000_000, size=32)
        b = make_rng(123).integers(0, 1_000_000, size=32)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1_000_000, size=32)
        b = make_rng(2).integers(0, 1_000_000, size=32)
        assert not np.array_equal(a, b)


def test_as_vector_rejects_inf():
    with pytest.raises(InvalidInputError):
        as_vector([1.0, float("inf")])
