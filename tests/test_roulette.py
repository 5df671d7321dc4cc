"""The roulette wheel and its prefix-sum distance sums.

`build_roulette` defines each minority row's summed L1 distance to the
majority class by sorted, centred majority columns and their prefix sums.
Every selection, in `minority_class_pruning` and in the samplers' oracle,
is a search of that one wheel. The tests pin the sums bit for bit to
that arithmetic, hold them within a stated rounding tolerance of scipy's
`cdist(..., "cityblock")` sums, and check the wheel stays valid where its
arithmetic is most strained.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from resmoteboost import (Dataset, ExperimentConfig, NEGATIVE, POSITIVE, RandomSource,
                          RouletteWheel, build_roulette, make_gaussian_blobs, run_experiment)
from resmoteboost.pruning import _select, minority_class_pruning, smote_interpolate

from test_nearest import KINDS, assert_matches_oracle, make_rows, pools


def prefix_sums(X, Y):
    """The wheel's sums, one minority row and one majority column at a time."""
    n = len(Y)
    sums = []
    for x in X:
        total = 0.0
        for j in range(Y.shape[1]):
            z = np.sort(Y[:, j])
            c = z[n // 2]
            z = z - c
            a = x[j] - c
            p = int(np.count_nonzero(z <= a))
            prefix = np.concatenate([[0.0], np.cumsum(z)])
            H = prefix[p]
            total += (p * a - H) + ((prefix[n] - H) - (n - p) * a)
        sums.append(total)
    return np.array(sums)


# per feature: unchanged, offset by 1e6, or scaled by 1e150 or 1e-150
FEATURE_MAPS = (lambda v: v, lambda v: v + 1e6, lambda v: v * 1e150, lambda v: v * 1e-150)


class TestBounds:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), m=st.integers(1, 12),
           d=st.integers(1, 5), maps=st.lists(st.integers(0, 3), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_fast_sums_and_wheel_within_bounds(self, kind, n, m, d, maps, seed):
        rng = np.random.default_rng(seed)
        Y = make_rows(kind, n, d, rng)
        # fresh rows, majority rows, and majority rows moved slightly
        near = Y[rng.integers(0, n, m)] + 1e-3 * make_rows(kind, m, d, rng)
        X = np.vstack([make_rows(kind, m, d, rng), Y, near])[rng.permutation(2 * m + n)[:m]]
        for j in range(d):
            X[:, j], Y[:, j] = FEATURE_MAPS[maps[j]](X[:, j]), FEATURE_MAPS[maps[j]](Y[:, j])
        wheel = build_roulette(X, Y)
        c = np.sort(Y, axis=0)[n // 2]
        W = n * np.abs(X - c).sum(axis=1) + np.abs(Y - c).sum()
        # twice the summed rounding of the centring, the prefix sums, the column
        # terms and cdist's own sum; the absolute term covers underflow
        tolerance = (8 * n + 4 * d + 32) * 2.0 ** -53 * W + 1e-300
        exact = cdist(X, Y, metric="cityblock").sum(axis=1)
        assert np.all(np.abs(wheel.distances - exact) <= tolerance)
        assert wheel.cumulative[-1] == 1.0 and np.all(np.diff(wheel.cumulative) >= 0)

    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e9])
    def test_bound_is_relative_to_spread_not_offset(self, offset):
        # centring keeps the error, and so its bound, small on offset features
        rng = np.random.default_rng(2)
        Y, X = rng.normal(size=(300, 4)) + offset, rng.normal(size=(40, 4)) + offset
        sums = build_roulette(X, Y).distances
        exact = cdist(X - offset, Y - offset, metric="cityblock").sum(axis=1)
        assert np.all(np.abs(sums - exact) <= 1e-9 * exact)

    def test_exact_sums_on_integers(self):
        X = np.array([[0.0, 5.0], [2.0, 2.0], [7.0, -1.0]])
        Y = np.array([[1.0, 2.0], [4.0, 6.0], [2.0, 2.0], [-3.0, 0.0]])
        sums = build_roulette(X, Y).distances
        np.testing.assert_array_equal(sums, cdist(X, Y, metric="cityblock").sum(axis=1))

    @pytest.mark.parametrize("seed", range(6))
    def test_sums_follow_the_prefix_arithmetic(self, seed):
        # a 0.1 grid: many inexact values tie with a column's entries, where
        # the split side changes the rounding
        rng = np.random.default_rng(seed)
        Y = np.round(rng.normal(size=(30, 3)), 1) + 0.3
        X = np.vstack([Y[:8], np.round(rng.normal(size=(8, 3)), 1) + 0.3])
        sums = build_roulette(X, Y).distances
        assert sums.tobytes() == prefix_sums(X, Y).tobytes()

    @pytest.mark.parametrize("step", [0.1, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_tied_keys_follow_the_prefix_arithmetic(self, step, seed):
        # each column's keys are searched in sorted order and the splits
        # scattered back: keys in shuffled order, equal to majority values
        # and to each other, on a 0.1 grid (inexact) and an integer grid
        rng = np.random.default_rng(seed)
        Y = np.round(rng.normal(size=(40, 4)) * 3) * step + 0.3
        fresh = np.round(rng.normal(size=(10, 4)) * 3) * step + 0.3
        pool = np.vstack([Y[rng.integers(0, len(Y), 10)], fresh])
        X = pool[rng.integers(0, len(pool), 50)]
        X[:, 1] = X[rng.permutation(len(X)), 1]     # rows mixed across columns too
        sums = build_roulette(X, Y).distances
        assert sums.tobytes() == prefix_sums(X, Y).tobytes()

    def test_one_minority_row_adds_its_columns_in_order(self):
        # a lone row's twelve column terms, summed in another order (numpy's
        # pairwise sum over a column of them), round differently
        rng = np.random.default_rng(4)
        for _ in range(20):
            Y = rng.normal(size=(25, 12)) * 10.0 ** rng.uniform(-4, 4, size=12)
            X = rng.normal(size=(1, 12)) * 10.0 ** rng.uniform(-4, 4, size=12)
            sums = build_roulette(X, Y).distances
            assert sums.tobytes() == prefix_sums(X, Y).tobytes()


class TestWheel:
    def test_stays_sorted_when_the_top_bucket_is_negligible(self):
        # the running sum can round to 1 + 2^-52 before a last bucket whose
        # share is below its round-off
        for seed in range(200):
            rng = np.random.default_rng(seed)
            X_min = rng.normal(size=(12, 2))
            X_min[-1] = 1e200
            wheel = build_roulette(X_min, rng.normal(size=(5, 2)))
            assert np.all(np.diff(wheel.cumulative) >= 0) and wheel.cumulative.max() == 1.0

    # re_smoteboost's naive Bayes fit meets such features first and fails the same way
    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_name_the_cause(self):
        data = make_gaussian_blobs(60, 15, 2, 1.0, 0)
        huge = Dataset(data.X * 1e307, data.y)
        with pytest.raises(ValueError, match="L1 distances .* overflowed; rescale"):
            build_roulette(huge.X[data.y == POSITIVE], huge.X[data.y == NEGATIVE])
        with pytest.raises(ValueError, match="overflowed"):
            run_experiment(huge, ExperimentConfig(method="re_smoteboost", replications=1))


class TestSpins:
    def test_draw_takes_one_double(self):
        # smote_interpolate draws each seed as one spin of one double, then the
        # neighbour slot and alpha, as the one-at-a-time loop does
        majority, minority = pools("overlap", 40, 10, 2, 3)
        wheel = build_roulette(minority, majority)
        a, b = RandomSource(9), RandomSource(9)
        seeds = smote_interpolate(minority, 50, 3, a, lambda r: _select(wheel, r))[1]
        expected = []
        for _ in range(50):
            expected.append(int(_select(wheel, b.uniform(size=1))[0]))
            b.integers(0, 3)
            b.uniform()
        assert list(seeds) == expected
        assert a.bit_generator.state == b.bit_generator.state


class TestUncertifiedRounds:
    """Rounds with a sum within its cdist tolerance of the epsilon clamp, so
    that no error bound settles its fitness: the oversampler still selects
    exactly as the one-at-a-time oracle on build_roulette's wheel."""

    def test_coincident_row_takes_exact_wheel(self):
        # minority row 0 coincides with every majority row: its sum is 0 and
        # the epsilon clamp decides its fitness
        X_maj = np.zeros((8, 2))
        X_min = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0], [2.0, 2.0]])
        assert_matches_oracle(X_maj, X_min, 3, 2, 5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_scale_takes_exact_wheel(self, seed):
        # sums near 1e-148 are below the epsilon clamp
        majority, minority = pools("overlap", 40, 12, 3, seed)
        assert_matches_oracle(majority * 1e-150, minority * 1e-150, 4, 5, seed)

    def test_empty_class_raises_as_build_roulette(self):
        minority, majority = np.ones((3, 2)), np.empty((0, 2))
        with pytest.raises(ValueError, match="non-empty"):
            minority_class_pruning(majority, minority, 1, 5, None, RandomSource(0), None)


class TestWheelValidation:
    def _wheel(self, probabilities, cumulative):
        return RouletteWheel(distances=np.ones(2), fitness=np.ones(2),
                             probabilities=np.asarray(probabilities),
                             cumulative=np.asarray(cumulative))

    def test_valid_wheel_accepted(self):
        self._wheel([0.5, 0.5], [0.5, 1.0])

    @pytest.mark.parametrize("probabilities, cumulative", [
        ([np.nan, 0.5], [0.5, 1.0]),
        ([0.5, 0.5], [np.nan, 1.0]),
        ([0.5, 0.5], [0.5, np.nan]),
        ([np.nan, np.nan], [np.nan, np.nan]),
    ])
    def test_nan_wheel_rejected(self, probabilities, cumulative):
        with pytest.raises(ValueError):
            self._wheel(probabilities, cumulative)
