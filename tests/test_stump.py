"""Exactness and input validation of the array-based stump search.

`fit_stump_params` scores every boundary of every feature at once. It must
return what the per-boundary loop it replaced returned, bit for bit: the same
feature, the same threshold (sign of zero included) and the same polarity,
on ties, duplicate values, zero and unnormalised weights, one-class labels,
constant columns and extreme feature scales.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import NEGATIVE, POSITIVE
from resmoteboost.boosting import fit_stump_params


def _loop_stump_params(X, y, w):
    """The per-boundary loop `fit_stump_params` replaced, kept as the oracle."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    w = np.asarray(w, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    n, d = X.shape
    w_pos_total = float(w[y == POSITIVE].sum())
    w_neg_total = float(w[y == NEGATIVE].sum())

    best = (np.inf, 0, -np.inf, 1)  # (error, feature, threshold, polarity)
    for j in range(d):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        wp = np.where(y[order] == POSITIVE, w[order], 0.0)
        wn = np.where(y[order] == NEGATIVE, w[order], 0.0)
        cp = np.cumsum(wp)
        cn = np.cumsum(wn)
        # boundary b means threshold between xs[b-1] and xs[b]; b=0 is -inf, b=n is +inf
        boundaries = [0] + [b for b in range(1, n) if xs[b] > xs[b - 1]] + [n]
        for b in boundaries:
            if b == 0:
                thr, s_pos, s_neg = -np.inf, 0.0, 0.0
            elif b == n:
                thr, s_pos, s_neg = np.inf, cp[-1], cn[-1]
            else:
                thr = 0.5 * (xs[b - 1] + xs[b])
                s_pos, s_neg = cp[b - 1], cn[b - 1]
            err_plus = s_pos + (w_neg_total - s_neg)   # predict + where x > thr
            err_minus = (w_pos_total - s_pos) + s_neg  # predict + where x < thr... via polarity -1
            for polarity, err in ((1, err_plus), (-1, err_minus)):
                key = (err, j, thr, -polarity)
                if key < (best[0], best[1], best[2], -best[3]):
                    best = (err, j, thr, polarity)
    return best[1], best[2], best[3]


def assert_same_stump(X, y, w):
    got, want = fit_stump_params(X, y, w), _loop_stump_params(X, y, w)
    assert got == want
    assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])   # -0.0 vs 0.0


EPS = np.finfo(float).eps


def make_column(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "grid":          # many exact ties
        return rng.integers(0, 4, size=n).astype(float)
    if kind == "adjacent":      # neighbouring doubles: distinct boundaries share a midpoint
        return 1.0 + EPS * rng.integers(0, 6, size=n)
    if kind == "signed-zero":   # midpoints of -tiny/0/+tiny round to -0.0 and +0.0
        return rng.choice([-5e-324, -0.0, 0.0, 5e-324], size=n)
    if kind == "constant":
        return np.full(n, rng.normal())
    scale = {"gauss": 1.0, "huge": 1e150, "tiny": 1e-150}[kind]
    return rng.normal(size=n) * scale


def make_weights(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "uniform":
        w = np.full(n, 1.0 / n)
    elif kind == "decimal":     # inexact decimals with many zeros: rounding decides ties
        w = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], size=n)
    elif kind == "integer":     # exact ties between errors
        w = rng.integers(0, 3, size=n).astype(float)
    else:                       # unnormalised, spread over magnitudes
        w = rng.random(size=n) * 10.0 ** rng.choice([-150, 0, 5, 150])
    if w.sum() <= 0:
        w[rng.integers(n)] = 0.3
    return w


COLUMNS = ("gauss", "huge", "tiny", "grid", "adjacent", "signed-zero", "constant")


class TestMatchesLoop:
    @settings(max_examples=600, deadline=None)
    @given(n=st.integers(1, 40), d=st.integers(1, 4),
           columns=st.lists(st.sampled_from(COLUMNS), min_size=4, max_size=4),
           weights=st.sampled_from(("uniform", "decimal", "integer", "unnormalised")),
           labels=st.sampled_from(("mixed", "positive", "negative")),
           seed=st.integers(0, 2**32 - 1))
    def test_same_stump_as_loop(self, n, d, columns, weights, labels, seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([make_column(columns[j], n, rng) for j in range(d)])
        y = {"mixed": rng.choice([POSITIVE, NEGATIVE], size=n),
             "positive": np.full(n, POSITIVE), "negative": np.full(n, NEGATIVE)}[labels]
        assert_same_stump(X, y, make_weights(weights, n, rng))

    def test_larger_random_problems(self):
        rng = np.random.default_rng(11)
        for n, d in ((300, 6), (257, 3), (1000, 2)):
            X = np.column_stack([rng.normal(size=n), rng.integers(0, 9, size=(n, d - 1))])
            y = np.where(rng.random(n) < 0.3, POSITIVE, NEGATIVE)
            assert_same_stump(X, y, rng.choice([0.0, 0.1, 0.2, 0.3], size=n))
            assert_same_stump(X, y, rng.random(n))

    def test_shared_midpoint_prefers_positive_polarity_over_lower_boundary(self):
        # boundaries 1 and 2 both round to the midpoint 1+2eps; polarity -1
        # reaches the minimum at boundary 1 and +1 at boundary 2, and the
        # (error, feature, threshold, -polarity) order picks +1
        X = np.array([[1.0 + EPS], [1.0 + 2 * EPS], [1.0 + 3 * EPS]])
        y = np.array([POSITIVE, NEGATIVE, POSITIVE])
        w = np.array([1.0, 2.0, 1.0])
        assert fit_stump_params(X, y, w) == (0, 1.0 + 2 * EPS, 1)
        assert_same_stump(X, y, w)

    def test_signed_zero_midpoints_keep_the_lower_boundary(self):
        # boundaries 1 and 2 have midpoints -0.0 and +0.0, which compare equal;
        # both reach the minimum with polarity +1 and the lower one is kept
        X = np.array([[-5e-324], [0.0], [5e-324]])
        y = np.array([NEGATIVE, POSITIVE, POSITIVE])
        w = np.array([1.0, 0.0, 1.0])
        feature, threshold, polarity = fit_stump_params(X, y, w)
        assert (feature, threshold, polarity) == (0, 0.0, 1)
        assert math.copysign(1.0, threshold) == -1.0
        assert_same_stump(X, y, w)

    def test_single_row_and_single_feature(self):
        assert_same_stump(np.array([[2.0]]), np.array([POSITIVE]), np.array([1.0]))
        assert_same_stump(np.array([[2.0]]), np.array([NEGATIVE]), np.array([1.0]))
        assert_same_stump(np.array([[2.0, -1.0]]), np.array([NEGATIVE]), np.array([0.5]))


class TestInputValidation:
    """Each case was accepted before and returned a meaningless stump or a
    misleading error."""

    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
    w = np.full(4, 0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.array([bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="weights must be finite"):
            fit_stump_params(self.X, self.y, w)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_weight_sum_overflow_rejected(self):
        with pytest.raises(ValueError, match="finite positive sum"):
            fit_stump_params(self.X, self.y, np.full(4, 1e308))

    @pytest.mark.parametrize("length", [3, 5])
    def test_weight_length_mismatch_rejected(self, length):
        with pytest.raises(ValueError, match="one entry per row of X"):
            fit_stump_params(self.X, self.y, np.full(length, 0.25))

    @pytest.mark.parametrize("length", [3, 5])
    def test_label_length_mismatch_rejected(self, length):
        with pytest.raises(ValueError, match="one entry per row of X"):
            fit_stump_params(self.X, np.full(length, POSITIVE), self.w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = self.X.copy()
        X[1, 0] = bad
        with pytest.raises(ValueError, match="feature values must be finite"):
            fit_stump_params(X, self.y, self.w)

    @pytest.mark.parametrize("X", [np.arange(4.0), np.zeros((4, 1, 1)), np.zeros((4, 0))])
    def test_features_not_a_matrix_rejected(self, X):
        with pytest.raises(ValueError, match="X must be 2-D with at least one feature"):
            fit_stump_params(X, self.y, self.w)

    @pytest.mark.parametrize("w", [np.zeros(4), np.array([0.5, -0.1, 0.3, 0.3])])
    def test_zero_sum_or_negative_weights_still_rejected(self, w):
        with pytest.raises(ValueError, match="non-negative"):
            fit_stump_params(self.X, self.y, w)
