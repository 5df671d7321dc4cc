import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from resmoteboost import (
    ConfusionMatrix,
    Dataset,
    NEGATIVE,
    POSITIVE,
    average_precision,
    binary_metrics,
    confusion,
    fisher_ratio,
    make_gaussian_blobs,
    overlap_feature_count,
    pr_curve,
    replication_stats,
    roc_auc,
)
import resmoteboost
from resmoteboost.metrics import _average_ranks


def brute_force_auc(scores, truth):
    """Pairwise counting oracle: fraction of (pos, neg) pairs ranked correctly,
    ties worth one half."""
    pos = [s for s, t in zip(scores, truth) if t == POSITIVE]
    neg = [s for s, t in zip(scores, truth) if t == NEGATIVE]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_all_correct_positive(self):
        pred = np.full(5, POSITIVE)
        cm = confusion(pred, pred)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (5, 0, 0, 0)

    def test_inverted(self):
        truth = np.array([POSITIVE, NEGATIVE, POSITIVE])
        cm = confusion(-truth, truth)
        assert cm.tp == 0 and cm.tn == 0
        assert cm.fp == 1 and cm.fn == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion(np.array([1]), np.array([1, -1]))


class TestBinaryMetrics:
    def test_hand_case(self):
        r = binary_metrics(ConfusionMatrix(tp=50, fp=10, fn=5, tn=35))
        assert r.accuracy == pytest.approx(0.85, abs=1e-4)
        assert r.precision == pytest.approx(0.8333, abs=1e-4)
        assert r.recall == pytest.approx(0.9091, abs=1e-4)
        assert r.f1 == pytest.approx(0.8696, abs=1e-4)
        assert r.g_means == pytest.approx(0.8704, abs=1e-4)

    def test_all_negative_predictor(self):
        # 3:1 dataset, everything predicted negative
        r = binary_metrics(ConfusionMatrix(tp=0, fp=0, fn=25, tn=75))
        assert r.recall == 0.0
        assert r.macro_recall == pytest.approx(0.5)
        assert "precision" in r.undefined

    def test_perfect_predictor(self):
        r = binary_metrics(ConfusionMatrix(tp=25, fp=0, fn=0, tn=75))
        for value in (r.accuracy, r.precision, r.recall, r.f1, r.g_means,
                      r.macro_precision, r.macro_recall, r.macro_f1):
            assert value == 1.0

    def test_f1_harmonic_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            tp, fp, fn, tn = rng.integers(0, 40, size=4)
            if tp + fp + fn + tn == 0:
                continue
            r = binary_metrics(ConfusionMatrix(int(tp), int(fp), int(fn), int(tn)))
            if r.precision + r.recall > 0:
                expected = 2 * r.precision * r.recall / (r.precision + r.recall)
                assert r.f1 == pytest.approx(expected, abs=1e-12)
            assert r.accuracy == (tp + tn) / (tp + fp + fn + tn)

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            binary_metrics(ConfusionMatrix(0, 0, 0, 0))


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -1e300, math.inf, -math.inf])
SCORES = st.lists(SPECIAL | st.floats(allow_nan=False) | st.integers(-3, 3).map(float),
                  min_size=2, max_size=40)


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(values=SCORES)
    def test_match_rankdata_bitwise(self, values):
        x = np.array(values)
        assert _average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    @settings(max_examples=200, deadline=None)
    @given(values=SCORES, data=st.data())
    def test_auc_matches_the_rankdata_formula_bitwise(self, values, data):
        scores = np.array(values)
        truth = np.array(data.draw(st.lists(st.sampled_from([POSITIVE, NEGATIVE]),
                                            min_size=len(values), max_size=len(values))))
        truth[:2] = [POSITIVE, NEGATIVE]
        pos = truth == POSITIVE
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        ranks = rankdata(scores, method="average")
        expected = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
        assert roc_auc(scores, truth) == expected

    def test_nan_scores_rejected(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            roc_auc([0.1, math.nan, 0.3], [POSITIVE, NEGATIVE, NEGATIVE])

    def test_import_leaves_scipy_stats_unloaded(self):
        # no scipy module at all: the package's only runtime dependency is numpy
        code = ("import sys, resmoteboost; "
                "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
        src = str(Path(resmoteboost.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "False"


class TestRocAuc:
    def test_perfect_ranking(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        truth = [POSITIVE, POSITIVE, NEGATIVE, NEGATIVE]
        assert roc_auc(scores, truth) == 1.0

    def test_all_ties(self):
        scores = [0.5] * 6
        truth = [POSITIVE, NEGATIVE] * 3
        assert roc_auc(scores, truth) == 0.5

    def test_spec_example(self):
        assert roc_auc([0.9, 0.4, 0.6, 0.1],
                       [POSITIVE, NEGATIVE, POSITIVE, NEGATIVE]) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            scores = np.round(rng.random(12), 1)  # coarse grid forces ties
            truth = np.where(rng.random(12) < 0.4, POSITIVE, NEGATIVE)
            if len(set(truth)) < 2:
                continue
            assert roc_auc(scores, truth) == pytest.approx(
                brute_force_auc(scores, truth), abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=20)
        truth = np.where(rng.random(20) < 0.5, POSITIVE, NEGATIVE)
        truth[0], truth[1] = POSITIVE, NEGATIVE
        a = roc_auc(scores, truth)
        assert roc_auc(np.exp(scores), truth) == pytest.approx(a, abs=1e-12)
        assert roc_auc(3 * scores + 7, truth) == pytest.approx(a, abs=1e-12)

    def test_antisymmetry_without_ties(self):
        rng = np.random.default_rng(2)
        scores = rng.permutation(20).astype(float)
        truth = np.where(rng.random(20) < 0.5, POSITIVE, NEGATIVE)
        truth[0], truth[1] = POSITIVE, NEGATIVE
        assert roc_auc(scores, truth) + roc_auc(-scores, truth) == pytest.approx(1.0)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.2], [POSITIVE, POSITIVE])


class TestPrCurve:
    def test_perfect_ranking_precision_one(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        truth = [POSITIVE, POSITIVE, NEGATIVE, NEGATIVE]
        points = pr_curve(scores, truth)
        for recall, precision in points[:2]:
            assert precision == 1.0
        assert points[-1] == (1.0, 0.5)

    def test_constant_scores_single_point(self):
        points = pr_curve([0.5] * 4, [POSITIVE, NEGATIVE, NEGATIVE, NEGATIVE])
        assert points == [(1.0, 0.25)]

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(3)
        scores = rng.random(30)
        truth = np.where(rng.random(30) < 0.3, POSITIVE, NEGATIVE)
        truth[0], truth[1] = POSITIVE, NEGATIVE
        points = pr_curve(scores, truth)
        recalls = [r for r, _ in points]
        assert recalls == sorted(recalls)

    def test_average_precision_matches_enumeration(self):
        # 10-point case with hand-enumerable structure
        scores = [0.9, 0.85, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        truth = [POSITIVE, NEGATIVE, POSITIVE, POSITIVE, NEGATIVE,
                 NEGATIVE, POSITIVE, NEGATIVE, NEGATIVE, NEGATIVE]
        # brute force: sum precision-at-k over positive ranks / n_pos
        expected = 0.0
        tp = 0
        for k, t in enumerate(sorted(zip(scores, truth), reverse=True), start=1):
            if t[1] == POSITIVE:
                tp += 1
                expected += tp / k
        expected /= 4
        assert average_precision(scores, truth) == pytest.approx(expected, abs=1e-12)


class TestReplicationStats:
    def test_constant(self):
        s = replication_stats([0.5] * 10)
        assert s.mean == 0.5
        assert s.std_dev == 0.0

    def test_two_values(self):
        s = replication_stats([0.0, 1.0])
        assert s.mean == 0.5
        assert s.std_dev == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.random(100)
            s = replication_stats(values)
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            assert s.mean == pytest.approx(mean, abs=1e-12)
            assert s.std_dev == pytest.approx(math.sqrt(var), abs=1e-12)

    def test_single_value_errors(self):
        with pytest.raises(ValueError):
            replication_stats([0.5])


def two_class_feature(mu_neg, mu_pos, var_neg, var_pos, n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = np.concatenate([
        rng.normal(mu_neg, math.sqrt(var_neg), n),
        rng.normal(mu_pos, math.sqrt(var_pos), n),
    ])[:, None]
    y = np.concatenate([np.full(n, NEGATIVE), np.full(n, POSITIVE)])
    return Dataset(X, y)


class TestFisherRatio:
    def test_direct_substitution(self):
        X = np.array([[-1.0], [1.0], [1.0], [3.0]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
        # sample variances are 2 and 2; means 0 and 2 -> 4/4 = 1
        assert fisher_ratio(Dataset(X, y), 0) == pytest.approx(1.0)

    def test_identical_distributions_near_zero(self):
        data = two_class_feature(0, 0, 1, 1, n=5000, seed=1)
        assert fisher_ratio(data, 0) < 0.01

    def test_translation_invariance(self):
        data = two_class_feature(0, 2, 1, 1, seed=2)
        base = fisher_ratio(data, 0)
        shifted = Dataset(data.X + 13.0, data.y)
        assert fisher_ratio(shifted, 0) == pytest.approx(base, rel=1e-9)

    def test_whole_column_scaling_invariance(self):
        # multiplying the feature by c scales numerator and denominator by c^2
        data = two_class_feature(0, 2, 1, 1, seed=2)
        base = fisher_ratio(data, 0)
        scaled = Dataset(data.X * 2.5, data.y)
        assert fisher_ratio(scaled, 0) == pytest.approx(base, rel=1e-9)

    def test_spread_scaling_law(self):
        # widening each class around its own mean by c leaves the mean gap
        # alone and multiplies both variances by c^2, so the ratio drops 1/c^2
        data = two_class_feature(0, 2, 1, 1, seed=2)
        base = fisher_ratio(data, 0)
        c = 2.5
        X = data.X.copy()
        for label in (NEGATIVE, POSITIVE):
            mask = data.y == label
            mu = X[mask].mean(axis=0)
            X[mask] = mu + c * (X[mask] - mu)
        assert fisher_ratio(Dataset(X, data.y), 0) == pytest.approx(
            base / c**2, rel=1e-9)

    def test_zero_denominator_conventions(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
        assert fisher_ratio(Dataset(X, y), 0) == math.inf
        X2 = np.zeros((4, 1))
        assert fisher_ratio(Dataset(X2, y), 0) == 0.0

    def test_small_class_errors(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE])
        with pytest.raises(ValueError):
            fisher_ratio(Dataset(X, y), 0)


class TestOverlapFeatureCount:
    def test_self_comparison_all_ties(self):
        data = make_gaussian_blobs(30, 20, 4, 1.0, 3)
        report = overlap_feature_count(data, data)
        assert report.count_a_smaller == 0
        assert report.count_b_smaller == 0
        assert report.ties == 4

    def test_partition_identity(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            a = make_gaussian_blobs(40, 20, 5, float(rng.random() * 3), seed)
            b = make_gaussian_blobs(40, 20, 5, float(rng.random() * 3), seed + 100)
            r = overlap_feature_count(a, b)
            assert r.count_a_smaller + r.count_b_smaller + r.ties == 5

    def test_separation_direction(self):
        a = make_gaussian_blobs(200, 100, 2, 1.0, 0)
        b = make_gaussian_blobs(200, 100, 2, 4.0, 0)
        r = overlap_feature_count(a, b)
        assert r.ratios_a[0] < r.ratios_b[0]

    def test_dimension_mismatch(self):
        a = make_gaussian_blobs(20, 10, 2, 1.0, 0)
        b = make_gaussian_blobs(20, 10, 3, 1.0, 0)
        with pytest.raises(ValueError):
            overlap_feature_count(a, b)
