"""Classification metrics, rank-based ROC AUC, replication statistics, and the
Fisher-ratio overlap comparison.

Both positive-class and macro-averaged variants of each confusion metric are
reported; published result tables for degenerate classifiers are only
consistent with macro averaging, so neither variant is privileged. The
g_means field follows the geometric mean of precision and recall;
g_means_spec carries the conventional sqrt(recall * specificity) for
cross-checks.
"""

from __future__ import annotations

import math

import numpy as np

from .data import Dataset, NEGATIVE, POSITIVE


def confusion(predictions, truth) -> dict:
    """Counts {"tp", "fp", "fn", "tn"} with positive = minority (+1)."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or len(predictions) == 0:
        raise ValueError("predictions and truth must be equal-length, non-empty")
    return {
        "tp": int(np.sum((predictions == POSITIVE) & (truth == POSITIVE))),
        "fp": int(np.sum((predictions == POSITIVE) & (truth == NEGATIVE))),
        "fn": int(np.sum((predictions == NEGATIVE) & (truth == POSITIVE))),
        "tn": int(np.sum((predictions == NEGATIVE) & (truth == NEGATIVE))),
    }


def _ratio(num, den, name, undefined):
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def binary_metrics(counts: dict) -> dict:
    """A replication's metrics from confusion counts: the positive-class and
    macro-averaged variants, g_means_spec, the counts and `undefined`.

    Zero-denominator ratios come back as 0 with the metric name recorded in
    `undefined`, so replication aggregation never sees NaN.
    """
    tp, fp, fn, tn = (counts[key] for key in ("tp", "fp", "fn", "tn"))
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    undefined: list = []
    prec_pos = _ratio(tp, tp + fp, "precision", undefined)
    rec_pos = _ratio(tp, tp + fn, "recall", undefined)
    f1_pos = _ratio(2 * prec_pos * rec_pos, prec_pos + rec_pos, "f1", undefined)
    g_pos = math.sqrt(prec_pos * rec_pos)
    # negative-class counterparts for macro averaging
    prec_neg = _ratio(tn, tn + fn, "precision_neg", undefined)
    rec_neg = _ratio(tn, tn + fp, "recall_neg", undefined)
    f1_neg = _ratio(2 * prec_neg * rec_neg, prec_neg + rec_neg, "f1_neg", undefined)
    g_neg = math.sqrt(prec_neg * rec_neg)
    return {
        "positive_class": {"accuracy": (tp + tn) / total, "precision": prec_pos,
                           "recall": rec_pos, "f1": f1_pos, "g_means": g_pos},
        "macro": {"accuracy": 0.5 * (rec_pos + rec_neg), "precision": 0.5 * (prec_pos + prec_neg),
                  "recall": 0.5 * (rec_pos + rec_neg), "f1": 0.5 * (f1_pos + f1_neg),
                  "g_means": 0.5 * (g_pos + g_neg)},
        "g_means_spec": math.sqrt(rec_pos * rec_neg),
        "confusion": {"tp": tp, "fp": fp, "fn": fn, "tn": tn},
        "undefined": undefined,
    }


def _average_ranks(x):
    """1-based ranks of x, tied values sharing the mean of their ranks (an
    exact half-integer, as scipy.stats.rankdata(x, method="average") gives)."""
    order = np.argsort(x, kind="stable")
    s = x[order]
    start = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    end = np.append(start[1:], len(x))
    ranks = np.empty(len(x))
    ranks[order] = np.repeat(0.5 * (start + end + 1), end - start)
    return ranks


def roc_auc(scores, truth) -> float:
    """Rank-based AUC (Mann-Whitney); ties contribute one half."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = truth == POSITIVE
    neg = truth == NEGATIVE
    n_pos, n_neg = int(pos.sum()), int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_auc needs both classes in truth")
    if np.isnan(scores).any():
        raise ValueError("roc_auc scores must not be NaN")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def replication_stats(values, name: str = "") -> dict:
    """The summary {"metric", "mean", "std_dev", "n"} of the metric `name`
    across replications; the standard deviation is the sample one (ddof=1),
    None below 2 values, and the mean is None for no values."""
    arr = np.asarray([float(v) for v in values])
    return {"metric": name, "mean": float(arr.mean()) if len(arr) else None,
            "std_dev": float(arr.std(ddof=1)) if len(arr) >= 2 else None, "n": len(arr)}


def fisher_ratio(data: Dataset, feature: int) -> float:
    """(mu1 - mu2)^2 / (var1 + var2) for one feature, sample variances.

    A zero denominator maps to +inf when the class means differ and 0 when
    they coincide.
    """
    pos = data.X[data.y == POSITIVE, feature]
    neg = data.X[data.y == NEGATIVE, feature]
    if len(pos) < 2 or len(neg) < 2:
        raise ValueError("each class needs at least 2 samples")
    num = (pos.mean() - neg.mean()) ** 2
    den = pos.var(ddof=1) + neg.var(ddof=1)
    if den == 0:
        return math.inf if num > 0 else 0.0
    return float(num / den)


def overlap_feature_count(data_a: Dataset, data_b: Dataset) -> dict:
    """Per-feature Fisher ratios of two datasets ("ratios_a", "ratios_b") and
    the features on which each is smaller, and tied ("count_a_smaller",
    "count_b_smaller", "ties"): the compare-overlap payload."""
    if data_a.dimension != data_b.dimension:
        raise ValueError("dimension mismatch")
    ra = [fisher_ratio(data_a, j) for j in range(data_a.dimension)]
    rb = [fisher_ratio(data_b, j) for j in range(data_b.dimension)]
    a_smaller = sum(1 for x, y in zip(ra, rb) if x < y)
    b_smaller = sum(1 for x, y in zip(ra, rb) if y < x)
    return {"ratios_a": ra, "ratios_b": rb, "count_a_smaller": a_smaller,
            "count_b_smaller": b_smaller, "ties": data_a.dimension - a_smaller - b_smaller}
