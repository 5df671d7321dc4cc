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
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, NEGATIVE, POSITIVE


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    g_means: float
    macro_accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    macro_g_means: float
    g_means_spec: float
    confusion: ConfusionMatrix
    auc: float | None = None
    undefined: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            "positive_class": {
                "accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1, "g_means": self.g_means,
            },
            "macro": {
                "accuracy": self.macro_accuracy, "precision": self.macro_precision,
                "recall": self.macro_recall, "f1": self.macro_f1,
                "g_means": self.macro_g_means,
            },
            "g_means_spec": self.g_means_spec,
            "confusion": {"tp": self.confusion.tp, "fp": self.confusion.fp,
                          "fn": self.confusion.fn, "tn": self.confusion.tn},
            "undefined": list(self.undefined),
        }
        if self.auc is not None:
            out["auc"] = self.auc
        return out


def confusion(predictions, truth) -> ConfusionMatrix:
    """Count tp/fp/fn/tn with positive = minority (+1)."""
    predictions = np.asarray(predictions)
    truth = np.asarray(truth)
    if predictions.shape != truth.shape or len(predictions) == 0:
        raise ValueError("predictions and truth must be equal-length, non-empty")
    return ConfusionMatrix(
        tp=int(np.sum((predictions == POSITIVE) & (truth == POSITIVE))),
        fp=int(np.sum((predictions == POSITIVE) & (truth == NEGATIVE))),
        fn=int(np.sum((predictions == NEGATIVE) & (truth == POSITIVE))),
        tn=int(np.sum((predictions == NEGATIVE) & (truth == NEGATIVE))),
    )


def _ratio(num, den, name, undefined):
    if den == 0:
        undefined.append(name)
        return 0.0
    return num / den


def binary_metrics(cm: ConfusionMatrix) -> MetricReport:
    """Confusion metrics in positive-class and macro-averaged variants.

    Zero-denominator ratios come back as 0 with the metric name recorded in
    `undefined`, so replication aggregation never sees NaN.
    """
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    undefined: list = []
    accuracy = (cm.tp + cm.tn) / cm.total
    prec_pos = _ratio(cm.tp, cm.tp + cm.fp, "precision", undefined)
    rec_pos = _ratio(cm.tp, cm.tp + cm.fn, "recall", undefined)
    f1_pos = _ratio(2 * prec_pos * rec_pos, prec_pos + rec_pos, "f1", undefined)
    g_pos = math.sqrt(prec_pos * rec_pos)
    # negative-class counterparts for macro averaging
    prec_neg = _ratio(cm.tn, cm.tn + cm.fn, "precision_neg", undefined)
    rec_neg = _ratio(cm.tn, cm.tn + cm.fp, "recall_neg", undefined)
    f1_neg = _ratio(2 * prec_neg * rec_neg, prec_neg + rec_neg, "f1_neg", undefined)
    g_neg = math.sqrt(prec_neg * rec_neg)
    return MetricReport(
        accuracy=accuracy,
        precision=prec_pos,
        recall=rec_pos,
        f1=f1_pos,
        g_means=g_pos,
        macro_accuracy=0.5 * (rec_pos + rec_neg),
        macro_precision=0.5 * (prec_pos + prec_neg),
        macro_recall=0.5 * (rec_pos + rec_neg),
        macro_f1=0.5 * (f1_pos + f1_neg),
        macro_g_means=0.5 * (g_pos + g_neg),
        g_means_spec=math.sqrt(rec_pos * rec_neg),
        confusion=cm,
        undefined=undefined,
    )


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


@dataclass(frozen=True)
class ReplicationSummary:
    metric_name: str
    values: tuple
    mean: float
    std_dev: float

    def to_json(self) -> dict:
        return {"metric": self.metric_name, "mean": self.mean, "std_dev": self.std_dev,
                "n": len(self.values)}


def replication_stats(values, metric_name: str = "") -> ReplicationSummary:
    """Mean and sample standard deviation (ddof=1) across replications."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ValueError("need at least 2 replications")
    arr = np.asarray(values)
    return ReplicationSummary(
        metric_name=metric_name,
        values=tuple(values),
        mean=float(arr.mean()),
        std_dev=float(arr.std(ddof=1)),
    )


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


@dataclass(frozen=True)
class OverlapReport:
    ratios_a: tuple
    ratios_b: tuple
    count_a_smaller: int
    count_b_smaller: int
    ties: int

    def to_json(self) -> dict:
        return {
            "ratios_a": list(self.ratios_a),
            "ratios_b": list(self.ratios_b),
            "count_a_smaller": self.count_a_smaller,
            "count_b_smaller": self.count_b_smaller,
            "ties": self.ties,
        }


def overlap_feature_count(data_a: Dataset, data_b: Dataset) -> OverlapReport:
    """Per-feature Fisher ratios for two datasets plus directional counts."""
    if data_a.dimension != data_b.dimension:
        raise ValueError("dimension mismatch")
    ra = [fisher_ratio(data_a, j) for j in range(data_a.dimension)]
    rb = [fisher_ratio(data_b, j) for j in range(data_b.dimension)]
    a_smaller = sum(1 for x, y in zip(ra, rb) if x < y)
    b_smaller = sum(1 for x, y in zip(ra, rb) if y < x)
    ties = data_a.dimension - a_smaller - b_smaller
    return OverlapReport(ratios_a=tuple(ra), ratios_b=tuple(rb),
                         count_a_smaller=a_smaller, count_b_smaller=b_smaller, ties=ties)
