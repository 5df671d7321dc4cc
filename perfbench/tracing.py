"""Span tracing of the library's public functions, from outside the library.

`Tracer.installed()` replaces each traced function with a wrapper in every
``resmoteboost`` module that holds it (``smote_interpolate`` lives in
``pruning`` and is imported by ``samplers`` and ``boosting``), and each
traced method on its class. The originals come back when the block ends, so
untraced sweeps run the library unchanged.

A span records its name, start, end, parent span, sweep and replication id,
and, for some functions, a work count computed from the arguments (rows,
pairs, thresholds). Work counts are computed after the span closes and
their cost is charged to no span. Spans stay in memory until `write`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

import numpy as np

MODULES = ("experiment", "data", "entropy", "pruning", "samplers", "boosting", "metrics")


def _stump_boundaries(args, kwargs, result):
    """Thresholds `fit_stump_params` scores: per feature, one midpoint between
    each pair of consecutive distinct values plus the two infinite sentinels."""
    xs = np.sort(np.asarray(args[0], dtype=float), axis=0)
    distinct = 1 + (np.diff(xs, axis=0) > 0).sum(axis=0)
    return int((distinct + 1).sum())


# (span name, module, attribute, work count or None). An attribute with a dot
# is a method on a class of that module.
TARGETS = (
    ("experiment.run_experiment", "experiment", "run_experiment", None),
    ("experiment.run_replication", "experiment", "run_replication", None),
    ("experiment.train_and_score", "experiment", "train_and_score", None),
    ("experiment.resample_train", "experiment", "resample_train", None),
    ("data.split_indices", "data", "split_indices", None),
    ("data.partition_by_class", "data", "partition_by_class", None),
    ("data.subset", "data", "Dataset.subset", lambda a, k, r: len(r)),
    ("data.concat", "data", "Dataset.concat", lambda a, k, r: len(r)),
    ("entropy.fit_gnb", "entropy", "fit_gnb", None),
    ("entropy.posterior_batch", "entropy", "posterior_batch", lambda a, k, r: len(r)),
    ("pruning.double_pruning", "pruning", "double_pruning", None),
    ("pruning.majority_class_pruning", "pruning", "majority_class_pruning", None),
    ("pruning.minority_class_pruning", "pruning", "minority_class_pruning", None),
    ("pruning.build_roulette", "pruning", "build_roulette",
     lambda a, k, r: len(a[0]) * len(a[1])),
    ("pruning.smote_interpolate", "pruning", "smote_interpolate", None),
    ("pruning.regularization_accept", "pruning", "regularization_accept",
     lambda a, k, r: len(a[1])),
    ("pruning.noise_filter", "pruning", "noise_filter", None),
    ("samplers.smote", "samplers", "smote", None),
    ("samplers.borderline_smote", "samplers", "borderline_smote", None),
    ("samplers.adasyn", "samplers", "adasyn", None),
    ("samplers.tomek_links", "samplers", "tomek_links",
     lambda a, k, r: (len(a[0].majority) + len(a[0].minority)) ** 2),
    ("samplers.random_under", "samplers", "random_under", None),
    ("boosting.fit_boosted", "boosting", "fit_boosted", None),
    ("boosting.fit_stump_params", "boosting", "fit_stump_params", _stump_boundaries),
    ("boosting.DecisionStump.fit", "boosting", "DecisionStump.fit", None),
    ("boosting.GaussianNBLearner.fit", "boosting", "GaussianNBLearner.fit", None),
    ("boosting.GaussianNBLearner.score", "boosting", "GaussianNBLearner.score", None),
    ("boosting.GaussianNBLearner.predict", "boosting", "GaussianNBLearner.predict", None),
    ("boosting.KNNLearner.fit", "boosting", "KNNLearner.fit", None),
    ("boosting.KNNLearner.score", "boosting", "KNNLearner.score",
     lambda a, k, r: len(r) * len(a[0]._X)),
    ("boosting.KNNLearner.predict", "boosting", "KNNLearner.predict", None),
    ("boosting.BoostedEnsemble.decision_function", "boosting",
     "BoostedEnsemble.decision_function", None),
    ("boosting.BoostedEnsemble.predict", "boosting", "BoostedEnsemble.predict", None),
    ("metrics.roc_auc", "metrics", "roc_auc", None),
    ("metrics.binary_metrics", "metrics", "binary_metrics", None),
    ("metrics.replication_stats", "metrics", "replication_stats", None),
)

LEARNER_FITS = ("boosting.DecisionStump.fit", "boosting.GaussianNBLearner.fit",
                "boosting.KNNLearner.fit")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "sweep", "replication",
                 "child_s", "work")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "sweep": self.sweep,
                "replication": self.replication, "self_s": self.self_s,
                "work": self.work}


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.sweep = None
        self._stack = []
        self._replication = None

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span()
            span.id = len(tracer.spans)
            span.name = name
            span.parent = tracer._stack[-1].id if tracer._stack else None
            span.sweep = tracer.sweep
            span.child_s = 0.0
            span.work = None
            outer_replication = tracer._replication
            if name == "experiment.run_replication":
                index = args[2] if len(args) > 2 else kwargs["index"]
                tracer._replication = f"{tracer.sweep}:{index}"
            span.replication = tracer._replication
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer._replication = outer_replication
                if tracer._stack:
                    tracer._stack[-1].child_s += span.duration
            if work is not None:
                span.work = work(args, kwargs, result)
                if tracer._stack:  # keep the counting out of the parent's self time
                    tracer._stack[-1].child_s += time.perf_counter() - span.end
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [importlib.import_module(f"resmoteboost.{m}") for m in MODULES]
        modules.append(importlib.import_module("resmoteboost"))
        restore = []
        try:
            for name, module_name, attr, work in TARGETS:
                home = importlib.import_module(f"resmoteboost.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original, work))
                    continue
                original = getattr(home, attr)
                traced = self._wrap(name, original, work)
                for module in modules:
                    if module.__dict__.get(attr) is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, traced)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def layer_metrics(spans, count_spans, count_reports, n_sweeps: int) -> dict:
    """Per-layer numbers from the spans of a traced run.

    Times are self seconds per traced sweep over `spans`. Counts and ratios
    come from `count_spans` and `count_reports`, the spans and reports of a
    fixed number of sweeps, so they repeat exactly for a given seed.
    """
    self_s, calls, work = {}, {}, {}
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
    by_id = {span.id: span for span in count_spans}
    learner_fits = 0
    for span in count_spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.work is not None:
            work[span.name] = work.get(span.name, 0) + span.work
        if span.name in LEARNER_FITS and span.parent is not None \
                and by_id[span.parent].name == "boosting.fit_boosted":
            learner_fits += 1

    def t(*names):
        return sum(self_s.get(n, 0.0) for n in names) / n_sweeps

    def prefixed(prefix):
        return [n for n in self_s if n.startswith(prefix)]

    rounds = spins = accepted = retained = 0
    for report in count_reports:
        for rep in report["replications"]:
            for entry in rep["model"].get("training_log", []):
                rounds += 1
                spins += entry["rebalance"].get("spins", 0)
                accepted += entry["rebalance"].get("accepted", 0)
                retained += entry["rebalance"].get("retained", 0)

    replication_s = [s.duration for s in spans if s.name == "experiment.run_replication"]
    roulette_pairs = work.get("pruning.build_roulette", 0)
    return {
        "boosting.stump_fit_s": t("boosting.fit_stump_params"),
        "boosting.stump_fit.calls": calls.get("boosting.fit_stump_params", 0),
        "boosting.stump_boundaries": work.get("boosting.fit_stump_params", 0),
        "boosting.knn_score_s": t("boosting.KNNLearner.score"),
        "boosting.knn_pairs": work.get("boosting.KNNLearner.score", 0),
        "boosting.gnb_learner_s": t(*prefixed("boosting.GaussianNBLearner.")),
        "boosting.learner_fits": learner_fits,
        "boosting.rounds": rounds,
        "boosting.fit_useful_ratio": rounds / learner_fits if learner_fits else 0.0,
        "boosting.fit_boosted.self_s": t("boosting.fit_boosted"),
        "boosting.ensemble_predict_s": t(*prefixed("boosting.BoostedEnsemble.")),
        "pruning.double_pruning_s": sum(s.duration for s in spans
                                        if s.name == "pruning.double_pruning") / n_sweeps,
        "pruning.majority_pruning_s": t("pruning.majority_class_pruning"),
        "pruning.minority_pruning.self_s": t("pruning.minority_class_pruning"),
        "pruning.noise_filter_s": t("pruning.noise_filter"),
        "pruning.roulette_s": t("pruning.build_roulette"),
        "pruning.roulette_pairs": roulette_pairs,
        "pruning.roulette_bytes": 8 * roulette_pairs,
        "pruning.interpolate_s": t("pruning.smote_interpolate"),
        "pruning.interpolate.calls": calls.get("pruning.smote_interpolate", 0),
        "pruning.accept_s": t("pruning.regularization_accept"),
        "pruning.accept.majority_rows": work.get("pruning.regularization_accept", 0),
        "pruning.spins": spins,
        "pruning.accept_ratio": accepted / spins if spins else 0.0,
        "pruning.retain_ratio": retained / accepted if accepted else 0.0,
        "entropy.fit_gnb.calls": calls.get("entropy.fit_gnb", 0),
        "entropy.fit_gnb_s": t("entropy.fit_gnb"),
        "entropy.posterior_rows": work.get("entropy.posterior_batch", 0),
        "entropy.posterior_s": t("entropy.posterior_batch"),
        "samplers.oversample_s": sum(s.duration for s in spans if s.name in (
            "samplers.smote", "samplers.borderline_smote", "samplers.adasyn")) / n_sweeps,
        "samplers.tomek_s": t("samplers.tomek_links"),
        "samplers.tomek_pairs": work.get("samplers.tomek_links", 0),
        "data.split_s": t("data.split_indices"),
        "data.copy_s": t("data.subset", "data.concat"),
        "data.rows_copied": work.get("data.subset", 0) + work.get("data.concat", 0),
        "metrics.roc_auc_s": t("metrics.roc_auc"),
        "metrics.binary_metrics_s": t("metrics.binary_metrics"),
        "metrics.replication_stats_s": t("metrics.replication_stats"),
        "experiment.replication_s": statistics.median(replication_s) if replication_s else 0.0,
        "experiment.self_s": t(*prefixed("experiment.")),
    }
