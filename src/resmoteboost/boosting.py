"""Weighted AdaBoost with pluggable per-iteration rebalancing.

The boosting loop keeps the classic AdaBoost weight machinery on the original
training samples while each iteration trains its base learner on a rebalanced
pool. With the double-pruning rebalancer the pruned pools are carried across
iterations, so the class-size gap shrinks by up to 2k per round; the heuristic
iteration count (|maj| - |min|) / (2k) then lands the pools near parity.

Named configurations:

* re_smoteboost  - rebalancer "double_pruning"
* smoteboost     - rebalancer "smote" (k plain synthetics per round)
* rusboost       - rebalancer "random_under" (k random majority removals per round)
* plain          - rebalancer "none"
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, NEGATIVE, POSITIVE, RandomSource, partition_by_class
from .entropy import fit_gnb, log_joint
from .pruning import PruningConfig, pruning_step, smote_interpolate

_ALPHA_EPS = 1e-10  # clamp for zero training error


def heuristic_tmax(n_majority: int, n_minority: int, k: int) -> int:
    """Iteration count that closes the class gap at 2k per round: at least 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_majority < n_minority:
        raise ValueError("majority count must be >= minority count")
    return max(1, math.ceil((n_majority - n_minority) / (2 * k)))


class DecisionStump:
    """Depth-1 threshold classifier: positive iff polarity*(x[f] - threshold) > 0."""

    def __init__(self):
        self.feature_index = 0
        self.threshold = -np.inf
        self.polarity = 1

    def fit(self, X, y, w):
        best = fit_stump_params(X, y, w)
        self.feature_index, self.threshold, self.polarity = best
        return self

    def score(self, X):
        return self.polarity * (np.asarray(X, dtype=float)[:, self.feature_index] - self.threshold)

    def predict(self, X):
        return np.where(self.score(X) > 0, POSITIVE, NEGATIVE)

    def params(self):
        return {"type": "stump", "feature_index": int(self.feature_index),
                "threshold": float(self.threshold), "polarity": int(self.polarity)}

    @classmethod
    def from_params(cls, p):
        s = cls()
        s.feature_index = p["feature_index"]
        s.threshold = p["threshold"]
        s.polarity = p["polarity"]
        return s


def fit_stump_params(X, y, w):
    """Exhaustive weighted stump search.

    Candidates are the midpoints between consecutive distinct sorted values of
    each feature plus -inf/+inf sentinels (the sentinels encode the constant
    classifiers). Ties break toward (lower feature, lower threshold, positive
    polarity). Returns (feature_index, threshold, polarity).
    """
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


def fit_stump(data: Dataset, weights) -> DecisionStump:
    """Dataset-level wrapper around the exhaustive stump search."""
    return DecisionStump().fit(data.X, data.y, weights)


class GaussianNBLearner:
    """Naive Bayes base classifier; margin is the posterior log-odds."""

    def __init__(self, var_smoothing: float = 1.0):
        self.var_smoothing = var_smoothing
        self.model = None

    def fit(self, X, y, w):
        self.model = fit_gnb(Dataset(X, y), weights=w, var_smoothing=self.var_smoothing)
        return self

    def score(self, X):
        lj = log_joint(self.model, X)
        return lj[:, 1] - lj[:, 0]

    def predict(self, X):
        return np.where(self.score(X) > 0, POSITIVE, NEGATIVE)

    def params(self):
        return {"type": "gnb", "var_smoothing": self.var_smoothing,
                "priors": self.model.priors.tolist(), "means": self.model.means.tolist(),
                "variances": self.model.variances.tolist(), "smoothing": self.model.smoothing}

    @classmethod
    def from_params(cls, p):
        from .entropy import GaussianNBModel
        learner = cls(var_smoothing=p["var_smoothing"])
        learner.model = GaussianNBModel(priors=np.array(p["priors"]), means=np.array(p["means"]),
                                        variances=np.array(p["variances"]), smoothing=p["smoothing"])
        return learner


class KNNLearner:
    """Weighted k-nearest-neighbor vote; margin is the signed weight sum."""

    def __init__(self, n_neighbors: int = 10):
        self.n_neighbors = n_neighbors
        self._X = None
        self._y = None
        self._w = None

    def fit(self, X, y, w):
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y)
        self._w = np.asarray(w, dtype=float)
        return self

    def score(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        k = min(self.n_neighbors, len(self._X))
        out = np.empty(len(X))
        for i, x in enumerate(X):
            d = np.linalg.norm(self._X - x, axis=1)
            nn = np.argsort(d, kind="stable")[:k]
            out[i] = float((self._w[nn] * self._y[nn]).sum())
        return out

    def predict(self, X):
        return np.where(self.score(X) > 0, POSITIVE, NEGATIVE)

    def params(self):
        return {"type": "knn", "n_neighbors": self.n_neighbors,
                "X": self._X.tolist(), "y": self._y.tolist(), "w": self._w.tolist()}

    @classmethod
    def from_params(cls, p):
        learner = cls(n_neighbors=p["n_neighbors"])
        return learner.fit(np.array(p["X"]), np.array(p["y"]), np.array(p["w"]))


LEARNER_TYPES = {"stump": DecisionStump, "gnb": GaussianNBLearner, "knn": KNNLearner}


def make_learner_factory(name: str):
    if name == "stump":
        return DecisionStump
    if name == "gnb":
        return lambda: GaussianNBLearner(var_smoothing=1.0)
    if name == "knn":
        return lambda: KNNLearner(n_neighbors=10)
    raise ValueError(f"unknown base learner {name!r}")


@dataclass
class BoostConfig:
    t_max: int
    k: int = 0
    learning_rate: float = 1.0
    rebalancer: str = "none"     # none | double_pruning | smote | random_under
    pruning: PruningConfig | None = None
    fresh_pools: bool = False    # re-derive pools from the original train set each round

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.rebalancer not in ("none", "double_pruning", "smote", "random_under"):
            raise ValueError(f"unknown rebalancer {self.rebalancer!r}")
        if self.rebalancer == "double_pruning" and self.pruning is None:
            self.pruning = PruningConfig(k=self.k)


@dataclass
class BoostedEnsemble:
    learners: list
    alphas: list
    training_log: list = field(default_factory=list)
    label_codec: dict = field(default_factory=lambda: {"positive": 1, "negative": -1})

    def decision_function(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        margin = np.zeros(len(X))
        for learner, alpha in zip(self.learners, self.alphas):
            margin += alpha * learner.predict(X)
        return margin

    def predict(self, X):
        # exact zero margin resolves to the negative (majority) class
        return np.where(self.decision_function(X) > 0, POSITIVE, NEGATIVE)

    def to_json(self) -> dict:
        return {
            "alphas": [float(a) for a in self.alphas],
            "learners": [lr.params() for lr in self.learners],
            "label_codec": self.label_codec,
            "training_log": self.training_log,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BoostedEnsemble":
        learners = [LEARNER_TYPES[p["type"]].from_params(p) for p in obj["learners"]]
        return cls(learners=learners, alphas=list(obj["alphas"]),
                   training_log=list(obj.get("training_log", [])),
                   label_codec=dict(obj["label_codec"]))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _rebalance(train: Dataset, maj_idx, min_idx, syn_X, cfg: BoostConfig,
               rng: RandomSource, audit: dict):
    """Apply the configured per-iteration rebalancing to the carried pools.

    The pools are maj_idx / min_idx (indices into the original train set) and
    syn_X (accumulated synthetic minority points). Returns the new
    (maj_idx, syn_X); min_idx never changes.
    """
    if cfg.rebalancer == "none":
        return maj_idx, syn_X
    if cfg.rebalancer == "random_under":
        n_remove = min(cfg.k, len(maj_idx) - 1)
        if n_remove >= 1:
            order = rng.permutation(len(maj_idx))
            maj_idx = maj_idx[np.sort(order[n_remove:])]
            audit["removed"] = int(n_remove)
        return maj_idx, syn_X

    minority = Dataset(np.vstack([train.X[min_idx], syn_X]),
                       np.full(len(min_idx) + len(syn_X), POSITIVE))
    if len(minority) < 2:
        return maj_idx, syn_X
    if cfg.rebalancer == "smote":
        if cfg.k >= 1:
            k_nb = cfg.pruning.k_neighbors if cfg.pruning else 5
            new = []
            for _ in range(cfg.k):
                i = int(rng.integers(0, len(minority)))
                new.append(smote_interpolate(minority.X[i], minority, i, k_nb, rng).x)
            syn_X = np.vstack([syn_X] + new)
            audit["added"] = cfg.k
    else:  # double_pruning
        k_eff = min(cfg.k, len(maj_idx) - 1)
        if k_eff >= 1:
            keep, retained = pruning_step(train.subset(maj_idx), minority,
                                          replace(cfg.pruning, k=k_eff), rng, stats=audit)
            maj_idx = maj_idx[keep]
            syn_X = np.vstack([syn_X] + [c.x for c in retained])
    return maj_idx, syn_X


def fit_boosted(train: Dataset, cfg: BoostConfig, learner_factory, rng: RandomSource,
                capture: dict | None = None) -> BoostedEnsemble:
    """AdaBoost with per-iteration rebalancing.

    Sample weights live on the original training set; synthetic points enter
    only the per-round fit with weight 1/N. The error E_t and the exponential
    weight update are computed on the original distribution.

    When `capture` is a dict it receives the final balanced pool ("X", "y")
    and the provenance records of every retained synthetic ("synthetics").
    """
    partition_by_class(train)  # validates both classes present
    N = len(train)
    w = np.full(N, 1.0 / N)
    min_idx = np.flatnonzero(train.y == POSITIVE)
    fresh = (np.flatnonzero(train.y == NEGATIVE), np.empty((0, train.dimension)))
    maj_idx, syn_X = fresh

    learners, alphas, log = [], [], []
    for t in range(cfg.t_max):
        audit = {}
        if cfg.fresh_pools:
            maj_idx, syn_X = fresh
        maj_idx, syn_X = _rebalance(train, maj_idx, min_idx, syn_X, cfg, rng, audit)

        orig_idx = np.concatenate([maj_idx, min_idx])
        n_syn = len(syn_X)
        X_fit = np.vstack([train.X[orig_idx], syn_X])
        y_fit = np.concatenate([train.y[orig_idx], np.full(n_syn, POSITIVE)])

        learner = None
        for attempt in range(2):
            w_fit = np.concatenate([w[orig_idx], np.full(n_syn, 1.0 / N)])
            candidate = learner_factory()
            candidate.fit(X_fit, y_fit, w_fit / w_fit.sum())
            pred = candidate.predict(train.X)
            err = float(w[pred != train.y].sum())
            if err < 0.5:
                learner = candidate
                break
            # discard the learner, reset weights to uniform, retry this round once
            w = np.full(N, 1.0 / N)
        if learner is None:
            break  # two consecutive failed attempts: stop with the ensemble so far
        err_c = max(err, _ALPHA_EPS)
        alpha = cfg.learning_rate * 0.5 * math.log((1.0 - err_c) / err_c)

        w = w * np.exp(-alpha * train.y * pred)
        w = w / w.sum()

        learners.append(learner)
        alphas.append(alpha)
        log.append({
            "iteration": t,
            "error": err,
            "alpha": alpha,
            "weight_sum": float(w.sum()),
            "n_majority": int(len(maj_idx)),
            "n_minority": int(len(min_idx) + n_syn),
            "n_synthetic": int(n_syn),
            "rebalance": {k: v for k, v in audit.items() if k != "synthetics"},
        })
        if capture is not None:
            capture.setdefault("synthetics", []).extend(audit.get("synthetics", []))
            capture["X"] = X_fit
            capture["y"] = y_fit

    if not learners:
        raise RuntimeError("boosting failed: no base learner achieved error < 0.5")
    return BoostedEnsemble(learners=learners, alphas=alphas, training_log=log)
