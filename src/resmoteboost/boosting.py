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

import math
from dataclasses import dataclass, field

import numpy as np

from .data import ClassPartition, Dataset, NEGATIVE, POSITIVE, RandomSource, _integer
from .entropy import fit_gnb, log_joint
from .pruning import _NeighbourLists, double_pruning, smote_interpolate
from .samplers import random_under

_ALPHA_EPS = 1e-10  # clamp for zero training error
_GNB_VAR_SMOOTHING = 1.0   # the naive Bayes learner's variance floor, times the largest variance


def heuristic_tmax(n_majority: int, n_minority: int, k: int) -> int:
    """Iteration count that closes the class gap at 2k per round: at least 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
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


def fit_stump_params(X, y, w):
    """Exhaustive weighted stump search.

    Candidates are the midpoints between consecutive distinct sorted values of
    each feature plus -inf/+inf sentinels (the sentinels encode the constant
    classifiers). Every candidate of every feature is scored at once. Ties
    break toward (lower feature, lower threshold, positive polarity). Returns
    (feature_index, threshold, polarity).

    The search works on the (d, n) transpose, one contiguous row per feature.
    Each row is ordered by numpy's default argsort, which is not stable (and
    vectorised on recent numpy), and then each run of equal values is put
    back in position order: the integer keys run * n + position are
    distinct, and a run's keys lie in [run * n, run * n + n), so sorting
    them orders the rows by (value, position), which is the stable order
    whatever sort numpy uses. The order inside a run decides the bits of the
    weight sums below each boundary, and a cumulative sum along a contiguous
    row adds in the same sequence as one down a column, so the errors and
    the chosen stump, the sign of a zero threshold included, are those of a
    stable sort per column.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    w = np.asarray(w, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(f"X must be 2-D with at least one feature, got shape {X.shape}")
    n, d = X.shape
    if y.shape != (n,) or w.shape != (n,):
        raise ValueError(f"y {y.shape} and w {w.shape} must have one entry per row of X ({n})")
    if not np.all(np.isfinite(X)):
        raise ValueError("feature values must be finite")
    total = w.sum()
    if not np.isfinite(total) or np.any(w < 0) or total <= 0:   # inf or nan in w: sum not finite
        raise ValueError("weights must be finite and non-negative with a finite positive sum")
    w_pos_total = float(w[y == POSITIVE].sum())
    w_neg_total = float(w[y == NEGATIVE].sum())

    Xt = np.ascontiguousarray(X.T)
    order = np.argsort(Xt, axis=1)
    xs = np.take_along_axis(Xt, order, axis=1)
    # column b of tied/cp/cn is boundary b, the threshold between xs[:, b-1]
    # and xs[:, b]; column 0 is the -inf sentinel and column n the +inf one
    tied = np.zeros((d, n + 1), dtype=bool)
    tied[:, 1:n] = xs[:, 1:] == xs[:, :-1]   # no threshold between equal values
    if tied.any():   # restore position order inside each run of equal values
        run = np.cumsum(~tied[:, :n], axis=1, dtype=np.intp) * n
        order += run
        order.sort(axis=1)
        order -= run
    cp = np.zeros((d, n + 1))
    cn = np.zeros((d, n + 1))
    np.cumsum(np.where(y == POSITIVE, w, 0.0)[order], axis=1, out=cp[:, 1:])
    np.cumsum(np.where(y == NEGATIVE, w, 0.0)[order], axis=1, out=cn[:, 1:])
    err_plus = cp + (w_neg_total - cn)    # predict + where x > thr
    err_minus = (w_pos_total - cp) + cn   # predict + where x < thr
    err_plus[tied] = np.inf
    err_minus[tied] = np.inf

    # lexicographic minimum of (error, feature, threshold, -polarity)
    best = min(err_plus.min(), err_minus.min())
    hit_plus, hit_minus = err_plus == best, err_minus == best
    j = int(np.argmax((hit_plus | hit_minus).any(axis=1)))
    # xs keeps the unrestored order: the two values at a boundary differ, so at
    # most one is a signed zero and the midpoint does not depend on run order
    thr = np.concatenate([[-np.inf], 0.5 * (xs[j, :-1] + xs[j, 1:]), [np.inf]])
    hits = np.flatnonzero(hit_plus[j] | hit_minus[j])
    lowest = hits[thr[hits] == thr[hits].min()]   # distinct boundaries can round to one midpoint
    plus = lowest[hit_plus[j, lowest]]
    b = plus[0] if len(plus) else lowest[0]
    return j, float(thr[b]), 1 if len(plus) else -1


class GaussianNBLearner:
    """Naive Bayes base classifier; margin is the posterior log-odds."""

    def __init__(self):
        self.model = None

    def fit(self, X, y, w):
        self.model = fit_gnb(X, y, weights=w, var_smoothing=_GNB_VAR_SMOOTHING)
        return self

    def score(self, X):
        lj = log_joint(self.model, X)
        return lj[:, 1] - lj[:, 0]

    def predict(self, X):
        return np.where(self.score(X) > 0, POSITIVE, NEGATIVE)


class KNNLearner:
    """Weighted k-nearest-neighbor vote; margin is the signed weight sum."""

    def __init__(self, n_neighbors: int = 10):
        if not _integer(n_neighbors) or n_neighbors < 1:
            raise ValueError(f"n_neighbors must be an integer >= 1, got {n_neighbors!r}")
        self.n_neighbors = n_neighbors
        self._X = None
        self._y = None
        self._w = None
        self.pool_keys = None   # pool row keys, set by fit_boosted for neighbour reuse

    def fit(self, X, y, w):
        self._X = np.asarray(X, dtype=float)
        self._y = np.asarray(y)
        self._w = np.asarray(w, dtype=float)
        self.pool_keys = None
        return self

    def score(self, X, lists=None):
        """Signed weight sum of each row's neighbours; `lists` (optional)
        carries the neighbour lists of the rows of X from earlier pools."""
        nn = (lists or _NeighbourLists(X)).nearest(self._X, self.pool_keys, self.n_neighbors)
        return (self._w[nn] * self._y[nn]).sum(axis=1)

    def predict(self, X, lists=None):
        return np.where(self.score(X, lists) > 0, POSITIVE, NEGATIVE)


LEARNER_TYPES = {"stump": DecisionStump, "gnb": GaussianNBLearner, "knn": KNNLearner}


def make_learner_factory(name: str):
    """The learner class for `name`; called with no arguments it builds a
    learner with the defaults (n_neighbors=10 for k-NN)."""
    if name not in LEARNER_TYPES:
        raise ValueError(f"unknown base learner {name!r}")
    return LEARNER_TYPES[name]


@dataclass
class BoostConfig:
    t_max: int
    k: int = 0                   # majority rows removed / synthetics added per round
    k_neighbors: int = 5         # SMOTE neighbourhood size
    rebalancer: str = "none"     # none | double_pruning | smote | random_under
    fresh_pools: bool = False    # re-derive pools from the original train set each round

    def __post_init__(self):
        for name in ("t_max", "k", "k_neighbors"):
            if not _integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.rebalancer not in ("none", "double_pruning", "smote", "random_under"):
            raise ValueError(f"unknown rebalancer {self.rebalancer!r}")


@dataclass
class BoostedEnsemble:
    learners: list
    alphas: list
    training_log: list = field(default_factory=list)

    def decision_function(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        margin = np.zeros(len(X))
        lists = _NeighbourLists(X)   # k-NN members are searched against the previous one's pool
        for learner, alpha in zip(self.learners, self.alphas):
            margin += alpha * _predict(learner, X, lists)
        return margin

    def predict(self, X):
        # exact zero margin resolves to the negative (majority) class
        return np.where(self.decision_function(X) > 0, POSITIVE, NEGATIVE)


def _predict(learner, X, lists):
    """learner.predict(X); a k-NN learner takes its neighbours from `lists`,
    the neighbour lists of the rows of X."""
    if isinstance(learner, KNNLearner):
        return learner.predict(X, lists)
    return learner.predict(X)


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
            # this rebalancer adds no synthetic rows
            part = ClassPartition(train.X[maj_idx], train.X[min_idx])
            maj_idx = maj_idx[random_under(part, n_remove, rng)]
            audit["removed"] = int(n_remove)
        return maj_idx, syn_X

    minority = np.vstack([train.X[min_idx], syn_X])
    if len(minority) < 2:
        return maj_idx, syn_X
    if cfg.rebalancer == "smote":
        if cfg.k >= 1:
            points = smote_interpolate(minority, cfg.k, cfg.k_neighbors, rng)[0]
            syn_X = np.vstack([syn_X, points])
            audit["added"] = cfg.k
    else:  # double_pruning
        k_eff = min(cfg.k, len(maj_idx) - 1)
        if k_eff >= 1:
            keep, rows = double_pruning(train.X[maj_idx], minority, k_eff,
                                        cfg.k_neighbors, rng, stats=audit)
            maj_idx = maj_idx[keep]
            syn_X = np.vstack([syn_X, rows])
    return maj_idx, syn_X


def fit_boosted(train: Dataset, cfg: BoostConfig, learner_factory, rng: RandomSource,
                capture: dict | None = None) -> BoostedEnsemble:
    """AdaBoost with per-iteration rebalancing.

    Sample weights live on the original training set; synthetic points enter
    only the per-round fit with weight 1/N. The error E_t and the exponential
    weight update are computed on the original distribution.

    When `capture` is a dict it receives the last kept round's pool ("X",
    "y") and the provenance records of its synthetic rows ("synthetics"),
    one per row in row order; only the double-pruning rebalancer writes
    records, so the list is empty for the other rebalancers.
    """
    if not (train.n_positive and train.n_negative):
        raise ValueError("fit_boosted requires both classes present")
    N = len(train)
    w = np.full(N, 1.0 / N)
    min_idx = np.flatnonzero(train.y == POSITIVE)
    fresh = (np.flatnonzero(train.y == NEGATIVE), np.empty((0, train.dimension)))
    maj_idx, syn_X = fresh
    records = []   # with `capture`: provenance records of the rows of syn_X, in order
    # Pool row keys rise with pool position and survive deletions: a train
    # row's position in the first pool, N + a count for synthetics.
    rank = np.empty(N, dtype=np.intp)
    rank[np.concatenate([fresh[0], min_idx])] = np.arange(N)
    syn_base = 0   # synthetics made before the ones in syn_X
    train_lists = _NeighbourLists(train.X)

    learners, alphas, log = [], [], []
    for t in range(cfg.t_max):
        audit = {}
        if cfg.fresh_pools:
            syn_base += len(syn_X)
            (maj_idx, syn_X), records = fresh, []
        maj_idx, syn_X = _rebalance(train, maj_idx, min_idx, syn_X, cfg, rng, audit)
        added = audit.pop("synthetics", [])
        if capture is not None:
            records = records + added

        orig_idx = np.concatenate([maj_idx, min_idx])
        n_syn = len(syn_X)
        X_fit = np.vstack([train.X[orig_idx], syn_X])
        y_fit = np.concatenate([train.y[orig_idx], np.full(n_syn, POSITIVE)])
        keys = np.concatenate([rank[orig_idx], N + syn_base + np.arange(n_syn)])

        learner = None
        for attempt in range(2):
            w_fit = np.concatenate([w[orig_idx], np.full(n_syn, 1.0 / N)])
            candidate = learner_factory()
            candidate.fit(X_fit, y_fit, w_fit / w_fit.sum())
            if isinstance(candidate, KNNLearner):
                candidate.pool_keys = keys
            pred = _predict(candidate, train.X, train_lists)
            err = float(w[pred != train.y].sum())
            if err < 0.5:
                learner = candidate
                break
            # discard the learner, reset weights to uniform, retry this round once
            w = np.full(N, 1.0 / N)
        if learner is None:
            break  # two consecutive failed attempts: stop with the ensemble so far
        err_c = max(err, _ALPHA_EPS)
        alpha = 0.5 * math.log((1.0 - err_c) / err_c)

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
            "rebalance": audit,
        })
        if capture is not None:
            capture.update(X=X_fit, y=y_fit, synthetics=records)

    if not learners:   # the loop stopped at round t, on that round's pool
        raise RuntimeError(f"boosting failed: no base learner achieved error < 0.5 in round {t} "
                           f"(k={cfg.k}, pool of {len(maj_idx)} majority and "
                           f"{len(min_idx) + n_syn} minority rows)")
    return BoostedEnsemble(learners=learners, alphas=alphas, training_log=log)
