"""Double-pruning resampling engine.

The balancing step combines:

* majority pruning — drop the k lowest-entropy majority samples under a
  naive Bayes model fit on the current pool;
* minority oversampling — roulette-wheel seed selection where a minority
  sample's fitness is the reciprocal of its summed L1 distance to the
  majority class, SMOTE-style interpolation toward a minority neighbor, a
  regularization acceptance test (the synthetic must be at least as close to
  its seed as to the nearest majority sample), and an entropy noise filter
  that keeps only the k most class-ambiguous candidates.

All tie-breaks are "lower index first" so results are deterministic for a
given RandomSource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .data import Dataset, POSITIVE, RandomSource
from .entropy import entropy_batch, fit_gnb, posterior_batch


@dataclass(frozen=True)
class PruningConfig:
    k: int                              # majority removals / synthetics retained per call
    k_neighbors: int = 5
    candidate_multiplier: float = 2.0   # accepted candidates gathered before noise filtering
    spin_cap: int | None = None         # default 50 * k
    epsilon: float = 1e-12              # guard for zero roulette distances

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.candidate_multiplier < 1.0:
            raise ValueError("candidate_multiplier must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.spin_cap is not None and self.spin_cap < self.k:
            raise ValueError("spin_cap must be >= k")

    @property
    def effective_spin_cap(self) -> int:
        return 50 * max(self.k, 1) if self.spin_cap is None else self.spin_cap


@dataclass(frozen=True)
class RouletteWheel:
    seed_indices: np.ndarray   # minority indices, in minority order
    distances: np.ndarray      # summed L1 distance to the majority class
    fitness: np.ndarray        # 1 / max(distance, epsilon)
    probabilities: np.ndarray
    cumulative: np.ndarray     # non-decreasing, last element ~ 1

    def __post_init__(self):
        if abs(float(self.probabilities.sum()) - 1.0) > 1e-9:
            raise ValueError("selection probabilities must sum to 1")
        if np.any(np.diff(self.cumulative) < 0) or abs(float(self.cumulative[-1]) - 1.0) > 1e-9:
            raise ValueError("cumulative probabilities must be sorted and end at 1")


@dataclass
class SyntheticSample:
    x: np.ndarray
    seed_index: int
    neighbor_index: int
    alpha: float
    seed_x: np.ndarray
    dist_min: float = math.nan   # Euclidean distance to own seed
    dist_maj: float = math.nan   # min Euclidean distance to the majority class
    entropy: float = math.nan    # filled by the noise filter

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "seed_index": int(self.seed_index),
            "neighbor_index": int(self.neighbor_index),
            "alpha": float(self.alpha),
            "dist_min": float(self.dist_min),
            "dist_maj": float(self.dist_maj),
            "entropy": float(self.entropy),
        }


def _entropy_keep(model, majority: Dataset, k: int) -> np.ndarray:
    """Sorted positions of the majority rows left after removing the k
    lowest-entropy rows; ties remove the lower position first."""
    ent = entropy_batch(posterior_batch(model, majority.X))
    order = np.argsort(ent, kind="stable")          # ascending; stable => lower index first
    return np.sort(order[k:])


def majority_class_pruning(majority: Dataset, pool: Dataset, k: int) -> Dataset:
    """Remove the k lowest-entropy majority samples.

    The entropy model is fit on `pool` (both classes); ties break toward
    removing the lower index first.
    """
    if k >= len(majority):
        raise ValueError(f"k={k} must be smaller than the majority size {len(majority)}")
    if k == 0:
        return majority
    return majority.subset(_entropy_keep(fit_gnb(pool), majority, k))


def build_roulette(minority: Dataset, majority: Dataset, epsilon: float = 1e-12) -> RouletteWheel:
    """Fitness-proportionate wheel over minority samples.

    Fitness is the reciprocal of the summed Manhattan distance to all
    majority samples, so minority points near the majority distribution (the
    overlap region) are more likely to seed synthetics.
    """
    if len(minority) == 0 or len(majority) == 0:
        raise ValueError("both classes must be non-empty")
    M = cdist(minority.X, majority.X, metric="cityblock").sum(axis=1)
    fitness = 1.0 / np.maximum(M, epsilon)
    probabilities = fitness / fitness.sum()
    cumulative = np.cumsum(probabilities)
    cumulative[-1] = 1.0  # kill accumulated round-off at the top bucket
    return RouletteWheel(
        seed_indices=np.arange(len(minority)),
        distances=M,
        fitness=fitness,
        probabilities=probabilities,
        cumulative=cumulative,
    )


def spin(wheel: RouletteWheel, n_draws: int, rng: RandomSource) -> np.ndarray:
    """Draw n seed indices with repetition; r in bucket [q_{i-1}, q_i) selects i."""
    if n_draws == 0:
        return np.empty(0, dtype=int)
    r = np.atleast_1d(rng.uniform(size=n_draws))
    idx = np.searchsorted(wheel.cumulative, r, side="right")
    return wheel.seed_indices[np.minimum(idx, len(wheel.seed_indices) - 1)]


def smote_interpolate(seed, minority: Dataset, seed_index: int, k_neighbors: int,
                      rng: RandomSource) -> SyntheticSample:
    """Linear interpolation between a minority seed and one of its minority
    nearest neighbors: x = seed + alpha * (neighbor - seed), alpha ~ U[0,1)."""
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples to interpolate")
    seed = np.asarray(seed, dtype=float)
    d = np.linalg.norm(minority.X - seed, axis=1)
    order = np.argsort(d, kind="stable")
    order = order[order != seed_index]
    neighbors = order[: min(k_neighbors, len(minority) - 1)]
    neighbor_index = int(neighbors[int(rng.integers(0, len(neighbors)))])
    alpha = float(rng.uniform())
    x = seed + alpha * (minority.X[neighbor_index] - seed)
    return SyntheticSample(x=x, seed_index=int(seed_index), neighbor_index=neighbor_index,
                           alpha=alpha, seed_x=seed)


def regularization_accept(candidate: SyntheticSample, majority: Dataset) -> bool:
    """Keep a synthetic only if it sits at least as close to its own seed as
    to the nearest majority sample. Both distances are stored on the
    candidate for auditing.
    """
    if len(majority) == 0:
        raise ValueError("majority must be non-empty")
    candidate.dist_maj = float(np.linalg.norm(majority.X - candidate.x, axis=1).min())
    candidate.dist_min = float(np.linalg.norm(candidate.x - candidate.seed_x))
    return candidate.dist_min <= candidate.dist_maj


def _entropy_filter(model, candidates, k: int):
    """The min(k, n) highest-entropy candidates under `model`, each carrying
    its entropy, in descending entropy order; ties keep the lower index first."""
    ent = entropy_batch(posterior_batch(model, np.vstack([c.x for c in candidates])))
    for c, h in zip(candidates, ent):
        c.entropy = float(h)
    order = np.argsort(-ent, kind="stable")[: min(k, len(candidates))]
    return [candidates[i] for i in order]


def noise_filter(candidates, pool: Dataset, k: int):
    """Keep the min(k, n) highest-entropy candidates under a model fit on pool.

    Returned samples carry their entropy and come back in descending entropy
    order; ties keep the lower candidate index first.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to filter")
    return _entropy_filter(fit_gnb(pool), candidates, k)


def _oversample(majority: Dataset, minority: Dataset, cfg: PruningConfig, model,
                rng: RandomSource, stats: dict | None):
    """The synthetics minority_class_pruning adds, noise-filtered under `model`."""
    wheel = build_roulette(minority, majority, cfg.epsilon)
    target = math.ceil(cfg.candidate_multiplier * cfg.k)
    accepted = []
    spins = 0
    while len(accepted) < target and spins < cfg.effective_spin_cap:
        seed_index = int(spin(wheel, 1, rng)[0])
        spins += 1
        candidate = smote_interpolate(minority.X[seed_index], minority, seed_index,
                                      cfg.k_neighbors, rng)
        if regularization_accept(candidate, majority):
            accepted.append(candidate)
    retained = _entropy_filter(model, accepted, cfg.k) if accepted else []
    if stats is not None:
        stats.update(spins=spins, accepted=len(accepted), retained=len(retained))
        if retained:
            stats["synthetics"] = [c.to_json() for c in retained]
    return retained


def _with_synthetics(minority: Dataset, retained) -> Dataset:
    if not retained:
        return minority
    syn = Dataset(np.vstack([c.x for c in retained]),
                  np.full(len(retained), POSITIVE),
                  feature_names=minority.feature_names,
                  source_tag=minority.source_tag)
    return minority.concat(syn)


def minority_class_pruning(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                           rng: RandomSource, stats: dict | None = None) -> Dataset:
    """Grow the minority class by up to cfg.k filtered synthetic samples.

    Accepted candidates are gathered (up to ceil(candidate_multiplier * k),
    bounded by spin_cap roulette spins), then the entropy noise filter keeps
    the top k. If the acceptance region is tiny the result may gain fewer
    than k samples; the caller sees the actual count.
    """
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples")
    if len(majority) == 0:
        raise ValueError("majority must be non-empty")
    model = fit_gnb(majority.concat(minority))
    return _with_synthetics(minority, _oversample(majority, minority, cfg, model, rng, stats))


def pruning_step(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                 rng: RandomSource, stats: dict | None = None):
    """One double-pruning step. A single naive Bayes model, fit on
    majority ∪ minority, scores both the majority rows and the candidates.

    Returns (keep, retained): the sorted positions of the majority rows kept
    (all but the cfg.k lowest-entropy ones) and the retained synthetics
    (at most cfg.k, in descending entropy order). With k = 0 the candidate
    target is 0, so nothing is removed or added.
    """
    if cfg.k >= len(majority):
        raise ValueError(f"k={cfg.k} must be smaller than the majority size {len(majority)}")
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples")
    model = fit_gnb(majority.concat(minority))
    keep = _entropy_keep(model, majority, cfg.k)
    return keep, _oversample(majority, minority, cfg, model, rng, stats)


def double_pruning(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                   rng: RandomSource, stats: dict | None = None):
    """One balancing step: prune k majority samples, add up to k synthetics.

    Returns (new_majority, new_minority); inputs are never mutated.
    """
    keep, retained = pruning_step(majority, minority, cfg, rng, stats=stats)
    return majority.subset(keep), _with_synthetics(minority, retained)
