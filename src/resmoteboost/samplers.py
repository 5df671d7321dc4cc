"""Reference resamplers: SMOTE, Borderline-SMOTE, ADASYN, Tomek links, RUS.

Conventions shared by the module: distances are Euclidean, nearest-neighbor
ties break toward the lower index, and oversamplers return the enlarged
minority set only (the caller reassembles with the untouched majority).
tomek_links is the exception and returns the reduced full dataset.
"""

from __future__ import annotations

import numpy as np

from .data import ClassPartition, Dataset, RandomSource
from .pruning import _with_synthetics, nearest_rows, smote_interpolate


def smote(partition: ClassPartition, n_new: int, k_neighbors: int, rng: RandomSource) -> Dataset:
    """Classic SMOTE: each synthetic interpolates a random minority seed toward
    one of its k nearest minority neighbors. Returns minority + synthetics."""
    minority = partition.minority
    seeds = rng.integers(0, len(minority), size=n_new)
    rows = smote_interpolate(minority.X, len(seeds), k_neighbors, rng, seeds)[0]
    return _with_synthetics(minority, rows)


def _majority_neighbor_counts(partition: ClassPartition, k_neighbors: int) -> np.ndarray:
    """For each minority point: how many of its k nearest neighbors in the
    full dataset (excluding itself) belong to the majority class."""
    full = partition.majority.concat(partition.minority)
    m_off = len(partition.majority)
    self_pos = m_off + np.arange(len(partition.minority))
    return (nearest_rows(full.X, partition.minority.X, k_neighbors, exclude=self_pos)
            < m_off).sum(axis=1)


def borderline_smote(partition: ClassPartition, n_new: int, k_neighbors: int,
                     rng: RandomSource) -> Dataset:
    """Borderline-SMOTE (borderline1 variant): seeds are drawn only from the
    DANGER set, minority points with at least half but not all of their k
    full-set neighbors in the majority class. Falls back to the whole
    minority when no point is in danger."""
    minority = partition.minority
    counts = _majority_neighbor_counts(partition, k_neighbors)
    k_eff = min(k_neighbors, len(partition.majority) + len(minority) - 1)
    danger = np.flatnonzero((counts * 2 >= k_eff) & (counts < k_eff))
    if len(danger) == 0:
        danger = np.arange(len(minority))
    seeds = danger[rng.integers(0, len(danger), size=n_new)]
    rows = smote_interpolate(minority.X, len(seeds), k_neighbors, rng, seeds)[0]
    return _with_synthetics(minority, rows)


def adasyn(partition: ClassPartition, n_new: int, k_neighbors: int,
           rng: RandomSource) -> Dataset:
    """ADASYN: allocate synthetics per seed proportionally to the fraction of
    majority neighbors around it, so harder minority points get more."""
    minority = partition.minority
    counts = _majority_neighbor_counts(partition, k_neighbors)
    k_eff = min(k_neighbors, len(partition.majority) + len(minority) - 1)
    r = counts / k_eff
    total = r.sum()
    if total > 0:
        alloc = np.floor(n_new * r / total + 0.5).astype(np.intp)
    else:
        base, rem = divmod(n_new, len(minority))
        alloc = base + (np.arange(len(minority)) < rem)
    seeds = np.repeat(np.arange(len(minority)), alloc)
    rows = smote_interpolate(minority.X, len(seeds), k_neighbors, rng, seeds)[0]
    return _with_synthetics(minority, rows)


def tomek_links(partition: ClassPartition) -> Dataset:
    """Remove every majority member of a Tomek link (a mutual-1-NN pair with
    one point from each class), in a single simultaneous pass. Returns the
    reduced full dataset (majority first, then minority)."""
    if len(partition.majority) == 0 or len(partition.minority) == 0:
        raise ValueError("both classes must be non-empty")
    full = partition.majority.concat(partition.minority)
    m_off = len(partition.majority)
    # A link's majority row is the nearest neighbor of a minority row, so only
    # the majority rows the minority rows name are searched; the others keep -1.
    nn = np.full(len(full), -1)
    nn[m_off:] = nearest_rows(full.X, full.X[m_off:], 1,
                              exclude=m_off + np.arange(len(partition.minority)))[:, 0]
    cand = np.unique(nn[m_off:][nn[m_off:] < m_off])
    nn[cand] = nearest_rows(full.X, full.X[cand], 1, exclude=cand)[:, 0]
    b = nn[:m_off]                                # nearest neighbor of each candidate, else -1
    keep = np.ones(len(full), dtype=bool)
    keep[:m_off] = ~((b >= m_off) & (nn[b] == np.arange(m_off)))   # b in minority and mutual
    return full.subset(np.flatnonzero(keep))


def random_under(partition: ClassPartition, n_remove: int, rng: RandomSource) -> Dataset:
    """Uniformly remove n_remove majority samples; returns the reduced majority."""
    majority = partition.majority
    if n_remove >= len(majority):
        raise ValueError("cannot remove the whole majority class")
    if n_remove == 0:
        return majority
    order = rng.permutation(len(majority))
    keep = np.sort(order[n_remove:])
    return majority.subset(keep)
