"""Reference resamplers: SMOTE, Borderline-SMOTE, ADASYN, Tomek links, RUS.

Conventions shared by the module: every sampler takes a ClassPartition of
feature rows, distances are Euclidean, and nearest-neighbor ties break toward
the lower index. Oversamplers return the synthetic minority rows only;
undersamplers return the sorted positions of the majority rows they keep.
The caller reassembles the training set.
"""

from __future__ import annotations

import numpy as np

from .data import ClassPartition, RandomSource, _integer
from .pruning import nearest_rows, smote_interpolate


def _check_size(name: str, value) -> None:
    if not _integer(value) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


def smote(partition: ClassPartition, n_new: int, k_neighbors: int,
          rng: RandomSource) -> np.ndarray:
    """Classic SMOTE: each synthetic interpolates a random minority seed toward
    one of its k nearest minority neighbors. Returns the n_new synthetic rows."""
    _check_size("n_new", n_new)
    minority = partition.minority
    seeds = rng.integers(0, len(minority), size=n_new)
    return smote_interpolate(minority, len(seeds), k_neighbors, rng, seeds)[0]


def _majority_neighbor_counts(partition: ClassPartition, k_neighbors: int) -> np.ndarray:
    """For each minority point: how many of its k nearest neighbors in the
    full dataset (excluding itself) belong to the majority class."""
    full = np.vstack([partition.majority, partition.minority])
    m_off = len(partition.majority)
    self_pos = m_off + np.arange(len(partition.minority))
    return (nearest_rows(full, partition.minority, k_neighbors, exclude=self_pos)
            < m_off).sum(axis=1)


def borderline_smote(partition: ClassPartition, n_new: int, k_neighbors: int,
                     rng: RandomSource) -> np.ndarray:
    """Borderline-SMOTE (borderline1 variant): seeds are drawn only from the
    DANGER set, minority points with at least half but not all of their k
    full-set neighbors in the majority class. Falls back to the whole
    minority when no point is in danger. Returns the n_new synthetic rows."""
    _check_size("n_new", n_new)
    minority = partition.minority
    counts = _majority_neighbor_counts(partition, k_neighbors)
    k_eff = min(k_neighbors, len(partition.majority) + len(minority) - 1)
    danger = np.flatnonzero((counts * 2 >= k_eff) & (counts < k_eff))
    if len(danger) == 0:
        danger = np.arange(len(minority))
    seeds = danger[rng.integers(0, len(danger), size=n_new)]
    return smote_interpolate(minority, len(seeds), k_neighbors, rng, seeds)[0]


def adasyn(partition: ClassPartition, n_new: int, k_neighbors: int,
           rng: RandomSource) -> np.ndarray:
    """ADASYN: allocate synthetics per seed proportionally to the fraction of
    majority neighbors around it, so harder minority points get more.
    Returns the synthetic rows, about n_new after rounding."""
    _check_size("n_new", n_new)
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
    return smote_interpolate(minority, len(seeds), k_neighbors, rng, seeds)[0]


def tomek_links(partition: ClassPartition) -> np.ndarray:
    """Remove every majority member of a Tomek link (a mutual-1-NN pair with
    one point from each class), in a single simultaneous pass. Returns the
    sorted positions of the majority rows kept."""
    if len(partition.majority) == 0 or len(partition.minority) == 0:
        raise ValueError("both classes must be non-empty")
    full = np.vstack([partition.majority, partition.minority])
    m_off = len(partition.majority)
    # A link's majority row is the nearest neighbor of a minority row, so only
    # the majority rows the minority rows name are searched; the others keep -1.
    nn = np.full(len(full), -1)
    nn[m_off:] = nearest_rows(full, full[m_off:], 1,
                              exclude=m_off + np.arange(len(partition.minority)))[:, 0]
    cand = np.unique(nn[m_off:][nn[m_off:] < m_off])
    nn[cand] = nearest_rows(full, full[cand], 1, exclude=cand)[:, 0]
    b = nn[:m_off]                                # nearest neighbor of each candidate, else -1
    linked = (b >= m_off) & (nn[b] == np.arange(m_off))   # b in minority and mutual
    return np.flatnonzero(~linked)


def random_under(partition: ClassPartition, n_remove: int, rng: RandomSource) -> np.ndarray:
    """Uniformly remove n_remove majority samples; returns the sorted
    positions of the majority rows kept."""
    _check_size("n_remove", n_remove)
    n = len(partition.majority)
    if n_remove >= n:
        raise ValueError("cannot remove the whole majority class")
    if n_remove == 0:
        return np.arange(n)
    return np.sort(rng.permutation(n)[n_remove:])
