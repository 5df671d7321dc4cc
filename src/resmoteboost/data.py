"""Dataset container, CSV ingestion, splitting, and synthetic blob generation.

Label convention: the minority class is the positive class, encoded +1; the
majority class is negative, encoded -1. This convention is enforced by
:func:`partition_by_class`, which swaps roles (and records the swap) when the
positives outnumber the negatives.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POSITIVE = 1
NEGATIVE = -1

# splitmix64 multipliers, used to derive independent per-replication seeds
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_M1 = 0xBF58476D1CE4E5B9
_SM64_M2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

_HALF = 1 << 32                # PCG64 hands out bounded draws' words in 32-bit halves
_LOW = np.uint64(_HALF - 1)


def mix_seed(base_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from (base_seed, index) via splitmix64."""
    z = (base_seed + (index + 1) * _SM64_GAMMA) & _U64
    z = ((z ^ (z >> 30)) * _SM64_M1) & _U64
    z = ((z ^ (z >> 27)) * _SM64_M2) & _U64
    return z ^ (z >> 31)


def _integer(value) -> bool:
    """An integer option: any integral number (numpy's too) but a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class RandomSource:
    """Seedable uniform random source used by every stochastic operation.

    One documented generator (numpy PCG64) is used everywhere; identical seeds
    give identical draw sequences within this implementation. `rounds` makes
    many rounds of scalar `integers(0, h)` and `uniform()` calls in one
    array call, with the values and the generator state of the scalar calls.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Uniform draws in [0, 1)."""
        return self._gen.random(size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def permutation(self, n):
        return self._gen.permutation(n)

    def rounds(self, highs, n: int) -> np.ndarray:
        """An (n, len(highs)) float array: row i holds what round i of scalar
        calls returns, in column order, `integers(0, h)` for an integer
        h >= 1 or `uniform()` for None. The values, and the generator state
        left behind, are those of the scalar calls; integers are exact as
        doubles up to 2**53.

        The words come from one `random_raw` call, decoded as numpy's
        Generator decodes them. uniform() is (word >> 11) * 2**-53 and takes
        a whole word. integers(0, h) for 1 < h < 2**32 is the top 32 bits of
        a 32-bit half times h (Lemire's multiply-shift): PCG64 hands out the
        low half of a new word and buffers the high half for the next
        bounded draw. h == 1 draws nothing. When some bounded draw would be
        rejected (its low 32 bits below (2**32 - h) % h, probability below
        h / 2**32), or some h >= 2**32, the state is restored and the
        scalar calls are made instead.
        """
        highs = list(highs)
        if n == 0 or not highs:
            return np.empty((n, len(highs)))
        if any(h is not None and h < 1 for h in highs):
            raise ValueError("high <= 0")
        bitgen = self._gen.bit_generator
        saved = bitgen.state
        if all(h is None or h < _HALF for h in highs):
            out = self._replay(highs, n, saved)
            if out is not None:
                return out
            bitgen.state = saved
        out = np.empty((n, len(highs)))
        for row in out:
            for c, h in enumerate(highs):
                row[c] = self._gen.random() if h is None else self._gen.integers(0, h)
        return out

    def _replay(self, highs, n, state):
        """`rounds`' array from one random_raw call, with the 32-bit buffer
        the scalar calls would leave set in the generator; None, with the
        words already taken, when some bounded draw would be rejected."""
        h = np.array([0 if v is None else v for v in highs], dtype=np.uint64)
        column = np.arange(n * len(highs)) % len(highs)
        uniform, bounded = (h == 0)[column], (h > 1)[column]   # h == 0: None
        flat = np.zeros(len(column))                  # h == 1 draws 0
        # j: the bounded draw's half among those of new words, -1 for the
        # half buffered on entry; even j takes a new word's low half, odd j
        # the high half of the word taken at j - 1
        at = bounded.nonzero()[0]
        buffered = int(state["has_uint32"])
        j = np.arange(len(at)) - buffered
        fresh = uniform.copy()
        fresh[at[j % 2 == 0]] = True
        word = np.cumsum(fresh) - 1                   # latest word taken at each draw
        raw = self._gen.bit_generator.random_raw(int(word[-1]) + 1)
        u = uniform.nonzero()[0]
        flat[u] = (raw[word[u]] >> np.uint64(11)) * 2.0 ** -53
        if len(at) == 0:
            return flat.reshape(n, -1)
        w = word[at]
        odd = (j % 2 == 1).nonzero()[0][buffered:]    # j = 1, 3, ...
        w[odd] = w[odd - 1]
        words = raw[w[buffered:]]
        halves = np.where(j[buffered:] % 2 == 0, words & _LOW, words >> np.uint64(32))
        if buffered:
            halves = np.concatenate([[np.uint64(state["uinteger"])], halves])
        hb = h[column[at]]
        m = halves * hb
        if np.any((m & _LOW) < (np.uint64(_HALF) - hb) % hb):
            return None
        flat[at] = m >> np.uint64(32)
        last = len(at) - 1 - buffered                 # j of the last bounded draw
        after = self._gen.bit_generator.state
        after["has_uint32"] = int(last >= 0 and last % 2 == 0)
        if last >= 0:
            after["uinteger"] = int(words[-1] >> np.uint64(32))
        self._gen.bit_generator.state = after
        return flat.reshape(n, -1)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")


class Dataset:
    """Ordered collection of feature vectors with binary labels.

    Immutable after construction; `X` is an (n, d) float array and `y` an
    (n,) array of +1 (positive/minority) and -1 (negative/majority).
    """

    def __init__(self, X, y, feature_names=None, source_tag=""):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} samples")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature values must be finite")
        if not np.all(np.isin(y, (POSITIVE, NEGATIVE))):
            raise ValueError("labels must be +1 or -1")
        if feature_names is not None:
            feature_names = tuple(feature_names)
            if len(feature_names) != X.shape[1]:
                raise ValueError("feature_names length does not match dimension")
        X.setflags(write=False)
        y.setflags(write=False)
        self.X = X
        self.y = y
        self.feature_names = feature_names
        self.source_tag = source_tag

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dimension(self) -> int:
        return self.X.shape[1]

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.y == POSITIVE))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.y == NEGATIVE))

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(
            self.X[idx],
            self.y[idx],
            feature_names=self.feature_names,
            source_tag=self.source_tag,
        )

    def concat(self, other: "Dataset") -> "Dataset":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch in concat")
        return Dataset(
            np.vstack([self.X, other.X]),
            np.concatenate([self.y, other.y]),
            feature_names=self.feature_names,
            source_tag=self.source_tag,
        )


@dataclass(frozen=True)
class ClassPartition:
    """Majority (negative) and minority (positive) halves of a dataset."""

    majority: Dataset
    minority: Dataset
    swapped: bool = False

    def __post_init__(self):
        if len(self.majority) < len(self.minority):
            raise ValueError("majority partition smaller than minority")


def load_csv(path, label_column, positive_label) -> Dataset:
    """Load a headered CSV file into a Dataset.

    `label_column` may be a column name or an integer index. Label cells equal
    to `positive_label` map to the positive class; all other values map to
    negative.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise ValueError(f"label column index {label_column} out of range")
        label_idx = label_column
    else:
        hits = [i for i, name in enumerate(header) if name == label_column]
        if not hits:
            raise ValueError(f"label column {label_column!r} not found in header")
        if len(hits) > 1:
            raise ValueError(f"duplicate label column {label_column!r}")
        label_idx = hits[0]
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")

    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    X = np.empty((len(rows), len(feature_names)), dtype=float)
    y = np.empty(len(rows), dtype=int)
    positive_label = str(positive_label)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {r + 1} has {len(row)} cells, expected {len(header)}")
        c_out = 0
        for c, cell in enumerate(row):
            if c == label_idx:
                y[r] = POSITIVE if cell == positive_label else NEGATIVE
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + 1}, column {header[c]!r}: cannot parse {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {r + 1}, column {header[c]!r}: non-finite value")
            X[r, c_out] = value
            c_out += 1
    if len(np.unique(y)) < 2:
        raise ValueError(f"{path}: only one label value present")
    return Dataset(X, y, feature_names=feature_names, source_tag=str(path))


def save_csv(data: Dataset, path, label_column="label") -> None:
    """Write a Dataset as headered CSV; labels serialize as pos/neg.

    Floats are written with 17 significant digits so load_csv round-trips.
    """
    names = list(data.feature_names) if data.feature_names else [
        f"f{i}" for i in range(data.dimension)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + [label_column])
        for row, lab in zip(data.X, data.y):
            writer.writerow([repr(float(v)) for v in row] + ["pos" if lab == POSITIVE else "neg"])


def partition_by_class(data: Dataset) -> ClassPartition:
    """Split into majority/minority halves, swapping roles if needed.

    If the positives outnumber the negatives, labels are swapped so the
    minority is always positive; the swap is recorded in source_tag.
    """
    pos_idx = np.flatnonzero(data.y == POSITIVE)
    neg_idx = np.flatnonzero(data.y == NEGATIVE)
    if len(pos_idx) == 0 or len(neg_idx) == 0:
        raise ValueError("partition_by_class requires both classes present")
    swapped = len(pos_idx) > len(neg_idx)
    if swapped:
        tag = (data.source_tag + ";" if data.source_tag else "") + "label-roles-swapped"
        majority = Dataset(data.X[pos_idx], np.full(len(pos_idx), NEGATIVE),
                           feature_names=data.feature_names, source_tag=tag)
        minority = Dataset(data.X[neg_idx], np.full(len(neg_idx), POSITIVE),
                           feature_names=data.feature_names, source_tag=tag)
    else:
        majority = data.subset(neg_idx)
        minority = data.subset(pos_idx)
    return ClassPartition(majority=majority, minority=minority, swapped=swapped)


def imbalance_ratio(partition: ClassPartition) -> float:
    """|majority| / |minority|; always >= 1 for a valid partition."""
    if len(partition.minority) == 0:
        raise ValueError("imbalance ratio undefined for empty minority")
    return len(partition.majority) / len(partition.minority)


def _n_train(spec: SplitSpec, size: int) -> int:
    """The training rows split_indices takes from a group of `size` rows:
    round-half-up of train_fraction * size."""
    return min(max(int(math.floor(spec.train_fraction * size + 0.5)), 0), size)


def split_indices(data: Dataset, spec: SplitSpec, rng: RandomSource):
    """Sorted (train_indices, test_indices) for the split described by spec.

    Per-class train counts use round-half-up of train_fraction * class size,
    with the remainder going to the test side. Assignment is determined solely
    by `rng`.
    """
    if spec.stratified:
        groups = [np.flatnonzero(data.y == NEGATIVE), np.flatnonzero(data.y == POSITIVE)]
        for g in groups:
            if len(g) < 2:
                raise ValueError("each class needs at least 2 samples for a stratified split")
    else:
        if len(data) < 2:
            raise ValueError("need at least 2 samples to split")
        groups = [np.arange(len(data))]
    train_idx, test_idx = [], []
    for g in groups:
        order = rng.permutation(len(g))
        n_train = _n_train(spec, len(g))
        train_idx.extend(g[order[:n_train]])
        test_idx.extend(g[order[n_train:]])
    train_idx = np.sort(np.asarray(train_idx, dtype=int))
    test_idx = np.sort(np.asarray(test_idx, dtype=int))
    return train_idx, test_idx


def make_gaussian_blobs(n_majority, n_minority, d, separation, seed) -> Dataset:
    """Two isotropic unit-variance Gaussian blobs: majority at the origin,
    minority at (separation, 0, ..., 0). Deterministic per seed; smaller
    separation means more class overlap.
    """
    if n_majority < 1 or n_minority < 1:
        raise ValueError("class counts must be >= 1")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if separation < 0:
        raise ValueError("separation must be >= 0")
    rng = RandomSource(seed)
    X_maj = rng.normal(size=(n_majority, d))
    X_min = rng.normal(size=(n_minority, d))
    X_min[:, 0] += separation
    X = np.vstack([X_maj, X_min])
    y = np.concatenate([np.full(n_majority, NEGATIVE), np.full(n_minority, POSITIVE)])
    return Dataset(X, y, source_tag=f"blobs(n_maj={n_majority},n_min={n_minority},d={d},sep={separation},seed={seed})")
