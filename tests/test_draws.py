"""Array draws that replay numpy's scalar stream.

`RandomSource.rounds` must return, and leave the generator in, exactly what
the equivalent scalar `integers(0, h)` and `uniform()` calls would. The
samplers built on it are checked against one-at-a-time scalar loops, and
the reports' test indices against the ints they share.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import (ExperimentConfig, RandomSource, adasyn, borderline_smote,
                          make_gaussian_blobs, partition_by_class, run_experiment, smote)
from resmoteboost.pruning import smote_interpolate
from resmoteboost.samplers import _majority_neighbor_counts

from test_nearest import old_smote_interpolate

# 1 draws nothing; 2**31 + 1 rejects about half of its draws; 2**32 and
# above take numpy's 64-bit path
HIGHS = st.one_of(st.none(), st.sampled_from([1, 2, 3, 7, 300, 2**31 - 1, 2**31, 2**31 + 1,
                                              2**32 - 1, 2**32, 2**40]),
                  st.integers(2, 2**32 - 1))


def scalar_rounds(rng, highs, n):
    out = np.empty((n, len(highs)))
    for i in range(n):
        for c, h in enumerate(highs):
            out[i, c] = rng.uniform() if h is None else rng.integers(0, h)
    return out


def primed_pair(seed, pre):
    """Two sources on one seed after `pre` scalar bounded draws each, so an
    odd `pre` leaves a 32-bit half buffered."""
    a, b = RandomSource(seed), RandomSource(seed)
    for rng in (a, b):
        for _ in range(pre):
            rng.integers(0, 1000)
    return a, b


def state(rng):
    return rng.bit_generator.state


class TestRounds:
    @settings(max_examples=400, deadline=None)
    @given(highs=st.lists(HIGHS, max_size=4), n=st.integers(0, 12), pre=st.integers(0, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_matches_scalar_calls(self, highs, n, pre, seed):
        a, b = primed_pair(seed, pre)
        got = a.rounds(highs, n)
        assert got.shape == (n, len(highs))
        assert got.tobytes() == scalar_rounds(b, highs, n).tobytes()
        assert state(a) == state(b)

    @pytest.mark.parametrize("pre", [0, 1])
    def test_rejected_draws_take_the_scalar_path(self, pre):
        # about half of the draws below 2**31 + 1 are rejected, so some of
        # these calls replay and others fall back
        for seed in range(40):
            a, b = primed_pair(seed, pre)
            highs = [2**31 + 1, None, 5] if seed % 2 else [2**31 + 1]
            got = a.rounds(highs, seed % 4)
            assert got.tobytes() == scalar_rounds(b, highs, seed % 4).tobytes()
            assert state(a) == state(b)

    def test_stale_half_kept_after_the_last_is_consumed(self):
        # two bounded draws take both halves of one word; numpy keeps the
        # high half in `uinteger` with has_uint32 cleared
        a, b = primed_pair(7, 0)
        a.rounds([9, 9], 1)
        scalar_rounds(b, [9, 9], 1)
        assert state(a)["has_uint32"] == 0 and state(a)["uinteger"] != 0
        assert state(a) == state(b)

    def test_non_positive_high_raises_as_numpy(self):
        with pytest.raises(ValueError):
            RandomSource(0).integers(0, 0)
        with pytest.raises(ValueError, match="high <= 0"):
            RandomSource(0).rounds([None, 0], 3)
        assert RandomSource(0).rounds([0], 0).shape == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(high=st.integers(1, 5000), n=st.integers(0, 20), pre=st.integers(0, 3),
           seed=st.integers(0, 2**64 - 1))
    def test_array_integers_equal_scalar_calls(self, high, n, pre, seed):
        # smote and borderline_smote draw their seeds with one size=n call
        a, b = primed_pair(seed, pre)
        assert list(a.integers(0, high, size=n)) == [b.integers(0, high) for _ in range(n)]
        assert state(a) == state(b)


def old_smote(part, n_new, k_neighbors, rng, pick=None):
    """All seeds first, then one scalar slot and alpha per synthetic; the
    synthetic rows."""
    minority = part.minority
    pick = np.arange(len(minority)) if pick is None else pick
    seeds = [int(pick[int(rng.integers(0, len(pick)))]) for _ in range(n_new)]
    rows = [old_smote_interpolate(minority[s], minority, s, k_neighbors, rng)[0] for s in seeds]
    return np.vstack([minority[:0]] + rows)


def old_adasyn_seeds(part, n_new, k_neighbors):
    """ADASYN's per-seed allocation as list comprehensions."""
    counts = _majority_neighbor_counts(part, k_neighbors)
    k_eff = min(k_neighbors, len(part.majority) + len(part.minority) - 1)
    r = counts / k_eff
    total = r.sum()
    if total > 0:
        alloc = [int(math.floor(n_new * ri / total + 0.5)) for ri in r]
    else:
        base, rem = divmod(n_new, len(part.minority))
        alloc = [base + (1 if i < rem else 0) for i in range(len(part.minority))]
    return [i for i, a in enumerate(alloc) for _ in range(a)]


SAMPLER_CASE = dict(n_maj=st.integers(10, 60), n_min=st.integers(2, 15),
                    sep=st.sampled_from([0.5, 1.5, 8.0]), n_new=st.integers(0, 40),
                    k_neighbors=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))


class TestSamplers:
    @settings(max_examples=60, deadline=None)
    @given(**SAMPLER_CASE)
    def test_smote_matches_scalar_loop(self, n_maj, n_min, sep, n_new, k_neighbors, seed):
        part = partition_by_class(make_gaussian_blobs(n_maj, n_min, 2, sep, seed))
        a, b = RandomSource(seed), RandomSource(seed)
        out = smote(part, n_new, k_neighbors, a)
        assert out.tobytes() == old_smote(part, n_new, k_neighbors, b).tobytes()
        assert state(a) == state(b)

    @settings(max_examples=60, deadline=None)
    @given(**SAMPLER_CASE)
    def test_borderline_matches_scalar_loop(self, n_maj, n_min, sep, n_new, k_neighbors, seed):
        part = partition_by_class(make_gaussian_blobs(n_maj, n_min, 2, sep, seed))
        counts = _majority_neighbor_counts(part, k_neighbors)
        k_eff = min(k_neighbors, n_maj + n_min - 1)
        danger = np.flatnonzero((counts * 2 >= k_eff) & (counts < k_eff))
        if len(danger) == 0:
            danger = np.arange(len(part.minority))   # the classes swap when n_min > n_maj
        a, b = RandomSource(seed), RandomSource(seed)
        out = borderline_smote(part, n_new, k_neighbors, a)
        assert out.tobytes() == old_smote(part, n_new, k_neighbors, b, danger).tobytes()
        assert state(a) == state(b)

    @settings(max_examples=60, deadline=None)
    @given(**SAMPLER_CASE)
    def test_adasyn_allocation_matches_comprehension(self, n_maj, n_min, sep, n_new,
                                                     k_neighbors, seed):
        part = partition_by_class(make_gaussian_blobs(n_maj, n_min, 2, sep, seed))
        a, b = RandomSource(seed), RandomSource(seed)
        out = adasyn(part, n_new, k_neighbors, a)
        seeds = old_adasyn_seeds(part, n_new, k_neighbors)
        want = smote_interpolate(part.minority, len(seeds), k_neighbors, b, seeds)[0]
        assert out.tobytes() == want.tobytes()
        assert state(a) == state(b)


def test_reports_share_their_index_ints():
    data = make_gaussian_blobs(600, 60, 2, 1.5, 0)
    report = run_experiment(data, ExperimentConfig(method="none", replications=2))
    first, second = (r["test_indices"] for r in report["replications"])
    assert set(first) & set(second) - set(range(257))   # CPython shares small ints anyway
    kept = {i: i for i in first}
    assert all(kept[j] is j for j in second if j in kept)
    assert all(type(i) is int for i in first)
