"""The certified fast roulette wheel.

`_oversample` locates each spin on a wheel built from sorted-prefix-sum
distance sums. Each sum carries a bound on its distance from
`build_roulette`'s sum (the one `cdist(..., "cityblock")` gives), and the
wheel a bound delta on its distance from `build_roulette(...).cumulative`.
A spin within delta of a fast edge, and every spin of a round the bounds
cannot certify, is answered by the exact wheel, so every selection is
`spin` on `build_roulette`'s wheel.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from resmoteboost import (Dataset, NEGATIVE, POSITIVE, PruningConfig, RandomSource,
                          RouletteWheel, build_roulette, spin)
from resmoteboost import pruning
from resmoteboost.pruning import (_certified_cumulative, _roulette_seeds, _roulette_sums,
                                  smote_points)

from test_nearest import KINDS, assert_matches_oracle, make_rows, pools


def classes(X_min, X_maj):
    return (Dataset(X_min, np.full(len(X_min), POSITIVE)),
            Dataset(X_maj, np.full(len(X_maj), NEGATIVE)))


class FixedRng:
    """Returns the given uniforms in order, as RandomSource.uniform would."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


@pytest.fixture
def exact_builds(monkeypatch):
    """Counts the exact wheels built through pruning.build_roulette."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return build_roulette(*args, **kwargs)
    monkeypatch.setattr(pruning, "build_roulette", counted)
    return calls


# per feature: unchanged, offset by 1e6, or scaled by 1e150 or 1e-150
FEATURE_MAPS = (lambda v: v, lambda v: v + 1e6, lambda v: v * 1e150, lambda v: v * 1e-150)


class TestBounds:
    # squares near 1e154 overflow in the sums as in cdist
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), m=st.integers(1, 12),
           d=st.integers(1, 5), maps=st.lists(st.integers(0, 3), min_size=5, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_fast_sums_and_wheel_within_bounds(self, kind, n, m, d, maps, seed):
        rng = np.random.default_rng(seed)
        Y = make_rows(kind, n, d, rng)
        # fresh rows, majority rows, and majority rows moved slightly
        near = Y[rng.integers(0, n, m)] + 1e-3 * make_rows(kind, m, d, rng)
        X = np.vstack([make_rows(kind, m, d, rng), Y, near])[rng.permutation(2 * m + n)[:m]]
        for j in range(d):
            X[:, j], Y[:, j] = FEATURE_MAPS[maps[j]](X[:, j]), FEATURE_MAPS[maps[j]](Y[:, j])
        sums, bounds = _roulette_sums(X, Y)
        finite = np.isfinite(sums) & np.isfinite(bounds)
        exact = cdist(X, Y, metric="cityblock").sum(axis=1)
        assert np.all(np.abs(sums - exact)[finite] <= bounds[finite])
        fast = _certified_cumulative(X, Y, 1e-12)
        if fast is not None:
            cumulative, delta = fast
            wheel = build_roulette(*classes(X, Y))
            assert np.all(np.abs(cumulative - wheel.cumulative) <= delta)
            assert cumulative[-1] == 1.0 and np.all(np.diff(cumulative) >= 0)

    @pytest.mark.parametrize("offset", [0.0, 1e6, -3e9])
    def test_bound_is_relative_to_spread_not_offset(self, offset):
        # centring keeps the bound, and so delta, small on offset features
        rng = np.random.default_rng(2)
        Y, X = rng.normal(size=(300, 4)) + offset, rng.normal(size=(40, 4)) + offset
        sums, bounds = _roulette_sums(X, Y)
        assert np.all(bounds <= 1e-9 * sums)
        assert _certified_cumulative(X, Y, 1e-12)[1] < 1e-9

    def test_exact_sums_on_integers(self):
        X = np.array([[0.0, 5.0], [2.0, 2.0], [7.0, -1.0]])
        Y = np.array([[1.0, 2.0], [4.0, 6.0], [2.0, 2.0], [-3.0, 0.0]])
        sums, _ = _roulette_sums(X, Y)
        np.testing.assert_array_equal(sums, cdist(X, Y, metric="cityblock").sum(axis=1))


def column(kind: str, v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Feature values v reshaped into one of the column kinds of TestCityblock."""
    if kind in ("nan", "inf"):
        v = v.copy()
        hit = rng.random(len(v)) < 0.3
        v[hit] = np.nan if kind == "nan" else rng.choice([-np.inf, np.inf], size=hit.sum())
        return v
    if kind == "grid":
        return np.round(v)
    if kind == "offset":
        return v + 1e6
    if kind == "overflow":      # finite values whose differences overflow
        return np.clip(v, -1.0, 1.0) * 1e308
    return v * {"normal": 1.0, "huge": 1e300, "tiny": 1e-300}[kind]


COLUMNS = ("normal", "grid", "offset", "huge", "tiny", "overflow", "nan", "inf")


class TestCityblock:
    # row sums of values near 1e308 overflow, in build_roulette as in cdist(...).sum
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 30), m=st.integers(1, 12), d=st.integers(1, 6),
           kinds=st.lists(st.sampled_from(COLUMNS), min_size=6, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_roulette_distances_match_cdist(self, n, m, d, kinds, seed):
        rng = np.random.default_rng(seed)
        Y = rng.normal(size=(n, d))
        X = np.vstack([rng.normal(size=(m, d)), Y])[rng.permutation(m + n)[:m]]  # some coincide
        for j in range(d):
            X[:, j], Y[:, j] = column(kinds[j], X[:, j], rng), column(kinds[j], Y[:, j], rng)
        want = cdist(X, Y, metric="cityblock")
        assert pruning._cityblock(X, Y).tobytes() == want.tobytes()
        want = want.sum(axis=1)
        # a Dataset holds finite features only, and all-infinite sums (from
        # overflowing differences) leave no fitness to share
        if np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(want).any():
            assert build_roulette(*classes(X, Y)).distances.tobytes() == want.tobytes()


def _differing_edge():
    """Rows whose fast and exact wheels differ at some edge j, with j."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(80, 3))
        cumulative, _ = _certified_cumulative(X, Y, 1e-12)
        exact = build_roulette(*classes(X, Y)).cumulative
        differ = np.flatnonzero(cumulative[:-1] != exact[:-1])
        if len(differ):
            return X, Y, int(differ[0])
    raise AssertionError("no differing edge found")


class TestSpins:
    def test_spin_between_fast_and_exact_edge_takes_exact_wheel(self, exact_builds):
        X, Y, j = _differing_edge()
        minority, majority = classes(X, Y)
        cumulative, delta = _certified_cumulative(X, Y, 1e-12)
        wheel = build_roulette(minority, majority)
        # r lies between the two edges: the fast and the exact answers differ
        r = float(min(cumulative[j], wheel.cumulative[j]))
        assert cumulative[j] - delta < r <= cumulative[j] + delta
        fast_answer = int(np.searchsorted(cumulative, r, side="right"))
        expected = int(spin(wheel, 1, FixedRng([r]))[0])
        assert fast_answer != expected
        seeds = _roulette_seeds(minority, majority, 1e-12)
        assert list(seeds(np.array([r]))) == [expected]
        assert list(seeds(np.array([0.5, r]))[1:]) == [expected]
        assert len(exact_builds) == 1            # built once, then reused

    def test_spin_far_from_edges_takes_fast_wheel(self, exact_builds):
        X, Y, _ = _differing_edge()
        minority, majority = classes(X, Y)
        cumulative, _ = _certified_cumulative(X, Y, 1e-12)
        edges = np.concatenate([[0.0], cumulative])
        rs = (edges[:-1] + edges[1:]) / 2        # mid-bucket uniforms
        wheel = build_roulette(minority, majority)
        seeds = _roulette_seeds(minority, majority, 1e-12)
        assert list(seeds(rs)) == list(spin(wheel, len(rs), FixedRng(rs)))
        assert len(exact_builds) == 0

    def test_draw_takes_one_double(self):
        # smote_points draws each seed as one spin of one double, then the
        # neighbour slot and alpha, as the one-at-a-time loop does
        majority, minority = pools("overlap", 40, 10, 2, 3)
        a, b = RandomSource(9), RandomSource(9)
        seeds = smote_points(minority.X, 50, 3, a, _roulette_seeds(minority, majority, 1e-12))[1]
        wheel = build_roulette(minority, majority)
        expected = []
        for _ in range(50):
            expected.append(int(spin(wheel, 1, b)[0]))
            b.integers(0, 3)
            b.uniform()
        assert list(seeds) == expected
        assert a._gen.bit_generator.state == b._gen.bit_generator.state


class TestUncertifiedRounds:
    def test_coincident_row_takes_exact_wheel(self, exact_builds):
        # minority row 0 coincides with every majority row: its sum is 0 and
        # the epsilon clamp decides its fitness
        X_maj = np.zeros((8, 2))
        X_min = np.array([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0], [2.0, 2.0]])
        minority, majority = classes(X_min, X_maj)
        assert _certified_cumulative(X_min, X_maj, 1e-12) is None
        assert_matches_oracle(majority, minority, PruningConfig(k=3, k_neighbors=2), 5)
        assert len(exact_builds) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tiny_scale_takes_exact_wheel(self, exact_builds, seed):
        # sums near 1e-148 are below the epsilon clamp
        majority, minority = pools("overlap", 40, 12, 3, seed)
        majority = Dataset(majority.X * 1e-150, majority.y)
        minority = Dataset(minority.X * 1e-150, minority.y)
        assert _certified_cumulative(minority.X, majority.X, 1e-12) is None
        assert_matches_oracle(majority, minority, PruningConfig(k=4), seed)
        assert len(exact_builds) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_typical_round_builds_no_exact_wheel(self, exact_builds, seed):
        majority, minority = pools("overlap", 60, 15, 3, seed)
        assert_matches_oracle(majority, minority, PruningConfig(k=6), seed)
        assert len(exact_builds) == 0

    def test_empty_class_raises_as_build_roulette(self):
        minority, majority = classes(np.ones((3, 2)), np.empty((0, 2)))
        with pytest.raises(ValueError, match="non-empty"):
            _roulette_seeds(minority, majority, 1e-12)


class TestWheelValidation:
    def _wheel(self, probabilities, cumulative):
        return RouletteWheel(seed_indices=np.arange(2), distances=np.ones(2),
                             fitness=np.ones(2), probabilities=np.asarray(probabilities),
                             cumulative=np.asarray(cumulative))

    def test_valid_wheel_accepted(self):
        self._wheel([0.5, 0.5], [0.5, 1.0])

    @pytest.mark.parametrize("probabilities, cumulative", [
        ([np.nan, 0.5], [0.5, 1.0]),
        ([0.5, 0.5], [np.nan, 1.0]),
        ([0.5, 0.5], [0.5, np.nan]),
        ([np.nan, np.nan], [np.nan, np.nan]),
    ])
    def test_nan_wheel_rejected(self, probabilities, cumulative):
        with pytest.raises(ValueError):
            self._wheel(probabilities, cumulative)
