import numpy as np
import pytest
from scipy.special import stdtr

from aflow import stats
from aflow.data_model import DataFormatError
from aflow.graph_analysis import daily_link_presence
from aflow.persistence import apply_view_filters
from aflow.stats import (
    average_ranks,
    correlated_link_fractions,
    gini,
    pearson_p,
    pearson_rows,
    pearson_test,
    residual_rows,
    sample_random_pairs,
    spearman,
)

import _helpers
import _oracles

WEEK = np.array([1.2, 0.8, 1.1, 0.9, 1.3, 0.7, 1.0])


def one_row(y):
    """residual_rows of the one series ``y``: (residuals, seasonal, additive)."""
    z, seasonal, additive = residual_rows(np.asarray(y, dtype=float)[None, :])
    return z[0], bool(seasonal[0]), bool(additive[0])


def test_seasonality_detects_weekly_sawtooth():
    y = np.arange(63) % 7 + 1.0
    assert one_row(y)[1]


def test_seasonality_rejects_constant_and_short():
    assert not one_row(np.full(63, 42.0))[1]
    with pytest.raises(DataFormatError, match="too short"):
        one_row(np.ones(20))


def test_seasonality_false_positive_rate_on_iid_noise():
    hits = 0
    for seed in range(100):
        y = np.random.default_rng(seed).normal(100.0, 10.0, size=63)
        hits += one_row(y)[1]
    assert hits <= 20


def test_preprocess_pure_weekly_pattern_leaves_zero_residuals():
    y = 10.0 * np.tile(WEEK, 9)
    z, seasonal, additive = one_row(y)
    assert seasonal
    assert not additive
    np.testing.assert_array_equal(z, np.zeros(63))


def test_preprocess_linear_ramp_leaves_zero_residuals():
    # a strong trend trips the lag-7 autocorrelation test, but the
    # trend/seasonal decomposition still absorbs a ramp exactly
    z, _, _ = one_row(np.arange(63, dtype=float) * 3.0 + 5.0)
    np.testing.assert_allclose(z, np.zeros(63), atol=1e-10)


def test_preprocess_constant_series():
    z, seasonal, _ = one_row(np.full(63, 7.0))
    assert not seasonal
    np.testing.assert_array_equal(z, np.zeros(63))


def test_preprocess_zero_touching_series_uses_additive_indices():
    y = np.tile(np.array([0.0, 5.0, 10.0, 15.0, 10.0, 5.0, 0.0]), 9)
    z, seasonal, additive = one_row(y)
    assert seasonal
    assert additive
    np.testing.assert_allclose(z, np.zeros(63), atol=1e-10)


def test_preprocess_output_is_z_normalized():
    rng = np.random.default_rng(5)
    y = 200.0 * np.tile(WEEK, 9) + rng.normal(0.0, 20.0, size=63)
    z, _, _ = one_row(y)
    assert abs(z.mean()) < 1e-10
    assert abs(z.std() - 1.0) < 1e-10


@pytest.mark.parametrize("n", [21, 22, 63, 64])
def test_residual_rows_match_the_per_series_oracle(n):
    # lengths off a multiple of 7 give phases with unequal counts
    rng = np.random.default_rng(n)
    t = np.arange(n, dtype=float)
    weekly = np.resize(WEEK, n)
    series = {
        "iid noise": rng.normal(100.0, 10.0, n),
        "weekly x trend": (200.0 + 2.0 * t) * weekly + rng.normal(0.0, 5.0, n),
        "pure weekly": 10.0 * weekly,
        "linear ramp": 3.0 * t + 5.0,
        "constant": np.full(n, 7.0),
        "zero-touching": np.maximum(0.0, 100.0 * (weekly - 0.7) + rng.normal(0.0, 3.0, n)),
    }
    z, seasonal, additive = residual_rows(np.array(list(series.values())))
    for k, (name, y) in enumerate(series.items()):
        expected, was_seasonal, additive_fallback = _oracles.preprocess(y)
        assert (seasonal[k], additive[k]) == (was_seasonal, additive_fallback), name
        np.testing.assert_allclose(z[k], expected, rtol=0, atol=1e-9, err_msg=name)
    # the decomposition runs, multiplicative and additive, at every length
    assert seasonal[1] and not additive[1]
    assert seasonal[-1] and additive[-1]


def test_pearson_perfect_correlation():
    x = np.arange(10, dtype=float)
    r, p = pearson_test(x, 2.0 * x + 1.0)
    assert r == 1.0
    assert p == 0.0
    r, p = pearson_test(x, -x)
    assert r == -1.0
    assert p == 0.0


def test_pearson_p_matches_quadrature_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(5, 80))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.4 * x
        r, p = pearson_test(x, y)
        assert abs(p - _oracles.two_sided_p(r, n)) < 1e-6


def test_pearson_p_matches_stdtr():
    """The numpy tail against scipy's Student-t CDF, the parent's formula for p.

    The bound is 1e-12 relative down to p = 1e-10, and 1e-8 below it: there
    a 1e-15 change in r moves p = 1e-146 by about 8e-10 relative.
    """
    rng = np.random.default_rng(17)
    near_one = 1.0 - 10.0 ** -np.arange(1, 16)
    for df in [*range(1, 400), 1000, 10000]:
        r = np.concatenate([rng.uniform(-1.0, 1.0, 200), near_one, -near_one])
        expected = np.minimum(1.0, 2.0 * stdtr(df, -np.abs(r) * np.sqrt(df / (1.0 - r * r))))
        p = pearson_p(r, df)
        big, small = expected > 1e-10, (expected > 0) & (expected <= 1e-10)
        np.testing.assert_allclose(p[big], expected[big], rtol=1e-12, atol=0, err_msg=f"df={df}")
        np.testing.assert_allclose(p[small], expected[small], rtol=1e-8, atol=0, err_msg=f"df={df}")
        assert (p[expected > 0] > 0).all(), df  # the tail itself, never 1 - (1 - p)


def test_pearson_p_limits():
    for df in (1, 2, 61, 10000):
        # r = 0 is t = 0 and |r| = 1 is t = inf
        assert (2.0 * stdtr(df, -np.array([0.0, np.inf])) == [1.0, 0.0]).all()
        p = pearson_p(np.array([0.0, 1.0, -1.0, np.nan]), df)
        assert p[:3].tolist() == [1.0, 0.0, 0.0] and np.isnan(p[3])
    assert np.isnan(pearson_p(np.full(3, np.nan), 61)).all()


def test_pearson_rejects_degenerate_input():
    with pytest.raises(DataFormatError, match="zero-variance"):
        pearson_test(np.ones(10), np.arange(10.0))
    with pytest.raises(DataFormatError, match="at least 3"):
        pearson_test(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    with pytest.raises(DataFormatError, match="equal-length"):
        pearson_test(np.arange(5.0), np.arange(6.0))
    with pytest.raises(DataFormatError, match="finite"):
        pearson_test(np.array([np.nan, 1.0, 2.0, 4.0]), np.arange(4.0))
    with pytest.raises(DataFormatError, match="finite"):
        spearman(np.arange(4.0), np.array([1.0, np.inf, np.nan, 0.0]))


def test_pearson_size_under_the_null():
    rng = np.random.default_rng(0)
    hits = 0
    trials = 2000
    for _ in range(trials):
        x = rng.normal(size=63)
        y = rng.normal(size=63)
        _, p = pearson_test(x, y)
        hits += p < 0.05
    assert abs(hits / trials - 0.05) < 0.01


def test_gini_known_values():
    assert abs(gini([1.0, 2.0, 3.0, 4.0]) - 0.25) <= 1e-12
    assert gini([5.0, 5.0, 5.0]) == 0.0
    for n in (2, 4, 10):
        holder = np.zeros(n)
        holder[0] = 7.0
        assert abs(gini(holder) - (n - 1) / n) <= 1e-12


def test_gini_is_scale_invariant_and_order_free():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 50.0, size=40)
    g = gini(x)
    assert abs(gini(1000.0 * x) - g) < 1e-12
    assert abs(gini(np.sort(x)[::-1]) - g) < 1e-12
    assert 0.0 <= g < 1.0


def test_gini_rejects_bad_samples():
    with pytest.raises(DataFormatError, match="negative"):
        gini([1.0, -1.0])
    with pytest.raises(DataFormatError, match="all values are zero"):
        gini([0.0, 0.0])
    with pytest.raises(DataFormatError, match="non-empty"):
        gini([])


def test_spearman_monotone_relations():
    x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    assert spearman(x, np.exp(x)) == 1.0
    assert spearman(x, -(x**3)) == -1.0


def test_spearman_matches_midrank_oracle_under_ties():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        rx, ry = _oracles.midranks(x), _oracles.midranks(y)
        if rx.std() == 0 or ry.std() == 0:
            with pytest.raises(DataFormatError):
                spearman(x, y)
            continue
        expected = np.corrcoef(rx, ry)[0, 1]
        assert abs(spearman(x, y) - expected) < 1e-12


def test_spearman_rejects_constant_input():
    with pytest.raises(DataFormatError, match="zero-variance"):
        spearman(np.ones(5), np.arange(5.0))


def test_correlated_link_fractions_identical_pairs():
    rng = np.random.default_rng(4)
    base = 500.0 + 40.0 * np.sin(2 * np.pi * np.arange(63) / 7) + rng.normal(0, 25, 63)
    other = 300.0 + rng.normal(0, 25, 63)
    views = {
        "a": np.clip(base, 1, None).astype(int).tolist(),
        "b": np.clip(base, 1, None).astype(int).tolist(),
        "c": np.clip(other, 1, None).astype(int).tolist(),
    }
    ds = _helpers.build_dataset(views=views)
    out = correlated_link_fractions({"same": [("a", "b")], "cross": [("a", "c")]}, ds)
    assert out["same"].fraction == 1.0
    assert out["same"].links[0].r == pytest.approx(1.0)
    assert out["cross"].n_links == 1
    assert set(out) == {"same", "cross"}


def test_correlated_link_fractions_degenerate_pair_not_significant():
    views = {"a": [100] * 63, "b": [100 + (i % 7) for i in range(63)]}
    ds = _helpers.build_dataset(views=views)
    out = correlated_link_fractions({"g": [("a", "b")]}, ds)
    link = out["g"].links[0]
    assert np.isnan(link.r) and np.isnan(link.p)
    assert out["g"].fraction == 0.0


def test_correlated_link_fractions_short_window_gives_nan_rows():
    # 14 days are too few for the weekly seasonality test, which needs 21
    rng = np.random.default_rng(2)
    views = {v: (200 + rng.integers(0, 50, 14)).tolist() for v in ("a", "b", "c")}
    ds = _helpers.build_dataset(views=views)
    out = correlated_link_fractions({"g": [("a", "b"), ("c", "a")]}, ds)
    assert [(link.source, link.target) for link in out["g"].links] == [("a", "b"), ("c", "a")]
    assert all(np.isnan(link.r) and np.isnan(link.p) for link in out["g"].links)
    assert (out["g"].n_significant, out["g"].fraction) == (0, 0.0)
    with pytest.raises(DataFormatError, match="zz is not a corpus video"):
        correlated_link_fractions({"g": [("a", "zz")]}, ds)


def test_correlated_link_fractions_rows_do_not_depend_on_the_batch(monkeypatch):
    rng = np.random.default_rng(6)
    base = 300.0 + 40.0 * np.resize(WEEK, 63) + rng.normal(0.0, 20.0, (12, 63))
    views = {f"v{i:02d}": np.clip(row, 1, None).astype(int).tolist() for i, row in enumerate(base)}
    ds = _helpers.build_dataset(views=views)
    pair = ("v00", "v01")
    others = [(a, b) for a in views for b in views if a != b and (a, b) != pair]

    def link(groups, name):
        (row,) = [x for x in correlated_link_fractions(groups, ds)[name].links
                  if (x.source, x.target) == pair]
        return row.r, row.p

    alone = link({"g": [pair]}, "g")
    assert np.isfinite(alone).all()
    assert link({"g": others[:40] + [pair] + others[40:]}, "g") == alone
    both = {"a": [pair] + others[:5], "b": others[5:9] + [pair]}
    assert link(both, "a") == link(both, "b") == alone
    for block in (1, 2, 3, 7):  # the pair and the videos' rows sit on either side of a block edge
        monkeypatch.setattr(stats, "BLOCK_ROWS", block)
        assert link({"g": others[:block - 1] + [pair] + others[:5]}, "g") == alone
        assert link({"g": others[:block] + [pair]}, "g") == alone
    x, y = residual_rows(ds.window_views[ds.codes(pair)].astype(float))[0]
    assert pearson_test(x, y) == alone


def test_pearson_rows_match_one_pair_calls():
    rng = np.random.default_rng(7)
    x, y = rng.normal(size=(2, 9, 30))
    y[0] = x[0]
    y[1] = 5.0
    r, p = pearson_rows(x, y)
    assert (r[0], p[0]) == (1.0, 0.0)
    assert np.isnan(r[1]) and np.isnan(p[1])
    for k in range(2, 9):
        assert pearson_test(x[k], y[k]) == (r[k], p[k])
    # r near 0, near +-1 and at +-1 in one block: their continued fractions end many steps apart
    base = x[2] - x[2].mean()
    orth = x[3] - x[3].mean() - (x[3] @ base) / (base @ base) * base
    y = np.stack([orth, orth + 1e-3 * base, orth + 0.2 * base, orth + 0.3 * base, orth + 0.8 * base,
                  base + 0.5 * orth, base + 1e-4 * orth, -base + 1e-7 * orth, 3.0 * base + 2.0,
                  -base, base])
    x = np.broadcast_to(base, y.shape)
    r, p = pearson_rows(x, y)
    assert p[0] > 0.99 and 0 < p[7] < 1e-100
    assert r[-2:].tolist() == [-1.0, 1.0] and (p[-2:] == 0).all()
    for k in range(y.shape[0]):
        assert pearson_test(x[k], y[k]) == (r[k], p[k])


def test_correlated_link_fractions_rejects_empty_group():
    ds = _helpers.build_dataset(views={"a": [100] * 63, "b": [100] * 63})
    with pytest.raises(DataFormatError, match="empty"):
        correlated_link_fractions({"g": []}, ds)


def _sample(ds, n, seed):
    """``sample_random_pairs`` over ``ds``'s link presence and default view filters."""
    return sample_random_pairs(daily_link_presence(ds.network, ds.corpus), n, seed, apply_view_filters(ds))


def test_sample_random_pairs_properties():
    n_days = 3
    views = {f"v{i}": [200] * n_days for i in range(12)}
    daily = [[("v0", "v1", 1), ("v2", "v3", 1)]] * n_days
    ds = _helpers.build_dataset(views=views, daily_edges=daily)
    pairs = _sample(ds, 30, 2)
    assert len(pairs) == 30
    assert len(set(pairs)) == 30
    for src, tgt in pairs:
        assert src != tgt
        assert (src, tgt) not in {("v0", "v1"), ("v1", "v0"), ("v2", "v3"), ("v3", "v2")}
    again = _sample(ds, 30, 2)
    assert pairs == again
    assert _sample(ds, 30, 9) != pairs


def test_sample_random_pairs_budget_exhaustion():
    # two videos, the only pair is linked, so nothing can ever be sampled
    views = {"a": [300] * 3, "b": [300] * 3}
    ds = _helpers.build_dataset(views=views, daily_edges=[("a", "b", 1)])
    with pytest.raises(DataFormatError, match="exhausted sampling budget"):
        _sample(ds, 5, 0)
    with pytest.raises(DataFormatError, match="positive sample size"):
        _sample(ds, 0, 0)


def test_sample_random_pairs_short_corpus_gives_every_pair_sorted():
    # three videos, a-b linked: the four other ordered pairs are all there is
    views = {"a": [300] * 3, "b": [300] * 3, "c": [300] * 3}
    ds = _helpers.build_dataset(views=views, daily_edges=[("a", "b", 1)])
    expected = [("a", "c"), ("b", "c"), ("c", "a"), ("c", "b")]
    assert _sample(ds, 5, 0) == expected
    assert _sample(ds, 500, 1) == expected
    # views filters still apply: c is too small to be a target
    ds = _helpers.build_dataset(views={**views, "c": [50] * 3}, daily_edges=[("a", "b", 1)])
    assert _sample(ds, 5, 0) == [("c", "a"), ("c", "b")]


def test_average_ranks_match_counting_oracle():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 60):
        values = rng.integers(0, max(1, n // 4), size=n).astype(float)
        values[0] = np.inf
        np.testing.assert_array_equal(average_ranks(values), _oracles.midranks(values))
    assert np.isnan(average_ranks([2.0, np.nan, 1.0])).all()
