from datetime import date

import numpy as np
import pytest

from aflow.data_model import DataFormatError, VideoMeta
from aflow.graph_analysis import daily_link_presence
from aflow.persistence import (
    PersistentEdge,
    PersistentNetwork,
    ViewFilters,
    apply_view_filters,
    classify_links,
    extract_persistent_network,
    homophily_stats,
    link_presence,
    simulate_persistence_probability,
    smooth_link_presence,
)

import _helpers
import _oracles


def test_filter_thresholds_are_inclusive():
    filters = ViewFilters(np.zeros(0), 100.0, 0.01)
    # target needs a mean >= 100 and its source >= 1% of it, boundaries included
    assert filters.eligible(1.0, 100.0)
    assert not filters.eligible(1.0, 99.9)
    assert not filters.eligible(0.99, 100.0)
    got = filters.eligible(np.array([1.0, 1.0, 0.99, 5.0]), np.array([100.0, 99.9, 100.0, 500.0]))
    assert got.tolist() == [True, False, False, True]


def test_apply_view_filters_uses_window_means():
    ds = _helpers.build_dataset(views={"a": [10, 20, 30], "b": [0, 0, 3]})
    filters = apply_view_filters(ds, target_min=20.0, source_frac=0.05)
    assert filters.mean_views.tolist() == [20.0, 1.0]
    assert filters.mean_views[ds.codes(["b", "a"])].tolist() == [1.0, 20.0]
    assert (filters.target_min, filters.source_frac) == (20.0, 0.05)


def test_smoothing_keeps_uninterrupted_presence():
    assert smooth_link_presence(np.ones(63, dtype=bool)).all()


def test_smoothing_repairs_single_interior_gap():
    bits = np.ones(63, dtype=bool)
    bits[30] = False
    assert smooth_link_presence(bits).all()


def test_smoothing_does_not_rescue_alternation():
    bits = (np.arange(63) % 2) == 0
    smoothed = smooth_link_presence(bits)
    assert not smoothed.all()


def test_smoothing_rejects_bad_input():
    with pytest.raises(DataFormatError, match="non-empty 1-D"):
        smooth_link_presence(np.array([]))
    with pytest.raises(DataFormatError, match="non-empty 1-D"):
        smooth_link_presence(np.ones((2, 3)))


def test_smoothing_matches_literal_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        bits = rng.random(n) < rng.uniform(0.1, 0.9)
        got = smooth_link_presence(bits)
        assert np.array_equal(got, _oracles.smooth(bits.tolist()))


def test_smoothing_is_monotone_in_presence():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        bits = rng.random(63) < 0.5
        more = bits.copy()
        more[int(rng.integers(0, 63))] = True
        a = smooth_link_presence(bits)
        b = smooth_link_presence(more)
        assert not np.any(a & ~b)


def test_link_presence_matrix():
    daily = [
        [("a", "b", 1)],
        [("a", "b", 1), ("c", "d", 1)],
        [("c", "d", 1)],
    ]
    ds = _helpers.build_dataset(
        views={v: [100] * 3 for v in "abcd"}, daily_edges=daily
    )
    pairs, matrix = link_presence(daily_link_presence(ds.network, ds.corpus))
    assert pairs == [("a", "b"), ("c", "d")]
    assert matrix.tolist() == [[True, True, False], [False, True, True]]


def test_classify_links_splits_persistent_and_ephemeral():
    n_days = 63
    daily = []
    for t in range(n_days):
        edges = []
        if t != 30:
            edges.append(("a", "b", 1))
        if t % 2 == 0:
            edges.append(("c", "d", 1))
        daily.append(edges)
    views = {"a": [500] * n_days, "b": [200] * n_days, "c": [500] * n_days, "d": [200] * n_days}
    ds = _helpers.build_dataset(views=views, daily_edges=daily)
    persistent, ephemeral = classify_links(daily_link_presence(ds.network, ds.corpus), apply_view_filters(ds))
    assert persistent.pair_set == {("a", "b")}
    assert persistent.edges[0].days_present == 62
    assert not persistent.edges[0].reciprocal
    assert ephemeral == (("c", "d"),)


def test_classify_links_drops_filtered_pairs_entirely():
    n_days = 63
    views = {
        "s": [500] * n_days,
        "t": [50] * n_days,  # target below the 100-view mean
        "u": [5] * n_days,  # source below 1% of w's mean
        "w": [10000] * n_days,
    }
    daily = [[("s", "t", 1), ("u", "w", 1)]] * n_days
    ds = _helpers.build_dataset(views=views, daily_edges=daily)
    persistent, ephemeral = classify_links(daily_link_presence(ds.network, ds.corpus), apply_view_filters(ds))
    assert persistent.pair_set == frozenset()
    assert ephemeral == ()


def test_reciprocal_edges_are_flagged_symmetrically():
    n_days = 63
    views = {"a": [300] * n_days, "b": [300] * n_days}
    daily = [[("a", "b", 1), ("b", "a", 1)]] * n_days
    ds = _helpers.build_dataset(views=views, daily_edges=daily)
    network = extract_persistent_network(ds.network, ds)
    assert network.pair_set == {("a", "b"), ("b", "a")}
    assert all(e.reciprocal for e in network.edges)
    assert network.reciprocal_count == 2
    assert network.in_edges == {"b": ("a",), "a": ("b",)}


def test_homophily_fractions():
    edges = (
        PersistentEdge("a", "b", False, 63),
        PersistentEdge("a", "c", False, 63),
    )
    meta = {
        "a": VideoMeta("art1", frozenset({"pop"}), date(2018, 1, 1)),
        "b": VideoMeta("art1", frozenset({"pop", "rock"}), date(2018, 1, 1)),
        "c": VideoMeta("art2", frozenset({"jazz"}), date(2018, 1, 1)),
    }
    stats = homophily_stats(PersistentNetwork(edges), meta)
    assert stats.same_artist_fraction == 0.5
    assert stats.shared_genre_fraction == 0.5

    with pytest.raises(DataFormatError, match="no edges"):
        homophily_stats(PersistentNetwork(()), meta)
    with pytest.raises(DataFormatError, match="missing metadata for z"):
        homophily_stats(PersistentNetwork((PersistentEdge("a", "z", False, 63),)), meta)


def test_simulation_endpoints_and_determinism():
    assert simulate_persistence_probability(1.0, trials=500, seed=1) == 1.0
    assert simulate_persistence_probability(0.0, trials=500, seed=1) == 0.0
    a = simulate_persistence_probability(0.9, trials=4000, seed=3)
    b = simulate_persistence_probability(0.9, trials=4000, seed=3)
    assert a == b
    assert 0.8 < a < 1.0


def test_simulation_rejects_bad_arguments():
    with pytest.raises(DataFormatError, match="outside"):
        simulate_persistence_probability(1.5, trials=10)
    with pytest.raises(DataFormatError, match="positive"):
        simulate_persistence_probability(0.5, trials=0)
    with pytest.raises(DataFormatError, match="positive"):
        simulate_persistence_probability(0.5, n_days=0, trials=10)
