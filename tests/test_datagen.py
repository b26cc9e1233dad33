import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aflow import data_model, datagen
from aflow.data_model import (DataFormatError, NumericalError, ViewTable, serialize_metadata, serialize_snapshots,
                               serialize_views)
from aflow.list_alignment import BINS
from aflow.persistence import extract_persistent_network

import _oracles


def test_equal_seeds_give_identical_exports():
    cfg = datagen.GenConfig(n_videos=12, n_artists=4, days=14, edge_density=0.1, seed=9)
    ds1, gt1 = datagen.generate(cfg)
    ds2, gt2 = datagen.generate(cfg)
    assert serialize_snapshots(ds1.network) == serialize_snapshots(ds2.network)
    assert np.array_equal(ds1.window_views, ds2.window_views)
    assert gt1.beta == gt2.beta
    ds3, _ = datagen.generate(datagen.GenConfig(n_videos=12, n_artists=4, days=14, edge_density=0.1, seed=10))
    assert not np.array_equal(ds3.window_views, ds1.window_views)


def test_planted_graph_is_a_dag_on_indices():
    cfg = datagen.GenConfig(n_videos=30, n_artists=5, days=7, edge_density=0.15, seed=1)
    _, truth = datagen.generate(cfg)
    assert truth.beta, "density 0.15 on 30 videos should draw edges"
    for src, dst in truth.beta:
        assert src < dst


def test_zero_density_means_no_edges():
    cfg = datagen.GenConfig(n_videos=10, n_artists=2, days=7, edge_density=0.0, seed=0)
    dataset, truth = datagen.generate(cfg)
    assert truth.beta == {}
    assert all(not snap.relevant for snap in dataset.network.snapshots)


def test_export_rejects_a_window_day_without_snapshot_rows(tmp_path):
    # The last day has no row, so the files would load as a 9-day window.
    cfg = datagen.GenConfig(n_videos=6, n_artists=2, days=10, edges=((0, 1, 0.5), (2, 3, 0.4)),
                            presence_prob=0.6, seed=7)
    dataset, _ = datagen.generate(cfg)
    with pytest.raises(DataFormatError, match="^window day 2018-09-10 has no snapshot row"):
        datagen.export_dataset(dataset, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_export_writes_a_block_at_a_time(tmp_path, monkeypatch):
    # The same videos and edges over twice the days: twice the rows in snapshots.csv and views.csv.
    monkeypatch.setattr(data_model, "_WRITE_ROWS", 256)  # both files span many blocks
    peaks = []
    for days in (30, 60):
        dataset, _ = datagen.generate(datagen.GenConfig(n_videos=200, n_artists=5, days=days, edge_density=0.05,
                                                        seed=3))
        out = tmp_path / str(days)
        tracemalloc.start()
        try:
            datagen.export_dataset(dataset, out)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        n, start = dataset.ids.size, datagen.START_DATE.toordinal()
        views = ViewTable(dataset.ids, np.full(n, start), np.arange(n + 1) * days, dataset.window_views.ravel())
        assert (out / "snapshots.csv").read_bytes() == serialize_snapshots(dataset.network).encode()
        assert (out / "views.csv").read_bytes() == serialize_views(views).encode()
        assert (out / "metadata.csv").read_bytes() == serialize_metadata(dataset.metadata).encode()
    assert peaks[1] < 1.2 * peaks[0], peaks  # writing the whole text first doubles it


def test_noise_free_constant_chain():
    # source fixed at 100, single edge with beta 0.5, no seasonality or memory
    cfg = datagen.GenConfig(
        n_videos=2,
        n_artists=1,
        days=21,
        edges=((0, 1, 0.5),),
        base_levels=(100.0, 0.0),
        seasonal_amplitude=0.0,
        noise_scale=0.0,
        alpha_profile=(0.0,) * 7,
        seed=0,
    )
    dataset, truth = datagen.generate(cfg)
    assert np.array_equal(dataset.window_views[dataset.codes(["v00000", "v00001"])], [[100] * 21, [50] * 21])
    assert truth.beta == {("v00000", "v00001"): 0.5}


def test_views_are_non_negative_integers():
    cfg = datagen.GenConfig(n_videos=15, n_artists=3, days=21, noise_scale=500.0, seed=3)
    dataset, _ = datagen.generate(cfg)
    assert dataset.window_views.dtype == np.int64
    assert dataset.window_views.shape == (15, 21)
    assert np.all(dataset.window_views >= 0)


def test_full_presence_edge_survives_persistence_extraction():
    cfg = datagen.GenConfig(
        n_videos=2,
        n_artists=1,
        days=63,
        edges=((0, 1, 0.5),),
        base_levels=(400.0, 0.0),
        presence_prob=1.0,
        seed=0,
    )
    dataset, _ = datagen.generate(cfg)
    network = extract_persistent_network(dataset.network, dataset)
    assert network.pair_set == {("v00000", "v00001")}
    assert network.edges[0].days_present == 63


def test_half_presence_edge_does_not_persist():
    cfg = datagen.GenConfig(
        n_videos=2,
        n_artists=1,
        days=63,
        edges=((0, 1, 0.5),),
        base_levels=(400.0, 0.0),
        presence_prob=0.5,
        seed=0,
    )
    dataset, _ = datagen.generate(cfg)
    presence_days = sum(1 for snap in dataset.network.snapshots if snap.relevant)
    assert 0 < presence_days < 63
    network = extract_persistent_network(dataset.network, dataset)
    assert network.pair_set == frozenset()


def test_structured_layout_places_requested_in_edges():
    cfg = datagen.GenConfig(
        n_videos=20,
        n_artists=4,
        days=7,
        n_sources=8,
        in_edges_per_target=2,
        seed=6,
    )
    _, truth = datagen.generate(cfg)
    targets = {dst for _, dst in truth.beta}
    assert targets == {datagen._video_id(i) for i in range(8, 20)}
    per_target: dict[str, int] = {}
    for src, dst in truth.beta:
        assert src < datagen._video_id(8)
        per_target[dst] = per_target.get(dst, 0) + 1
    assert set(per_target.values()) == {2}


def test_config_validation():
    with pytest.raises(DataFormatError, match="low to high"):
        datagen.generate(datagen.GenConfig(n_videos=3, edges=((2, 1, 0.5),)))
    with pytest.raises(DataFormatError, match="edge weight"):
        datagen.generate(datagen.GenConfig(n_videos=3, edges=((0, 1, 1.5),)))
    with pytest.raises(DataFormatError, match="planted more than once"):
        datagen.generate(datagen.GenConfig(n_videos=3, edges=((0, 1, 0.5), (0, 1, 0.3))))
    with pytest.raises(DataFormatError, match="alpha profile"):
        datagen.GenConfig(alpha_profile=(0.5,) * 6)
    with pytest.raises(DataFormatError, match="base_levels length"):
        datagen.GenConfig(n_videos=3, base_levels=(1.0, 2.0))
    with pytest.raises(DataFormatError, match="phases length"):
        datagen.GenConfig(n_videos=3, phases=(0.0, 1.0))
    with pytest.raises(DataFormatError, match="presence probability"):
        datagen.GenConfig(presence_prob=1.2)
    with pytest.raises(DataFormatError, match="edge density"):
        datagen.GenConfig(edge_density=-0.1)


@pytest.mark.parametrize("config, problem", [
    (dict(n_videos=1), "need at least 2 videos"),
    (dict(n_videos=10, n_sources=10, in_edges_per_target=1), "n_sources must leave at least one target"),
    (dict(n_videos=10, n_sources=3, in_edges_per_target=4), "more in-edges requested than sources available"),
])
def test_config_rejects_a_layout_it_cannot_build(config, problem):
    with pytest.raises(DataFormatError, match=problem):
        datagen.generate(datagen.GenConfig(**config))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name, value",
    [
        ("noise_scale", lambda x: x),
        ("seasonal_amplitude", lambda x: x),
        ("beta_range", lambda x: (x, 0.8)),
        ("alpha_profile", lambda x: (0.3, 0.0, 0.0, x, 0.0, 0.0, 0.3)),
        ("base_levels", lambda x: (100.0, x, 100.0)),
        ("phases", lambda x: (0.0, 0.0, x)),
    ],
)
def test_config_rejects_non_finite_values(name, value, bad):
    with pytest.raises(DataFormatError, match=f"^{name} must hold only finite values$"):
        datagen.GenConfig(n_videos=3, **{name: value(bad)})


def test_ground_truth_json_layout():
    cfg = datagen.GenConfig(
        n_videos=3, n_artists=1, days=7, edges=((0, 2, 0.4), (1, 2, 0.3)), seed=0
    )
    _, truth = datagen.generate(cfg)
    payload = datagen.ground_truth_to_json(truth)
    assert payload["beta"] == {"v00000->v00002": 0.4, "v00001->v00002": 0.3}
    assert payload["presence_prob"] == 1.0
    assert list(payload["alpha"]) == ["v00000", "v00001", "v00002"]
    assert len(payload["alpha"]["v00000"]) == 7


def test_paired_lists_layout_and_determinism(monkeypatch):
    kernel = np.array(
        [
            [0.5, 0.2, 0.1, 0.1],
            [0.2, 0.3, 0.2, 0.1],
        ]
    )
    monkeypatch.setattr(datagen, "PAIRS_PER_DAY", 25)
    net1 = datagen.generate_paired_lists(kernel, n_pairs=40, seed=2)
    net2 = datagen.generate_paired_lists(kernel, n_pairs=40, seed=2)
    assert serialize_snapshots(net1) == serialize_snapshots(net2)
    assert net1.window.n_days == 2

    for snap in net1.snapshots:
        assert set(snap.relevant) == set(snap.recommended)
        for src, rel in snap.relevant.items():
            assert len(rel.entries) == 1
            tgt, rank = rel.entries[0]
            assert 1 <= rank <= kernel.shape[0]
            rec = snap.recommended[src]
            assert [p for _, p in rec.entries] == list(range(1, BINS[-1][1] + 1))
            matches = [p for t, p in rec.entries if t == tgt]
            assert len(matches) <= 1


def test_paired_lists_kernel_validation():
    with pytest.raises(DataFormatError, match="columns must match"):
        datagen.generate_paired_lists(np.ones((2, 3)) * 0.1, n_pairs=4)
    with pytest.raises(DataFormatError, match="sub-probability"):
        datagen.generate_paired_lists(np.full((1, 4), 0.3), n_pairs=4)
    with pytest.raises(DataFormatError, match="positive pair counts"):
        datagen.generate_paired_lists(np.full((1, 4), 0.1), n_pairs=0)
    with pytest.raises(DataFormatError, match="at least one row"):
        datagen.generate_paired_lists(np.zeros((0, 4)), n_pairs=4)
    with pytest.raises(DataFormatError, match="sub-probability"):  # NaN passes both mass checks
        datagen.generate_paired_lists(np.array([[0.2, np.nan, 0.1, 0.1]] * 2), 10)


# Kernel rows: random ones, a zero-mass row and rows whose mass is exactly 1, which always show.
KERNEL_ROWS = st.one_of(
    st.lists(st.floats(0.0, 0.25), min_size=4, max_size=4),
    st.sampled_from([[0.0] * 4, [0.25] * 4, [0.5, 0.25, 0.125, 0.125], [0.0, 1.0, 0.0, 0.0]]),
)
# The 50-row kernel of perfbench's alignment workload.
WORKLOAD_KERNEL = [[0.35 * np.exp(-r / 6) + 0.03, 0.25 * np.exp(-r / 15) + 0.04,
                    0.15 * np.exp(-r / 30) + 0.05, 0.08 + 0.002 * r] for r in range(50)]


@settings(max_examples=40)
@given(kernel=st.lists(KERNEL_ROWS, min_size=1, max_size=50), n_pairs=st.integers(1, 300),
       per_day=st.sampled_from([7, 60, datagen.PAIRS_PER_DAY]), seed=st.integers(0, 2**32 - 1))
@example(kernel=[[0.0] * 4, [0.25] * 4], n_pairs=23, per_day=7, seed=0)
@example(kernel=WORKLOAD_KERNEL, n_pairs=2 * datagen.PAIRS_PER_DAY + 123, per_day=datagen.PAIRS_PER_DAY, seed=11)
def test_paired_lists_match_the_per_pair_loop(kernel, n_pairs, per_day, seed):
    made, default_rng = [], np.random.default_rng

    def recorded_rng(seed):
        made.append(default_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datagen, "PAIRS_PER_DAY", per_day)
        patch.setattr(np.random, "default_rng", recorded_rng)
        got = datagen.generate_paired_lists(kernel, n_pairs, seed=seed)
        rng = default_rng(seed)
        want = _oracles.paired_lists(rng, kernel, n_pairs)
    assert serialize_snapshots(got) == serialize_snapshots(want)
    assert made[0].bit_generator.state == rng.bit_generator.state  # the stream is consumed alike


def test_paired_lists_come_in_table_order(monkeypatch):
    # from_codes sorts the rows by (day, kind, source, position); they already are.
    orders, row_order = [], data_model._row_order

    def recorded(*key):
        orders.append(row_order(*key))
        return orders[-1]

    monkeypatch.setattr(data_model, "_row_order", recorded)
    monkeypatch.setattr(datagen, "PAIRS_PER_DAY", 7)
    net = datagen.generate_paired_lists(WORKLOAD_KERNEL, 30, seed=5)
    assert len(orders) == 1 and np.array_equal(orders[0], np.arange(30 * 16))
    assert net.window.n_days == 5


def test_numbered_names_are_the_f_strings_past_seven_digits():
    number, slot = np.array([0, 9_999_999, 10_000_000]), np.array([1, 15, 7])
    assert datagen._numbered("f", number, slot).tolist() == ["f0000000p01", "f9999999p15", "f10000000p07"]
    for c in "st":
        assert datagen._numbered(c, number).tolist() == [f"{c}{i:07d}" for i in number.tolist()]


# Layouts whose views and lists must match the oracle loops: levels 0..39 on the
# chain, lags before day 0 at 5 days, and a source with more than 15 targets.
LAYOUTS = {
    "density": datagen.GenConfig(n_videos=60, edge_density=0.1, presence_prob=0.9, seed=1),
    "structured": datagen.GenConfig(n_videos=50, n_sources=20, in_edges_per_target=3, seed=2),
    "chain": datagen.GenConfig(n_videos=40, edges=tuple((i, i + 1, 0.5) for i in range(39)), seed=3),
    "noise-free": datagen.GenConfig(n_videos=30, edge_density=0.2, noise_scale=0.0, seed=4),
    "five days": datagen.GenConfig(n_videos=30, days=5, edge_density=0.2, alpha_profile=(0.1,) * 7, seed=5),
    "wide source": datagen.GenConfig(
        n_videos=40, edges=tuple((0, j, 0.1) for j in range(1, 31)) + ((1, 2, 0.4), (2, 5, 0.3)),
        presence_prob=0.9, seed=6,
    ),
}


def _edges(config):
    return datagen._draw_edges(config, np.random.default_rng(config.seed))


@pytest.mark.parametrize("config", LAYOUTS.values(), ids=LAYOUTS)
def test_views_match_the_per_video_loop(config):
    rng = np.random.default_rng(config.seed)
    n, days = config.n_videos, config.days
    base, profile = rng.uniform(0.0, 2000.0, size=n), rng.uniform(0.05, 1.5, size=(n, 7))
    noise = rng.normal(0.0, config.noise_scale, size=(days, n)) if config.noise_scale else np.zeros((days, n))
    alpha, edges = np.asarray(config.alpha_profile), _edges(config)
    want = _oracles.simulate_views(base, profile, alpha, edges, noise)
    assert datagen._simulate_views(base, profile, alpha, edges, noise).tobytes() == want.tobytes()
    # Views near 1e14 keep fractions of 1/64, so there a change in the order of
    # the terms often moves a view across a rounding boundary.
    base *= 1e14 / want.max()
    want = _oracles.simulate_views(base, profile, alpha, edges, noise)
    assert datagen._simulate_views(base, profile, alpha, edges, noise).tobytes() == want.tobytes()


@pytest.mark.parametrize("config", LAYOUTS.values(), ids=LAYOUTS)
def test_list_placement_matches_the_per_source_loop(config):
    edge_src, edge_dst = np.array([e[:2] for e in _edges(config)], dtype=np.int64).T
    rngs = [np.random.default_rng(config.seed) for _ in range(2)]
    got = datagen._place_lists(rngs[0], edge_src, edge_dst, config.days, config.presence_prob)
    want = _oracles.place_lists(rngs[1], edge_src, edge_dst, config.days, config.presence_prob)
    for a, b in zip(got, want):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state  # the stream goes on alike


OVERFLOWS = {
    "noise": datagen.GenConfig(n_videos=20, noise_scale=1e308),
    "lags": datagen.GenConfig(alpha_profile=(1e200,) * 7),
    "phases": datagen.GenConfig(n_videos=5, phases=(1e308,) * 5),
}


@pytest.mark.parametrize("config", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflowing_views_are_a_numerical_error(config):
    # a RuntimeWarning fails the test, and a NaN view is never clamped to 0
    with pytest.raises(NumericalError, match="^generated views overflow"):
        datagen.generate(config)
