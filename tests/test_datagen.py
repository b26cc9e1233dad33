import numpy as np
import pytest

from aflow import datagen
from aflow.data_model import DataFormatError, serialize_snapshots, serialize_views
from aflow.list_alignment import PositionBins
from aflow.persistence import extract_persistent_network


def test_equal_seeds_give_identical_exports():
    cfg = datagen.GenConfig(n_videos=12, n_artists=4, days=14, edge_density=0.1, seed=9)
    ds1, gt1 = datagen.generate(cfg)
    ds2, gt2 = datagen.generate(cfg)
    assert serialize_snapshots(ds1.network) == serialize_snapshots(ds2.network)
    assert serialize_views(ds1.views) == serialize_views(ds2.views)
    assert gt1.beta == gt2.beta
    ds3, _ = datagen.generate(datagen.GenConfig(n_videos=12, n_artists=4, days=14, edge_density=0.1, seed=10))
    assert serialize_views(ds3.views) != serialize_views(ds1.views)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "name, value",
    [
        ("noise_scale", lambda x: x),
        ("seasonal_amplitude", lambda x: x),
        ("base_level_range", lambda x: (200.0, x)),
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


def test_paired_lists_layout_and_determinism():
    kernel = np.array(
        [
            [0.5, 0.2, 0.1, 0.1],
            [0.2, 0.3, 0.2, 0.1],
        ]
    )
    net1 = datagen.generate_paired_lists(kernel, n_pairs=40, seed=2, pairs_per_day=25)
    net2 = datagen.generate_paired_lists(kernel, n_pairs=40, seed=2, pairs_per_day=25)
    assert serialize_snapshots(net1) == serialize_snapshots(net2)
    assert net1.window.n_days == 2

    bins = PositionBins()
    for snap in net1.snapshots:
        assert set(snap.relevant) == set(snap.recommended)
        for src, rel in snap.relevant.items():
            assert len(rel.entries) == 1
            tgt, rank = rel.entries[0]
            assert 1 <= rank <= kernel.shape[0]
            rec = snap.recommended[src]
            assert [p for _, p in rec.entries] == list(range(1, bins.max_position + 1))
            matches = [p for t, p in rec.entries if t == tgt]
            assert len(matches) <= 1


def test_paired_lists_kernel_validation():
    with pytest.raises(DataFormatError, match="columns must match"):
        datagen.generate_paired_lists(np.ones((2, 3)) * 0.1, n_pairs=4)
    with pytest.raises(DataFormatError, match="sub-probability"):
        datagen.generate_paired_lists(np.full((1, 4), 0.3), n_pairs=4)
    with pytest.raises(DataFormatError, match="positive pair counts"):
        datagen.generate_paired_lists(np.full((1, 4), 0.1), n_pairs=0)
