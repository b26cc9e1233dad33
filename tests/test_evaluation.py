import numpy as np
import pytest
from hypothesis import example, given

from aflow.data_model import DataFormatError
from aflow.evaluation import (
    ArtistRow,
    _midrank_percentiles,
    contribution_report,
    evaluate_forecasts,
    network_contribution,
    outlier_artists,
    smape,
)
from aflow.forecast import (ArnetModel, ForecastConfig, ForecastResult, model_forecasts,
                            resolve_neighbor_values, run_model)
from aflow.persistence import extract_persistent_network

import _helpers
import _oracles


def test_smape_pinned_examples():
    assert smape([3.0, 7.0, 11.0], [3.0, 7.0, 11.0]) == 0.0
    assert smape([100.0], [0.0]) == 200.0
    expected = 200.0 * (50.0 / 250.0 + 50.0 / 350.0) / 2.0
    assert smape([100.0, 200.0], [150.0, 150.0]) == expected
    assert abs(expected - 34.285714285714285) < 1e-12


def test_smape_both_zero_counts_as_zero():
    assert smape([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert smape([0.0, 100.0], [0.0, 100.0]) == 0.0


def test_smape_symmetry_property():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        a = rng.uniform(0.0, 50.0, size=n)
        b = rng.uniform(0.0, 50.0, size=n)
        a[rng.random(n) < 0.2] = 0.0
        b[rng.random(n) < 0.2] = 0.0
        s = smape(a, b)
        assert s == smape(b, a)
        assert 0.0 <= s <= 200.0


def test_smape_modes_on_matrix():
    yt = np.array([[100.0, 100.0], [0.0, 50.0]])
    yp = np.array([[100.0, 0.0], [0.0, 50.0]])
    np.testing.assert_allclose(smape(yt, yp, mode="per_video"), [100.0, 0.0])
    np.testing.assert_allclose(smape(yt, yp, mode="per_horizon"), [0.0, 100.0])
    assert smape(yt, yp) == 50.0
    with pytest.raises(DataFormatError, match="2-D"):
        smape([1.0], [1.0], mode="per_video")
    with pytest.raises(DataFormatError, match="unknown SMAPE mode"):
        smape(yt, yp, mode="per_day")
    with pytest.raises(DataFormatError, match="equal-shape"):
        smape([1.0, 2.0], [1.0])


def test_evaluate_forecasts_overall_is_mean_of_videos():
    result = ForecastResult(
        video_ids=("a", "b"),
        dates=(),
        y_true=np.array([[100.0, 100.0], [50.0, 50.0]]),
        y_pred=np.array([[100.0, 0.0], [50.0, 50.0]]),
    )
    report = evaluate_forecasts(result)
    assert report.per_video == {"a": 100.0, "b": 0.0}
    assert report.overall == 50.0
    assert report.per_horizon == (0.0, 100.0)


def test_network_contribution_bounds_and_endpoints():
    only_ar = ArnetModel("v", np.array([0.5]), {})
    assert network_contribution(only_ar, {}, [10.0, 10.0]) == 0.0

    only_net = ArnetModel("v", np.zeros(7), {"u": 0.5})
    nv = {"u": np.array([40.0, 60.0])}
    preds = 0.5 * nv["u"]
    assert network_contribution(only_net, nv, preds) == 1.0

    with pytest.raises(DataFormatError, match="zero predicted total"):
        network_contribution(only_ar, {}, [0.0, 0.0])


def make_contribution_setup():
    n_days = 63
    views = {
        "a1": [200] * n_days,
        "b1": [120] * n_days,
        "c1": [80] * n_days,
    }
    artists = {"a1": "artA", "b1": "artB", "c1": "artC"}
    ds = _helpers.build_dataset(views=views, artists=artists)
    cfg = ForecastConfig()
    models = {
        "b1": ArnetModel("b1", np.zeros(7), {"a1": 0.5}),
        "c1": ArnetModel("c1", np.zeros(7), {}),
    }
    y_true = np.array([[120.0] * 7, [80.0] * 7])
    y_pred = np.array([[100.0] * 7, [80.0] * 7])
    result = ForecastResult(("b1", "c1"), (), y_true, y_pred)
    return ds, models, result, cfg


def test_contribution_report_eta_and_shares():
    ds, models, result, cfg = make_contribution_setup()
    report = contribution_report(ds, models, result, cfg)
    # b1 pulls 0.5 * 200 * 7 = 700 networked views against 700 predicted
    assert report.eta["b1"] == 1.0
    assert report.eta["c1"] == 0.0
    assert report.mean_eta == 0.5
    assert report.same_artist_share == 0.0


def test_midrank_percentiles_match_counting_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 40, 173):
        values = rng.integers(0, max(1, n // 3), size=n) * 0.37
        expected = 100.0 * (_oracles.midranks(values) - 0.5) / n
        np.testing.assert_array_equal(_midrank_percentiles(values), expected)


def test_contribution_report_percentile_changes_sum_to_zero():
    ds, models, result, cfg = make_contribution_setup()
    report = contribution_report(ds, models, result, cfg)
    changes = [row.pct_change for row in report.artist_rows]
    assert abs(sum(changes)) < 1e-9
    # removing b1's networked views drops artB below artC
    by_id = {row.artist_id: row for row in report.artist_rows}
    assert by_id["artB"].total_with == 840.0
    assert by_id["artB"].total_without == 140.0
    assert by_id["artB"].pct_change > 0.0
    assert by_id["artC"].pct_change < 0.0


def test_contribution_report_scale_invariance_of_percentiles():
    ds, models, result, cfg = make_contribution_setup()
    base = contribution_report(ds, models, result, cfg)

    n_days = 63
    scaled_views = {
        "a1": [600] * n_days,
        "b1": [360] * n_days,
        "c1": [240] * n_days,
    }
    artists = {"a1": "artA", "b1": "artB", "c1": "artC"}
    ds3 = _helpers.build_dataset(views=scaled_views, artists=artists)
    result3 = ForecastResult(("b1", "c1"), (), result.y_true * 3.0, result.y_pred * 3.0)
    scaled = contribution_report(ds3, models, result3, cfg)
    for row, row3 in zip(base.artist_rows, scaled.artist_rows):
        assert row.artist_id == row3.artist_id
        assert row.pct_with == row3.pct_with
        assert row.pct_without == row3.pct_without
        assert row.pct_change == row3.pct_change


def test_contribution_report_same_artist_flow():
    n_days = 63
    views = {"a1": [200] * n_days, "a2": [100] * n_days}
    artists = {"a1": "artA", "a2": "artA"}
    ds = _helpers.build_dataset(views=views, artists=artists)
    models = {"a2": ArnetModel("a2", np.zeros(7), {"a1": 0.4})}
    result = ForecastResult(("a2",), (), np.array([[100.0] * 7]), np.array([[80.0] * 7]))
    report = contribution_report(ds, models, result, ForecastConfig())
    assert report.same_artist_share == 1.0


def test_contribution_report_zero_beta_means_no_shift():
    n_days = 63
    views = {"x": [150] * n_days, "y": [90] * n_days}
    artists = {"x": "artX", "y": "artY"}
    ds = _helpers.build_dataset(views=views, artists=artists)
    models = {
        "x": ArnetModel("x", np.zeros(7), {}),
        "y": ArnetModel("y", np.zeros(7), {}),
    }
    result = ForecastResult(
        ("x", "y"),
        (),
        np.array([[150.0] * 7, [90.0] * 7]),
        np.array([[150.0] * 7, [90.0] * 7]),
    )
    report = contribution_report(ds, models, result, ForecastConfig())
    assert all(row.pct_change == 0.0 for row in report.artist_rows)
    assert report.mean_eta == 0.0
    assert report.same_artist_share == 0.0


def test_contribution_report_needs_some_eta():
    ds, models, result, cfg = make_contribution_setup()
    zeroed = ForecastResult(("b1", "c1"), (), result.y_true, np.zeros((2, 7)))
    with pytest.raises(DataFormatError, match="no video produced"):
        contribution_report(ds, models, zeroed, cfg)


def row_with_change(artist, pct_without, pct_change):
    return ArtistRow(artist, 0.0, 0.0, pct_without + pct_change, pct_without, pct_change)


def test_outlier_artists_flags_extreme_changes():
    rows = [row_with_change(f"a{i}", 5.0 + i * 0.1, 0.5) for i in range(12)]
    assert outlier_artists(rows) == []
    rows.append(row_with_change("odd", 5.5, 60.0))
    assert outlier_artists(rows) == ["odd"]


def test_outlier_artists_bins_independently():
    # the same change is normal in one bin and extreme in another
    low_bin = [row_with_change(f"l{i}", 3.0, float(i)) for i in range(8)]
    high_bin = [row_with_change(f"h{i}", 95.0, 0.0) for i in range(8)]
    rows = low_bin + high_bin + [row_with_change("spike", 96.0, 4.0)]
    assert outlier_artists(rows) == ["spike"]


def test_end_to_end_eta_on_run_model_output():
    rng = np.random.default_rng(44)
    n_days = 63
    src = np.asarray(_helpers.seasonal_values(600.0, n_days), dtype=float)
    src = np.clip(src + rng.normal(0.0, 60.0, n_days), 1, None)
    tgt = np.clip(0.5 * src + rng.normal(0.0, 8.0, n_days), 0, None)
    views = {"u": src.astype(int).tolist(), "v": tgt.astype(int).tolist()}
    ds = _helpers.build_dataset(views=views, daily_edges=[("u", "v", 1)])
    persistent = extract_persistent_network(ds.network, ds)
    models, result = run_model(ds, persistent, "arnet")
    report = contribution_report(ds, models, result, ForecastConfig())
    assert set(report.eta) == {"v"}
    assert 0.0 <= report.eta["v"] <= 1.0
    # nearly all of v's views arrive over the single in-edge
    assert report.eta["v"] > 0.8


@given(_helpers.model_cases())
@example(_helpers.covering_model_case())
def test_contribution_report_equals_the_per_video_loop(case):
    ds, models, config = case
    result = model_forecasts(ds, models, config)
    eta, mean_eta, share, without = _oracles.contribution(ds, models, result, config)
    if not eta:
        with pytest.raises(DataFormatError, match="no video produced"):
            contribution_report(ds, models, result, config)
        return
    report = contribution_report(ds, models, result, config)
    assert list(report.eta.items()) == list(eta.items())
    assert (report.mean_eta, report.same_artist_share) == (mean_eta, share)
    assert {row.artist_id: row.total_without for row in report.artist_rows} == without
    values = resolve_neighbor_values(ds, models, config)
    for vid in eta:
        assert network_contribution(models[vid], values[vid], result.row(vid)[1]) == eta[vid]
