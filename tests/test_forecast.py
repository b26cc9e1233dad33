import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from aflow import datagen
from aflow import forecast as forecast_module
from aflow.data_model import DataFormatError, NumericalError
from aflow.evaluation import smape
from aflow.forecast import (
    ArnetModel,
    ForecastConfig,
    fit_ar,
    fit_arnet,
    fit_arnet_batch,
    _arnet_blocks,
    _forecast_rows,
    _source_values,
    model_forecasts,
    predict_naive,
    predict_seasonal_naive,
    resolve_neighbor_values,
    run_model,
    split_series,
)
from aflow.persistence import extract_persistent_network

import _helpers
import _oracles

CONFIG = ForecastConfig()


def ar_forecast(alpha, history, horizon):
    """``_forecast_rows`` for one target without beta terms."""
    return _forecast_rows(np.asarray(alpha, dtype=float)[None], np.asarray(history, dtype=float)[None],
                          np.empty(0, dtype=np.intp), np.empty(0), np.empty((0, horizon)))[0]


def test_naive_repeats_last_value():
    np.testing.assert_array_equal(predict_naive([3.0, 9.0, 4.0], 3), [4.0, 4.0, 4.0])
    with pytest.raises(DataFormatError, match="empty history"):
        predict_naive([], 2)


def test_seasonal_naive_cycles_last_season():
    hist = np.arange(1.0, 15.0)  # last week is 8..14
    np.testing.assert_array_equal(
        predict_seasonal_naive(hist, 7), [8, 9, 10, 11, 12, 13, 14]
    )
    np.testing.assert_array_equal(
        predict_seasonal_naive(hist, 10), [8, 9, 10, 11, 12, 13, 14, 8, 9, 10]
    )
    with pytest.raises(DataFormatError, match="shorter than the season"):
        predict_seasonal_naive([1.0, 2.0], 3, m_star=7)


def test_config_validation():
    with pytest.raises(DataFormatError, match="positive"):
        ForecastConfig(p=0)
    with pytest.raises(DataFormatError, match="training window shorter than the lag order allows"):
        ForecastConfig(p=7, train_days=14)  # 7 regression rows: AR(7) needs 8
    ForecastConfig(p=7, train_days=15)
    with pytest.raises(DataFormatError, match="training window shorter than the season length m_star"):
        ForecastConfig(m_star=57)
    ForecastConfig(p=1, m_star=3, train_days=3)
    with pytest.raises(DataFormatError, match="neighbor mode"):
        ForecastConfig(neighbor_mode="oracle")


def test_ar_recovers_planted_coefficients():
    # y[t] = 0.5 y[t-1] + 0.25 y[t-7], noiseless
    rng = np.random.default_rng(7)
    y = np.zeros(56)
    y[:7] = rng.uniform(50.0, 150.0, size=7)
    for t in range(7, 56):
        y[t] = 0.5 * y[t - 1] + 0.25 * y[t - 7]
    model = fit_ar(["v"], [y])["v"]
    expected = np.array([0.5, 0, 0, 0, 0, 0, 0.25])
    assert np.max(np.abs(model.alpha - expected)) < 1e-6


def test_ar_matches_unregularized_least_squares():
    rng = np.random.default_rng(1)
    y = rng.uniform(10.0, 100.0, size=56)
    model = fit_ar(["v"], [y])["v"]
    lags = np.column_stack([y[7 - tau : 56 - tau] for tau in range(1, 8)])
    reference, *_ = np.linalg.lstsq(lags, y[7:], rcond=None)
    assert np.max(np.abs(model.alpha - reference)) < 1e-6


def test_ar_constant_series_reproduces_itself():
    model = fit_ar(["v"], [np.full(56, 80.0)])["v"]
    assert ar_forecast(model.alpha, np.full(56, 80.0), 1)[0] == pytest.approx(80.0, abs=1e-6)


@pytest.mark.parametrize("level", [1e4, 1e5])
def test_ar_singular_constant_series_falls_back_to_least_squares(level):
    # equal lag columns make the Gram matrix singular: the 1e-8 ridge is lost against ~5e9 entries
    model = fit_ar(["v"], [np.full(56, level)])["v"]
    np.testing.assert_allclose(model.alpha, np.full(7, 1 / 7))
    np.testing.assert_allclose(ar_forecast(model.alpha, np.full(56, level), 7), np.full(7, level))


def test_ar_all_zero_series_gives_zero_coefficients():
    model = fit_ar(["v"], [np.zeros(56)])["v"]
    np.testing.assert_array_equal(model.alpha, np.zeros(7))


def test_ar_input_validation():
    with pytest.raises(DataFormatError, match="fewer than p\\+1 regression rows"):
        fit_ar(["v"], [np.ones(14)])
    fit_ar(["v"], [np.arange(15.0)])  # 8 rows is exactly enough
    with pytest.raises(DataFormatError, match="training series of w has non-finite values"):
        fit_ar(["v", "w"], [np.ones(56), np.array([1.0, np.nan] + [1.0] * 54)])


@given(st.data())
def test_matrix_ar_equals_the_per_target_fit(data):
    """Each row of one stacked fit equals the one-series oracle exactly, in any row set and order."""
    p = data.draw(st.integers(1, 10), label="p")
    days = data.draw(st.integers(2 * p + 1, 70), label="days")
    scale = data.draw(st.sampled_from([1.0, 1e3, 1e6, 1e9, 1e12]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    train = rng.uniform(0.0, scale, size=(data.draw(st.integers(1, 6), label="rows"), days))
    if data.draw(st.booleans(), label="integer views"):
        train = np.round(train)
    if data.draw(st.booleans(), label="constant 1e4 row"):  # for most p > 1 its Gram matrix is singular
        train = np.vstack([train, np.full(days, 1e4)])
    if data.draw(st.booleans(), label="zero row"):
        train = np.vstack([train, np.zeros(days)])
    ids = [f"v{i:02d}" for i in range(len(train))]
    expected = {v: _oracles.fit_ar(v, y, p).alpha for v, y in zip(ids, train)}
    order = data.draw(st.permutations(range(len(ids))), label="order")
    keep = order[: data.draw(st.integers(1, len(ids)), label="subset")]
    for rows in (range(len(ids)), order, keep):
        fits = fit_ar([ids[i] for i in rows], train[list(rows)], p)
        assert list(fits) == [ids[i] for i in rows]
        for v, model in fits.items():
            assert model.video_id == v and not model.beta
            assert np.array_equal(model.alpha, expected[v])


def test_arnet_recovers_single_neighbor_weight():
    rng = np.random.default_rng(3)
    nb = rng.uniform(100.0, 400.0, size=56)
    y = 0.5 * nb
    model = fit_arnet("v", y, {"u": nb}, CONFIG)
    assert abs(model.beta["u"] - 0.5) < 1e-3
    assert np.all(model.alpha < 1e-3)
    assert np.all(model.alpha >= 0.0)


def test_arnet_respects_bounds():
    rng = np.random.default_rng(9)
    y = rng.uniform(0.0, 50.0, size=40)
    nb = rng.uniform(0.0, 50.0, size=40)
    model = fit_arnet("v", y, {"u": nb}, CONFIG)
    assert np.all(model.alpha >= 0.0)
    assert 0.0 <= model.beta["u"] <= 1.0


def test_arnet_without_neighbors_matches_empty_beta_fit():
    rng = np.random.default_rng(11)
    y = rng.uniform(50.0, 150.0, size=56)
    alone = fit_arnet("v", y, {}, CONFIG)
    with_zero = fit_arnet("v", y, {"u": np.zeros(56)}, CONFIG)
    assert alone.beta == {}
    np.testing.assert_allclose(with_zero.alpha, alone.alpha, atol=1e-8)


def test_arnet_is_deterministic():
    rng = np.random.default_rng(13)
    y = rng.uniform(10.0, 200.0, size=56)
    nb = rng.uniform(10.0, 200.0, size=56)
    m1 = fit_arnet("v", y, {"u": nb}, CONFIG)
    m2 = fit_arnet("v", y, {"u": nb}, CONFIG)
    assert np.array_equal(m1.alpha, m2.alpha)
    assert m1.beta == m2.beta


def test_arnet_reports_optimizer_status(monkeypatch):
    rng = np.random.default_rng(3)
    u = 500 + 50 * rng.random(60)
    y = 0.4 * u + 10 * rng.random(60)
    model = fit_arnet("v", y, {"u": u}, CONFIG)
    assert model.fit.converged
    assert model.fit.nit >= 1 and model.fit.nfev >= model.fit.nit
    assert (model.fit.n_params, model.fit.n_rows) == (8, 53)
    assert model.fit.objective >= 0.0

    monkeypatch.setattr(forecast_module, "MAX_ITER", 1)
    stopped = fit_arnet("v", y, {"u": u}, CONFIG)
    assert not stopped.fit.converged
    assert stopped.fit.nit == 1
    assert stopped.fit.message


def test_arnet_trace_never_increases(monkeypatch):
    rng = np.random.default_rng(2)
    nb = rng.uniform(100.0, 300.0, size=56)
    y = np.clip(0.4 * nb + rng.normal(0.0, 5.0, size=56), 0, None)
    fit = fit_arnet("v", y, {"u": nb}, CONFIG).fit
    # The solver is deterministic, so the fit stopped after k iterations ends
    # at the full fit's k-th iterate.
    trace = [fit.start_objective]
    for k in range(1, fit.nit + 1):
        monkeypatch.setattr(forecast_module, "MAX_ITER", k)
        trace.append(fit_arnet("v", y, {"u": nb}, CONFIG).fit.objective)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) <= 1e-9)


def test_arnet_gradient_matches_finite_differences():
    from aflow.forecast import _smape_block

    rng = np.random.default_rng(21)
    problems = []
    for _ in range(3):
        y = rng.uniform(20.0, 120.0, size=30)
        lags, target = _oracles.lag_matrix(y, 7)
        problems.append((np.hstack([lags, rng.uniform(20.0, 120.0, size=(23, 1))]), target))
    points = np.hstack([rng.uniform(0.05, 0.3, size=(3, 7)), rng.uniform(0.2, 0.6, size=(3, 1))])
    rows = np.stack([r for r, _ in problems])
    cols = np.ascontiguousarray(rows.transpose(0, 2, 1))
    targets = np.stack([t for _, t in problems])

    def batched(k):
        # target k of a three-target block, the others held at their points
        def fun(x):
            values, grads = _smape_block(rows, cols, targets,
                                         np.vstack([points[:k], x, points[k + 1:]]))
            return values[k], grads[k]
        return fun

    single = [_oracles.smape_objective(r[:, :7], r[:, 7:], t) for r, t in problems]
    checks = [(fun, points[k]) for k, fun in enumerate(single)]
    checks += [(batched(k), points[k]) for k in range(3)]
    eps = 1e-7
    for fun, x in checks:
        _, grad = fun(x)
        for k in range(x.size):
            step = np.zeros_like(x)
            step[k] = eps
            hi, _ = fun(x + step)
            lo, _ = fun(x - step)
            numeric = (hi - lo) / (2 * eps)
            assert abs(grad[k] - numeric) < 1e-4


def _mixed_problems():
    """Targets of several block shapes, several of each, as (video_id, training series,
    {neighbor id: neighbor training series}); an id names one series throughout.

    Besides targets with 0, 1 and 3 independent neighbors there is a block
    with a duplicated neighbor series and an all-zero neighbor (singular
    least squares, made regular only by the ridge), a constant target whose
    ridge system is exactly singular, and an underdetermined block with more
    parameters than regression rows.
    """
    rng = np.random.default_rng(17)
    problems = []
    for i, k in enumerate((0, 1, 3, 1, 3, 0, 3, 1)):
        sources = {f"u{i}_{j}": rng.uniform(100.0, 400.0, size=56) for j in range(k)}
        y = sum((rng.uniform(0.2, 0.6) * v for v in sources.values()), np.zeros(56))
        y = y + rng.uniform(20.0, 60.0, size=56)
        problems.append((f"v{i}", y, sources))
    twin = rng.uniform(100.0, 400.0, size=56)
    problems.append(("d0", 0.4 * twin + rng.uniform(20.0, 60.0, size=56), {"a": twin, "b": twin}))
    other = rng.uniform(100.0, 400.0, size=56)
    problems.append(("d1", 0.3 * other + rng.uniform(20.0, 60.0, size=56),
                     {"c": other, "z": np.zeros(56)}))
    problems.append(("c0", np.full(56, 1e5), {}))
    for i in range(2):
        source = rng.uniform(100.0, 400.0, size=14)
        problems.append((f"s{i}", 0.5 * source + rng.uniform(20.0, 60.0, size=14), {f"a{i}": source}))
    return problems


def _matrix(problems):
    """(targets, ids, train, in_edges) of problems that share one training length, as
    fit_arnet_batch takes them: one row per id in id order."""
    series = {}
    for vid, y, neighbors in problems:
        for u, values in [(vid, y), *neighbors.items()]:
            assert np.array_equal(series.setdefault(u, values), values)  # an id names one series
    ids = sorted(series)
    return ([vid for vid, _, _ in problems], ids, np.array([series[u] for u in ids], dtype=float),
            {vid: tuple(sorted(neighbors)) for vid, _, neighbors in problems})


def _by_length(problems):
    """The positions of the problems of each training length."""
    groups = {}
    for i, (_, y, _) in enumerate(problems):
        groups.setdefault(len(y), []).append(i)
    return list(groups.values())


def _fit_batch(problems, config=CONFIG):
    """The problems' models in order, from one fit_arnet_batch call per training length."""
    fitted = {}
    for group in _by_length(problems):
        fitted.update(zip(group, fit_arnet_batch(*_matrix([problems[i] for i in group]), config)))
    return [fitted[i] for i in range(len(problems))]


def _same_fit(a, b):
    return (a.video_id == b.video_id and np.array_equal(a.alpha, b.alpha)
            and a.beta == b.beta and a.fit == b.fit)


def test_batched_fits_equal_single_fits_bit_for_bit():
    problems = _mixed_problems()
    alone = [fit_arnet(*problem, CONFIG) for problem in problems]
    assert {(m.fit.n_params, m.fit.n_rows) for m in alone} == {(7, 49), (8, 49), (10, 49),
                                                               (9, 49), (8, 7)}
    batch = _fit_batch(problems)
    assert all(_same_fit(a, b) for a, b in zip(alone, batch))
    order = np.random.default_rng(5).permutation(len(problems))
    shuffled = _fit_batch([problems[i] for i in order])
    assert all(_same_fit(alone[i], m) for i, m in zip(order, shuffled))
    subset = _fit_batch([problems[i] for i in order[:6]])
    assert all(_same_fit(alone[i], m) for i, m in zip(order[:6], subset))


def test_fixed_start_where_least_squares_has_no_answer():
    from aflow.forecast import RIDGE

    problems = {vid: (vid, y, nbs) for vid, y, nbs in _mixed_problems()}
    _, regressors, target = _oracles.arnet_design(*problems["c0"], 7)
    with pytest.raises(np.linalg.LinAlgError):  # the constant target's ridge system
        np.linalg.solve(regressors.T @ regressors + RIDGE * np.eye(7), regressors.T @ target)
    for vid in ("c0", "s0", "s1"):
        model = fit_arnet(*problems[vid], CONFIG)
        assert (model.fit.nit, model.fit.objective) == _oracles.fixed_start_arnet(*problems[vid])
    ridge = fit_arnet(*problems["v0"], CONFIG)
    assert (ridge.fit.nit, ridge.fit.objective) != _oracles.fixed_start_arnet(*problems["v0"])


def _recovery_problems():
    """Criterion 4's targets, as _mixed_problems gives them, and the config."""
    from test_acceptance import _recovery_config

    dataset, _ = datagen.generate(_recovery_config())
    persistent = extract_persistent_network(dataset.network, dataset)
    config = ForecastConfig()
    ids = dataset.ids.tolist()
    train = dict(zip(ids, split_series(dataset, ids, config)[0]))
    problems = [(v, train[v], {u: train[u] for u in persistent.in_edges.get(v, ())})
                for v in sorted(persistent.targets)]
    return problems, config


def test_ridge_start_beats_the_fixed_start_on_recovery_data():
    problems, config = _recovery_problems()
    fits = [m.fit for m in _fit_batch(problems, config)]
    fixed = [_oracles.fixed_start_arnet(*problem, config) for problem in problems]
    assert np.median([f.nit for f in fits]) < np.median([nit for nit, _ in fixed])
    # a few targets end slightly higher, so compare the means, not each target
    assert np.mean([f.objective for f in fits]) <= np.mean([f for _, f in fixed])
    assert all(f.objective <= f.start_objective for f in fits)


def test_arnet_fits_no_worse_than_lbfgsb_on_recovery_data():
    problems, config = _recovery_problems()
    ours = [m.fit.objective for m in _fit_batch(problems, config)]
    reference = [_oracles.lbfgsb_arnet(*problem, config).fit.objective for problem in problems]
    assert len(ours) == 50
    assert np.mean(ours) <= np.mean(reference)


def test_arnet_stop_reasons_are_reported(monkeypatch):
    from aflow.forecast import CONVERGED_STOPS, STOP_ITERATIONS

    fits = [m.fit for m in _fit_batch(_mixed_problems())]
    assert all(f.converged == (f.message in CONVERGED_STOPS) for f in fits)
    monkeypatch.setattr(forecast_module, "MAX_ITER", 2)
    capped = [m.fit for m in _fit_batch(_mixed_problems())]
    for short, full in zip(capped, fits):
        assert short.nit <= 2
        if full.nit > 2:
            assert short.message == STOP_ITERATIONS and not short.converged


def test_arnet_input_validation():
    with pytest.raises(DataFormatError, match="no regression rows"):
        fit_arnet("v", np.ones(7), {}, CONFIG)
    with pytest.raises(DataFormatError, match="does not match the target length"):
        fit_arnet("v", np.ones(56), {"u": np.ones(40)}, CONFIG)
    with pytest.raises(DataFormatError, match="non-finite"):
        fit_arnet("v", np.ones(56), {"u": np.full(56, np.inf)}, CONFIG)
    with pytest.raises(DataFormatError, match="v is its own neighbor"):
        fit_arnet("v", np.ones(56), {"v": np.ones(56)}, CONFIG)
    with pytest.raises(DataFormatError, match="training series of u has non-finite values"):
        fit_arnet_batch(["v"], ["u", "v"], np.array([np.full(56, np.nan), np.ones(56)]), {"v": ("u",)},
                        CONFIG)


@pytest.mark.parametrize("case", ["mixed", "recovery"])
def test_arnet_blocks_stack_the_per_target_designs(case):
    """Each in-degree block holds exactly the one-target oracle designs of its members, stacked."""
    problems = _mixed_problems() if case == "mixed" else _recovery_problems()[0]
    for group in _by_length(problems):
        targets, ids, train, in_edges = _matrix([problems[i] for i in group])
        seen = []
        for members, regressors, target in _arnet_blocks(targets, ids, train, in_edges, 7):
            designs = [_oracles.arnet_design(*problems[group[i]], 7) for i in members]
            assert [d[0] for d in designs] == [list(in_edges[targets[i]]) for i in members]
            assert np.array_equal(regressors, np.stack([d[1] for d in designs]))
            assert np.array_equal(target, np.stack([d[2] for d in designs]))
            assert regressors.flags.c_contiguous and target.flags.c_contiguous
            seen.extend(members)
        assert sorted(seen) == list(range(len(group)))


def test_forecast_recursion_feeds_predictions_back():
    np.testing.assert_allclose(ar_forecast([0.5], [8.0], 3), [4.0, 2.0, 1.0])


def test_forecast_lag_seven_echoes_last_week():
    alpha = np.zeros(7)
    alpha[6] = 1.0
    np.testing.assert_allclose(ar_forecast(alpha, np.arange(1.0, 8.0), 7), [1, 2, 3, 4, 5, 6, 7])


def test_forecast_clamps_at_zero():
    np.testing.assert_array_equal(ar_forecast([-1.0], [5.0], 2), [0.0, 0.0])
    # as max(0.0, x): a NaN and a negative zero both become 0.0
    preds = ar_forecast([np.nan], [5.0], 1)
    assert preds[0] == 0.0 and not np.signbit(preds[0])
    preds = ar_forecast([-0.0], [5.0], 1)
    assert preds[0] == 0.0 and not np.signbit(preds[0])


def test_forecast_neighbor_terms_and_validation():
    # target 0 has two terms, target 1 none
    preds = _forecast_rows(np.zeros((2, 7)), np.full((2, 7), 9.0), np.array([0, 0]), np.array([1.0, 0.5]),
                           np.array([[3.0, 4.0, 5.0], [2.0, 2.0, 2.0]]))
    np.testing.assert_allclose(preds, [[4.0, 5.0, 6.0], [0.0, 0.0, 0.0]])
    # a model's sources are resolved from the dataset, so one outside the corpus is a data error
    ds, _ = network_dataset()
    with pytest.raises(DataFormatError, match="zz is not a corpus video"):
        model_forecasts(ds, {"v": ArnetModel("v", np.zeros(7), {"zz": 1.0})}, CONFIG)


def test_beta_zero_forecast_equals_plain_ar():
    ds, _ = network_dataset()
    alpha = np.random.default_rng(31).uniform(0.0, 0.2, size=7)
    plain = model_forecasts(ds, {"v": ArnetModel("v", alpha)}, CONFIG)
    netless = model_forecasts(ds, {"v": ArnetModel("v", alpha, {"u": 0.0, "w": 0.0})}, CONFIG)
    np.testing.assert_array_equal(plain.y_pred, netless.y_pred)
    train, _ = split_series(ds, ["v"], CONFIG)
    np.testing.assert_array_equal(plain.y_pred[0], ar_forecast(alpha, train[0], 7))


@given(st.data())
def test_forecast_rows_equal_the_scalar_recursion(data):
    n, p, horizon = (data.draw(st.integers(1, k)) for k in (4, 3, 10))

    def rows(k, lo, hi):
        return np.array(data.draw(st.lists(st.lists(st.floats(lo, hi), min_size=k, max_size=k),
                                           min_size=n, max_size=n)))

    alpha, history = rows(p, -1.0, 1.0), rows(p + 2, 0.0, 1000.0)
    # terms in table order: by target, then by source id ("s00", "s01", ...)
    row = np.array([i for i in range(n) for _ in range(data.draw(st.integers(0, 3)))], dtype=np.intp)
    beta = np.array([data.draw(st.floats(0.0, 1.0)) for _ in row])
    values = np.array([data.draw(st.lists(st.floats(0.0, 1000.0), min_size=horizon, max_size=horizon))
                       for _ in row]).reshape(row.size, horizon)
    names = [f"s{k:02d}" for k in range(row.size)]
    models = [ArnetModel(str(i), alpha[i], {u: beta[k] for k, u in enumerate(names) if row[k] == i})
              for i in range(n)]
    expected = np.array([_oracles.recursive_forecast(m, history[i], dict(zip(names, values)), horizon)
                         for i, m in enumerate(models)])
    np.testing.assert_array_equal(_forecast_rows(alpha, history, row, beta, values), expected)


@given(_helpers.model_cases())
@example(_helpers.covering_model_case())
def test_model_forecasts_equal_the_per_target_loop(case):
    ds, models, config = case
    result = model_forecasts(ds, models, config)
    assert result.video_ids == tuple(sorted(models))
    np.testing.assert_array_equal(result.y_pred, _oracles.model_forecasts(ds, models, config))
    values = resolve_neighbor_values(ds, models, config)
    oracle = _oracles.neighbor_values(ds, models, config)
    for vid, model in models.items():
        for u in model.beta:
            np.testing.assert_array_equal(values[vid][u], oracle[u])


def network_dataset(noise_seed=0):
    # one persistent source -> target pair plus an isolated video
    rng = np.random.default_rng(noise_seed)
    n_days = 63
    src = np.asarray(_helpers.seasonal_values(800.0, n_days), dtype=float)
    tgt = 0.5 * src + rng.normal(0.0, 10.0, size=n_days)
    views = {
        "u": src.astype(int).tolist(),
        "v": np.clip(tgt, 0, None).astype(int).tolist(),
        "w": [150] * n_days,
    }
    ds = _helpers.build_dataset(views=views, daily_edges=[("u", "v", 1)])
    persistent = extract_persistent_network(ds.network, ds)
    return ds, persistent


def test_split_series_boundaries():
    ds, _ = network_dataset()
    cfg = ForecastConfig()
    train, test = split_series(ds, ["w", "u"], cfg)
    assert train.shape == (2, 56) and test.shape == (2, 7)
    u = ds.window_views[ds.codes(["u"])[0]]
    assert train[1, 0] == u[0]
    assert test[1, -1] == u[-1]
    assert train[0].tolist() == [150.0] * 56
    with pytest.raises(DataFormatError, match="cannot hold"):
        split_series(ds, ["u"], ForecastConfig(train_days=60, horizon=7))
    with pytest.raises(DataFormatError, match="zz is not a corpus video"):
        split_series(ds, ["u", "zz"], cfg)


def test_run_model_covers_all_four_families():
    ds, persistent = network_dataset()
    assert persistent.targets == frozenset({"v"})
    for name in ("naive", "snaive", "ar", "arnet"):
        models, result = run_model(ds, persistent, name)
        assert result.video_ids == ("v",)
        assert result.y_true.shape == (1, 7)
        assert result.y_pred.shape == (1, 7)
        assert np.all(result.y_pred >= 0.0)
        if name in ("naive", "snaive"):
            assert models is None
        else:
            assert set(models) == {"v"}
    with pytest.raises(DataFormatError, match="unknown model"):
        run_model(ds, persistent, "arima")


def test_run_model_requires_targets():
    ds, _ = network_dataset()
    empty = extract_persistent_network(
        _helpers.build_dataset(views={"a": [200] * 63, "b": [200] * 63}).network,
        _helpers.build_dataset(views={"a": [200] * 63, "b": [200] * 63}),
    )
    with pytest.raises(DataFormatError, match="no targets"):
        run_model(ds, empty, "naive")


def test_snaive_zero_error_on_exactly_periodic_series():
    n_days = 63
    pattern = [100, 120, 90, 110, 130, 80, 105]
    views = {
        "u": [v * 4 for v in pattern] * 9,
        "v": pattern * 9,
    }
    ds = _helpers.build_dataset(views=views, daily_edges=[("u", "v", 1)])
    persistent = extract_persistent_network(ds.network, ds)
    _, result = run_model(ds, persistent, "snaive")
    assert smape(result.y_true[0], result.y_pred[0]) == 0.0


def test_thread_count_does_not_change_results():
    ds, persistent = network_dataset()
    serial_models, serial = run_model(ds, persistent, "arnet", threads=1)
    pooled_models, pooled = run_model(ds, persistent, "arnet", threads=4)
    np.testing.assert_array_equal(serial.y_pred, pooled.y_pred)
    for vid, model in serial_models.items():
        np.testing.assert_array_equal(model.alpha, pooled_models[vid].alpha)
        assert model.beta == pooled_models[vid].beta
        assert model.fit == pooled_models[vid].fit


def test_arnet_fits_run_in_worker_processes(monkeypatch):
    ds, persistent = network_dataset()

    def report_pid(problems, *args, **kwargs):
        raise NumericalError(f"pid {os.getpid()}")

    monkeypatch.setattr(forecast_module, "fit_arnet_batch", report_pid)
    with pytest.raises(NumericalError) as serial:
        run_model(ds, persistent, "arnet", threads=1)
    assert str(serial.value) == f"pid {os.getpid()}"
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method: fits always run serially")
    with pytest.raises(NumericalError) as pooled:
        run_model(ds, persistent, "arnet", threads=2)
    assert str(pooled.value).startswith("pid ")
    assert str(pooled.value) != f"pid {os.getpid()}"


def test_observed_mode_feeds_actual_neighbor_views():
    ds, _ = network_dataset()
    cfg = ForecastConfig()
    models = {"v": ArnetModel("v", np.zeros(7), {"u": 1.0})}
    values = resolve_neighbor_values(ds, models, cfg)
    _, test = split_series(ds, ["u"], cfg)
    np.testing.assert_array_equal(values["v"]["u"], test[0])


@pytest.mark.parametrize("horizon", [7, 10])
def test_forecast_mode_uses_snaive_for_unmodeled_neighbors(horizon):
    """An unmodeled source's forecast-mode row is the snaive family's row, both C-ordered:
    above m_star = 7 days a row of the F-ordered index of train would sum differently."""
    ds, persistent = network_dataset()
    cfg = ForecastConfig(neighbor_mode="forecast", horizon=horizon, train_days=63 - horizon)
    models = {"w": ArnetModel("w", np.zeros(7), {"u": 1.0, "v": 1.0})}
    values = resolve_neighbor_values(ds, models, cfg)
    train, _ = split_series(ds, ["u"], cfg)
    np.testing.assert_array_equal(values["w"]["u"], predict_seasonal_naive(train[0], cfg.horizon))
    _, snaive = run_model(ds, persistent, "snaive", cfg)  # the network's one target is v
    np.testing.assert_array_equal(values["w"]["v"], snaive.y_pred[0])
    _, matrix = _source_values(ds, models, cfg)
    assert matrix.flags.c_contiguous and snaive.y_pred.flags.c_contiguous


def test_forecast_mode_chains_modeled_neighbors():
    n_days = 63
    views = {
        "a": [200] * n_days,
        "b": [100] * n_days,
        "c": [50] * n_days,
    }
    ds = _helpers.build_dataset(views=views)
    cfg = ForecastConfig(neighbor_mode="forecast")
    models = {
        "b": ArnetModel("b", np.zeros(7), {"a": 0.5}),
        "c": ArnetModel("c", np.zeros(7), {"b": 0.5}),
    }
    values = resolve_neighbor_values(ds, models, cfg)
    # b's forecast is 0.5 * snaive(a) = 100; c sees that forecast, not b's data
    np.testing.assert_allclose(values["c"]["b"], np.full(7, 100.0))
    np.testing.assert_allclose(values["b"]["a"], np.full(7, 200.0))


def test_datagen_recovery_two_neighbors():
    # a quarter-week phase gap keeps the two source sinusoids orthogonal;
    # anti-phase sources (gap 3.5) would sum to a constant and lose beta
    edges = ((0, 2, 0.6), (1, 2, 0.3))
    cfg = datagen.GenConfig(
        n_videos=3,
        n_artists=1,
        days=63,
        base_levels=(900.0, 900.0, 0.0),
        phases=(0.0, 1.75, 0.0),
        seasonal_amplitude=0.25,
        noise_scale=5.0,
        presence_prob=1.0,
        seed=3,
        alpha_profile=(0.2, 0, 0, 0, 0, 0, 0.2),
        edges=edges,
    )
    dataset, truth = datagen.generate(cfg)
    train = dict(zip(dataset.ids.tolist(), split_series(dataset, dataset.ids, ForecastConfig())[0]))
    model = fit_arnet(
        "v00002",
        train["v00002"],
        {"v00000": train["v00000"], "v00001": train["v00001"]},
        CONFIG,
    )
    assert abs(model.beta["v00000"] - 0.6) < 0.05
    assert abs(model.beta["v00001"] - 0.3) < 0.05
    true_alpha = np.array(truth.alpha["v00002"])
    # the lag-7 weight rides on a nearly periodic regressor, so it is the
    # loosest coordinate of the fit
    assert np.max(np.abs(model.alpha - true_alpha)) < 0.08


@pytest.mark.parametrize("script,expected", [
    ("import scipy.optimize, aflow.forecast as f\n"
     "print(f.minimize is scipy.optimize.minimize)", "True"),
    ("import sys\nsys.modules['scipy'] = None  # a numpy-only install\n"
     "import aflow.forecast as f\n"
     "print(hasattr(f, 'minimize'), getattr(f, 'minimize', None))", "False None"),
])
def test_minimize_lookup_follows_the_attribute_protocol(script, expected):
    """``forecast.minimize`` is scipy's when scipy imports, and a missing attribute when not."""
    env = dict(os.environ, PYTHONPATH=str(Path(forecast_module.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected
