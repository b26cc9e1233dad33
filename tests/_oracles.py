"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: Floyd-Warshall closures, quadratic
rank counting, numeric quadrature, series preprocessed one at a time with
``np.polyfit``, link analyses that rebuild one ``build_graph`` per day or
walk ``RankedList`` entries, view series checked and written one video at a
time, one ARNet fit at a time by scipy's L-BFGS-B, AR fits and ARNet regressors
built one target at a time, forecasts and network contributions computed one
target and one beta term at a time, the generator's views one video at a time
and its lists one (day, source) at a time, paired lists with one f-string per
name and ids sorted by ``sorted``, CSV files written row by row by the csv
module, and id text converted from byte strings by ``astype``.  None of it shares
code paths with the implementations under test, except ``fixed_start_arnet``,
which keeps the package's solver and changes only its start point, and the
forecast oracles, which take their train/test split from ``split_series``.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_left
from collections import Counter, defaultdict
from datetime import timedelta
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from aflow import datagen, forecast
from aflow.data_model import (LIST_KINDS, METADATA_HEADER, SNAPSHOT_HEADER, VIEWS_HEADER, DataFormatError,
                              DynamicNetwork, ObservationWindow, SnapshotTable)
from aflow.forecast import (RIDGE, SMOOTH_EPS, ArnetModel, FitDiagnostics, ForecastConfig,
                            _solve_block, split_series)
from aflow.graph_analysis import ChurnStats, build_graph


def reachability(node_ids: list[str], edges) -> np.ndarray:
    """Reflexive transitive closure as a boolean matrix over node_ids order."""
    idx = {v: i for i, v in enumerate(node_ids)}
    n = len(node_ids)
    reach = np.eye(n, dtype=bool)
    for src, dst in edges:
        reach[idx[src], idx[dst]] = True
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return reach


def scc_partition(node_ids: list[str], edges) -> set[frozenset[str]]:
    reach = reachability(node_ids, edges)
    mutual = reach & reach.T
    out = set()
    for i, v in enumerate(node_ids):
        out.add(frozenset(node_ids[j] for j in np.flatnonzero(mutual[i])))
    return out


def bowtie_assignment(node_ids: list[str], edges) -> dict[str, str]:
    """Five-way bow-tie labels computed straight from the closure matrix."""
    node_ids = sorted(node_ids)
    reach = reachability(node_ids, edges)
    sccs = sorted(scc_partition(node_ids, edges), key=lambda s: (-len(s), min(s)))
    lscc = sccs[0]
    idx = {v: i for i, v in enumerate(node_ids)}
    lscc_idx = [idx[v] for v in lscc]

    labels: dict[str, str] = {}
    in_set, out_set = set(), set()
    for v in node_ids:
        if v in lscc:
            labels[v] = "LSCC"
            continue
        i = idx[v]
        reaches_core = bool(reach[i, lscc_idx].any())
        reached_from_core = bool(reach[lscc_idx, i].any())
        if reaches_core:
            labels[v] = "IN"
            in_set.add(v)
        elif reached_from_core:
            labels[v] = "OUT"
            out_set.add(v)
    for v in node_ids:
        if v in labels:
            continue
        i = idx[v]
        from_in = any(reach[idx[u], i] for u in in_set)
        to_out = any(reach[i, idx[w]] for w in out_set)
        labels[v] = "Tendrils" if (from_in or to_out) else "Disconnected"
    return labels


def midranks(values) -> np.ndarray:
    """Average mid-ranks by explicit counting, quadratic on purpose."""
    vals = list(values)
    out = []
    for v in vals:
        less = sum(1 for w in vals if w < v)
        eq = sum(1 for w in vals if w == v)
        out.append(less + (eq + 1) / 2.0)
    return np.array(out, dtype=float)


def t_sf(t_stat: float, df: int) -> float:
    """Student-t survival function by quadrature of the density."""
    log_c = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    c = math.exp(log_c)

    def density(x: float) -> float:
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)

    value, _ = quad(density, t_stat, np.inf)
    return value


def two_sided_p(r: float, n: int) -> float:
    if abs(r) == 1.0:
        return 0.0
    t_stat = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    return min(1.0, 2.0 * t_sf(t_stat, n - 2))


# ---------------------------------------------------------------------------
# view series: ``{id: (first day, counts)}``, checked and written one video at a time


def window_views(metadata, views, window):
    """The view checks of ``validate_dataset`` and its window matrix, one corpus video at a time."""
    for vid in sorted(views):
        if any(count < 0 for count in views[vid][1]):
            raise DataFormatError(f"view series for {vid} contains negative counts")
    for vid in sorted(metadata):
        series = views.get(vid)
        if series is None:
            raise DataFormatError(f"corpus video {vid} has no view series")
        start_date, values = series
        end_date = start_date + timedelta(days=len(values) - 1)
        if not (start_date <= window.start and end_date >= window.end):
            raise DataFormatError(
                f"view series for {vid} spans {start_date}..{end_date}, "
                f"window needs {window.start}..{window.end}"
            )
        if metadata[vid].upload_date > start_date:
            raise DataFormatError(
                f"{vid} uploaded {metadata[vid].upload_date}, "
                f"after its first observed day {start_date}"
            )
    rows = []
    for vid in sorted(metadata):
        start_date, values = views[vid]
        off = (window.start - start_date).days
        rows.append(values[off : off + window.n_days])
    return np.array(rows, dtype=np.int64).reshape(len(metadata), window.n_days)


def serialize_views(views) -> str:
    """Canonical views CSV: rows sorted by (video_id, date)."""
    rows = []
    for vid in sorted(views):
        start_date, values = views[vid]
        rows.extend((vid, (start_date + timedelta(days=i)).isoformat(), int(val)) for i, val in enumerate(values))
    return csv_text(VIEWS_HEADER, rows)


# ---------------------------------------------------------------------------
# canonical CSV files, written row by row by the csv module


def csv_text(header, rows) -> str:
    """The header row, then ``rows``, written by the csv module with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_snapshots(network) -> str:
    """``serialize_snapshots``, row by row."""
    t = network.table
    rows = np.lexsort((t.pos, t.kind, t.src, t.day))
    days = [d.isoformat() for d in network.window.dates()]
    return csv_text(SNAPSHOT_HEADER, zip(
        map(days.__getitem__, t.day[rows].tolist()),
        t.ids[t.src[rows]].tolist(),
        t.ids[t.tgt[rows]].tolist(),
        t.pos[rows].tolist(),
        map(LIST_KINDS.__getitem__, t.kind[rows].tolist()),
    ))


def csv_metadata(metadata) -> str:
    """``serialize_metadata``, row by row."""
    return csv_text(METADATA_HEADER, (
        (vid, m.artist_id, m.upload_date.isoformat(), "|".join(sorted(m.genres)))
        for vid, m in sorted(metadata.items())
    ))


def fmt(value: object) -> str:
    """One artifact cell's text, from the cell's own type."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    f = float(value)  # type: ignore[arg-type]
    if math.isnan(f):
        return "nan"
    return repr(f)


def write_csv(path, header, rows) -> None:
    """``data_model.write_csv``, row by row: text cells as they are, the others through ``fmt``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])


def lane_texts(lanes: np.ndarray, width: int) -> np.ndarray:
    """The ``str`` array of ``width`` characters that the byte split's uint64 lane rows spell, by
    viewing their big-endian bytes as one ``S`` string each and converting with ``astype``."""
    spelled = np.ascontiguousarray(lanes.astype(">u8")).view(f"S{8 * lanes.shape[1]}")[:, 0]
    return spelled.astype(f"U{width}")


# ---------------------------------------------------------------------------
# per-series preprocessing: one series at a time, with np.polyfit


def seasonality_test(values: Sequence[float] | np.ndarray, period: int = 7) -> bool:
    """90% autocorrelation test for seasonality at the given lag.

    The series is seasonal when |acf(period)| exceeds
    1.645 * sqrt((1 + 2 * sum of squared lower-lag acfs) / n).  Constant
    series are never seasonal; series shorter than 3 periods are rejected.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise DataFormatError("seasonality test expects a 1-D series")
    n = y.size
    if n < 3 * period:
        raise DataFormatError(f"series of length {n} too short for period {period}")
    dev = y - y.mean()
    denom = float(np.dot(dev, dev))
    if denom == 0:
        return False
    acf = np.array([np.dot(dev[lag:], dev[:-lag]) / denom for lag in range(1, period + 1)])
    limit = 1.645 * math.sqrt((1 + 2 * float(np.sum(acf[:-1] ** 2))) / n)
    return bool(abs(acf[-1]) > limit)


def _seasonal_indices(y: np.ndarray, period: int) -> tuple[np.ndarray, bool]:
    """Classical-decomposition seasonal indices per phase.

    Multiplicative by default; falls back to additive when the series touches
    zero or goes negative, since ratios are undefined there.
    """
    n = y.size
    additive = bool(np.any(y <= 0))
    kernel = np.full(period, 1.0 / period)
    half = period // 2
    trend = np.full(n, np.nan)
    trend[half : n - half] = np.convolve(y, kernel, mode="valid")
    with np.errstate(invalid="ignore", divide="ignore"):
        detrended = y - trend if additive else y / trend
    indices = np.array([np.nanmean(detrended[phase::period]) for phase in range(period)])
    if additive:
        indices = indices - indices.mean()
    else:
        indices = indices / indices.mean()
    return indices, additive


def preprocess(values: Sequence[float] | np.ndarray, period: int = 7) -> tuple[np.ndarray, bool, bool]:
    """Deseasonalize (when seasonal), detrend, and z-normalize a series.

    Returns all-zero residuals for series that are constant after the linear
    fit rather than dividing by a vanishing standard deviation, as
    (residuals, was_seasonal, additive).
    """
    y = np.asarray(values, dtype=float)
    was_seasonal = seasonality_test(y, period)
    n = y.size
    work = y.astype(float)
    additive = False
    if was_seasonal:
        indices, additive = _seasonal_indices(y, period)
        tiled = indices[np.arange(n) % period]
        work = y - tiled if additive else y / tiled

    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, work, 1)
    resid = work - (intercept + slope * t)

    sd = float(resid.std())
    scale = max(1.0, float(np.abs(resid).max(initial=0.0)))
    if sd <= 1e-12 * scale:
        z = np.zeros(n)
    else:
        z = (resid - resid.mean()) / sd
    return z, was_seasonal, additive


# ---------------------------------------------------------------------------
# per-day link analyses over DailySnapshot / RankedList objects


def link_presence(snapshots, corpus, cutoff=15):
    """Sorted pairs of every daily graph and their pair x day presence matrix."""
    daily_edges = [build_graph(snap, corpus, cutoff).edges for snap in snapshots]
    pairs = sorted(set().union(*daily_edges))
    index = {pair: i for i, pair in enumerate(pairs)}
    matrix = np.zeros((len(pairs), len(daily_edges)), dtype=bool)
    for day, edges in enumerate(daily_edges):
        for pair in edges:
            matrix[index[pair], day] = True
    return pairs, matrix


def indegree_change_ratios(snapshots, corpus, cutoff=15, min_indegree=20):
    if len(snapshots) < 2:
        raise DataFormatError("need at least two snapshots to measure change")
    daily = [Counter(dst for _, dst in build_graph(s, corpus, cutoff).edges) for s in snapshots]
    buckets = defaultdict(list)
    for today, tomorrow in zip(daily, daily[1:]):
        for vid, deg in today.items():
            if deg >= min_indegree:
                buckets[deg].append((tomorrow.get(vid, 0) - deg) / deg)
    out = {}
    for deg in sorted(buckets):
        vals = np.asarray(buckets[deg], dtype=float)
        p10, p25, p50, p75, p90 = np.percentile(vals, [10, 25, 50, 75, 90])
        out[deg] = ChurnStats(deg, len(vals), p10, p25, p50, p75, p90)
    return out


def link_frequency_histogram(snapshots, corpus, cutoff=15):
    presence = Counter()
    for snap in snapshots:
        presence.update(build_graph(snap, corpus, cutoff).edges)
    return dict(sorted(Counter(presence.values()).items()))


def view_eligible(filters, ids, source, target):
    """The view filters spelled out on ids: both thresholds inclusive.

    ``filters.mean_views`` is indexed by corpus code, an id's place in the
    sorted corpus ``ids``.
    """
    source_mean, target_mean = (float(filters.mean_views[bisect_left(ids, v)]) for v in (source, target))
    return target_mean >= filters.target_min and source_mean >= filters.source_frac * target_mean


def smooth(bits, h=3):
    """Clipped-window majority, one day at a time."""
    out = []
    for t in range(len(bits)):
        window = bits[max(0, t - h) : t + h + 1]
        out.append(sum(window) >= (len(window) + 1) // 2)
    return out


def classify_links(snapshots, corpus, cutoff, filters):
    """(persistent edges as (source, target, reciprocal, days present), ephemeral pairs),
    filtering and smoothing one pair at a time over the per-day presence matrix."""
    pairs, matrix = link_presence(snapshots, corpus, cutoff)
    ids = sorted(corpus)
    persistent, ephemeral = {}, []
    for pair, row in zip(pairs, matrix):
        if not view_eligible(filters, ids, *pair):
            continue
        if all(smooth(row.tolist())):
            persistent[pair] = int(row.sum())
        else:
            ephemeral.append(pair)
    edges = [(s, t, (t, s) in persistent, days) for (s, t), days in sorted(persistent.items())]
    return edges, ephemeral


def sample_random_pairs(dataset, snapshots, n, seed, cutoff, filters):
    """Rejection sampling of never-linked pairs, forbidden set from per-day graphs;
    every eligible pair, sorted, when the budget runs out with fewer than n in all."""
    if n < 1:
        raise DataFormatError("need a positive sample size")
    ever = set()
    for snap in snapshots:
        ever |= build_graph(snap, dataset.corpus, cutoff).edges
    forbidden = ever | {(b, a) for a, b in ever}
    ids = sorted(dataset.corpus)
    rng = np.random.default_rng(seed)
    chosen, seen = [], set()
    budget = max(1000, 50 * n)
    while len(chosen) < n:
        if budget == 0:
            every = sorted((a, b) for a in ids for b in ids if a != b
                           and (a, b) not in forbidden and view_eligible(filters, ids, a, b))
            if 0 < len(every) < n:
                return every
            raise DataFormatError(
                f"exhausted sampling budget with {len(chosen)} of {n} pairs found"
            )
        budget -= 1
        i, j = rng.integers(0, len(ids), size=2)
        if i == j:
            continue
        pair = (ids[i], ids[j])
        if pair in seen or pair in forbidden:
            continue
        if not view_eligible(filters, ids, *pair):
            continue
        seen.add(pair)
        chosen.append(pair)
    return chosen


def alignment_counts(snapshots, from_kind, max_from, ranges):
    """(numerator, denominator) of the display (relevant -> recommended) or
    origin (recommended -> relevant) matrix, entry by entry."""
    to_kind = "recommended" if from_kind == "relevant" else "relevant"
    num = np.zeros((max_from, len(ranges)), dtype=np.int64)
    den = np.zeros(max_from, dtype=np.int64)
    for snap in snapshots:
        for src, from_list in getattr(snap, from_kind).items():
            to_list = getattr(snap, to_kind).get(src)
            if to_list is None:
                continue
            for tgt, pos in from_list.entries:
                if pos > max_from:
                    continue
                den[pos - 1] += 1
                other = dict(to_list.entries).get(tgt)
                for b, (lo, hi) in enumerate(ranges):
                    if other is not None and lo <= other <= hi:
                        num[pos - 1, b] += 1
    return num, den


def lag_matrix(y, p):
    """Rows t = p..n-1 of one series' lagged values; column tau-1 holds y[t - tau]."""
    n = y.size
    lags = np.column_stack([y[p - tau : n - tau] for tau in range(1, p + 1)])
    return lags, y[p:]


def fit_ar(video_id, series, p=ForecastConfig.p):
    """One series' least-squares AR(p) without intercept, with the package's ridge, and
    ``lstsq``'s fit where the ridge system is singular."""
    y = np.asarray(series, dtype=float)
    lags, target = lag_matrix(y, p)
    gram = lags.T @ lags + RIDGE * np.eye(p)
    try:
        alpha = np.linalg.solve(gram, lags.T @ target)
    except np.linalg.LinAlgError:
        alpha = np.linalg.lstsq(lags, target, rcond=None)[0]
    return ArnetModel(video_id, alpha)


def arnet_design(video_id, series, neighbor_series, p):
    """One target's sorted neighbor ids, (rows, p + neighbors) regressors and targets."""
    y = np.asarray(series, dtype=float)
    neighbor_ids = sorted(neighbor_series)
    nb = np.zeros((y.size - p, len(neighbor_ids)))
    for j, u in enumerate(neighbor_ids):
        nb[:, j] = np.asarray(neighbor_series[u], dtype=float)[p:]
    lags, target = lag_matrix(y, p)
    return neighbor_ids, np.hstack([lags, nb]), target


def smape_objective(lags, neighbors, target):
    """Smoothed training SMAPE of one target and its gradient, as a function of x."""
    rows = target.size
    abs_target = np.abs(target)

    def fun(x):
        p = lags.shape[1]
        pred = lags @ x[:p] + neighbors @ x[p:]
        diff = target - pred
        absdiff = np.abs(diff)
        denom = abs_target + np.abs(pred) + SMOOTH_EPS
        value = 200.0 / rows * float(np.sum(absdiff / denom))
        dpred = (-np.sign(diff) * denom - absdiff * np.sign(pred)) / denom**2
        grad = 200.0 / rows * np.concatenate([lags.T @ dpred, neighbors.T @ dpred])
        return value, grad

    return fun


def lbfgsb_arnet(video_id, series, neighbor_series, config=None):
    """One ARNet fit by scipy's L-BFGS-B: memory 10, start alpha = 1/p, beta = 0.1."""
    config = config or ForecastConfig()
    p = config.p
    neighbor_ids, regressors, target = arnet_design(video_id, series, neighbor_series, p)
    fun = smape_objective(np.ascontiguousarray(regressors[:, :p]),
                          np.ascontiguousarray(regressors[:, p:]), target)
    x0 = np.concatenate([np.full(p, 1.0 / p), np.full(len(neighbor_ids), 0.1)])
    result = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * p + [(0.0, 1.0)] * len(neighbor_ids),
        options={"maxiter": forecast.MAX_ITER, "maxcor": 10, "gtol": forecast.GRAD_TOL,
                 "ftol": 1e-12},
    )
    x = result.x.copy()
    x[:p] = np.maximum(x[:p], 0.0)
    x[p:] = np.clip(x[p:], 0.0, 1.0)
    fit = FitDiagnostics(bool(result.success), int(result.nit), int(result.nfev),
                         float(result.fun), x.size, target.size, str(result.message).strip(),
                         fun(x0)[0])
    return ArnetModel(video_id, x[:p], {u: float(x[p + j]) for j, u in enumerate(neighbor_ids)}, fit)


def fixed_start_arnet(video_id, series, neighbor_series, config=None):
    """(nit, objective) of one ARNet fit by the package's own solver from the
    fixed start alpha = 1/p, beta = 0.1, as fits began before the ridge start.

    Unlike the rest of this module it reuses the package's ``_solve_block``,
    so that only the start point differs from ``fit_arnet``."""
    config = config or ForecastConfig()
    p = config.p
    _, regressors, target = arnet_design(video_id, series, neighbor_series, p)
    k = regressors.shape[1] - p
    upper = np.concatenate([np.full(p, np.inf), np.ones(k)])
    x0 = np.concatenate([np.full(p, 1.0 / p), np.full(k, 0.1)])
    solution = _solve_block(regressors[None], target[None], upper, x0[None])
    return int(solution.nit[0]), float(solution.f[0])


def recursive_forecast(model, history, neighbor_values, horizon):
    """One target's recursive forecast, clamped at zero, a Python float at a time.

    Each day adds the lag terms tau = 1..p and then the beta terms in source
    id order to 0.0; ``neighbor_values[u][h]`` is source u's value on day h.
    """
    p = len(model.alpha)
    buf = list(np.asarray(history, dtype=float)[-p:])
    preds = np.empty(horizon)
    for h in range(horizon):
        val = 0.0
        for tau in range(1, p + 1):
            val += model.alpha[tau - 1] * buf[-tau]
        for u, b in sorted(model.beta.items()):
            val += b * float(neighbor_values[u][h])
        val = max(0.0, val)
        preds[h] = val
        buf.append(val)
    return preds


def neighbor_values(dataset, models, config):
    """{source id: horizon values} for every source the models name, one source at a time.

    "forecast" mode gives a modeled source its own model's forecast over
    seasonal-naive neighbor values, and any other source its seasonal-naive
    forecast.
    """
    sources = sorted({u for m in models.values() for u in m.beta})
    train, test = split_series(dataset, sources, config)
    if config.neighbor_mode == "observed":
        return dict(zip(sources, test))
    m, h = config.m_star, config.horizon
    snaive = {u: np.array([y[-m + k % m] for k in range(h)]) for u, y in zip(sources, train)}
    return {u: recursive_forecast(models[u], y, snaive, h) if u in models else snaive[u]
            for u, y in zip(sources, train)}


def model_forecasts(dataset, models, config):
    """Each model's forecast, one row per video in id order."""
    video_ids = sorted(models)
    train, _ = split_series(dataset, video_ids, config)
    values = neighbor_values(dataset, models, config)
    return np.vstack([recursive_forecast(models[v], y, values, config.horizon)
                      for v, y in zip(video_ids, train)])


def contribution(dataset, models, result, config):
    """(eta, mean eta, same-artist share, each artist's total without network) one video at a time.

    A video's inflow adds beta times the source's horizon total, in source
    id order, to 0.0; eta is inflow over predicted total, clipped to [0, 1],
    and a video with a zero predicted total has none.
    """
    values = neighbor_values(dataset, models, config)
    artist_of = {vid: meta.artist_id for vid, meta in dataset.metadata.items()}
    eta, without = {}, defaultdict(float)
    same_artist = network_total = 0.0
    for i, vid in enumerate(result.video_ids):
        net = 0.0
        for u, b in sorted(models[vid].beta.items()):
            flow = b * float(np.asarray(values[u], dtype=float)[: config.horizon].sum())
            net += flow
            if artist_of[u] == artist_of[vid]:
                same_artist += flow
        total = float(result.y_pred[i].sum())
        if total != 0:
            eta[vid] = float(np.clip(net / total, 0.0, 1.0))
        network_total += net
        without[artist_of[vid]] += max(0.0, float(result.y_true[i].sum()) - net)
    share = same_artist / network_total if network_total else 0.0
    return eta, float(np.mean(list(eta.values()))) if eta else None, share, dict(without)


# ---------------------------------------------------------------------------
# the generator: views one video at a time, lists one (day, source) at a time


def simulate_views(base, profile, alpha, edges, noise):
    """``datagen._simulate_views`` without its overflow check."""
    days, n = noise.shape
    incoming = {}
    for src, dst, beta in edges:
        incoming.setdefault(dst, []).append((src, beta))
    y = np.zeros((days, n))
    for t in range(days):
        for v in range(n):
            val = base[v] * profile[v, t % 7]
            for tau in range(1, 8):
                if t - tau >= 0:
                    val += alpha[tau - 1] * y[t - tau, v]
            for u, beta in incoming.get(v, ()):
                val += beta * y[t, u]
            val += noise[t, v]
            y[t, v] = np.rint(max(0.0, val))
    return y


def place_lists(rng, edge_src, edge_dst, days, presence_prob):
    """``datagen._place_lists``: (day, source, target, position) rows, drawn source by source."""
    day_col, src_col, tgt_col, pos_col = ([np.zeros(0, dtype=np.int64)] for _ in range(4))
    for t in range(days):
        if presence_prob >= 1.0:
            src, dst = edge_src, edge_dst
        else:
            present = rng.random(edge_src.size) < presence_prob
            src, dst = edge_src[present], edge_dst[present]
        starts = np.flatnonzero(np.diff(src, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [src.size]):
            # Shuffle k targets onto k of the relevant-list slots 1..max(15, k).
            slots = rng.permutation(np.arange(1, max(15, b - a) + 1))[: b - a]
            tgt_col.append(dst[a:b][rng.permutation(b - a)])
            pos_col.append(np.sort(slots))
        day_col.append(np.full(src.size, t))
        src_col.append(src)
    return tuple(map(np.concatenate, (day_col, src_col, tgt_col, pos_col)))


def snapshot_table(names, day, src, tgt, pos, kind):
    """``SnapshotTable.from_codes`` without the id check: ids by ``sorted``, rows by ``lexsort``."""
    order = sorted(range(len(names)), key=names.__getitem__)
    recode = np.empty(len(names), dtype=np.int32)
    recode[order] = np.arange(len(names), dtype=np.int32)
    ids = np.array([names[i] for i in order], dtype=str)
    src, tgt = recode[src], recode[tgt]
    rows = np.lexsort((pos, src, kind, day))
    return SnapshotTable(ids, np.asarray(day, dtype=np.int32)[rows], src[rows], tgt[rows],
                         np.asarray(pos, dtype=np.int32)[rows], np.asarray(kind, dtype=np.int8)[rows])


def paired_lists(rng, kernel, n_pairs):
    """``datagen.generate_paired_lists`` on ``rng``: one searchsorted per pair, one f-string per name."""
    k = np.asarray(kernel, dtype=float)
    bins = datagen.BINS
    rank = np.arange(n_pairs) % k.shape[0] + 1
    cumulative = np.cumsum(k, axis=1)
    shown = np.zeros((n_pairs, bins[-1][1]), dtype=bool)
    for i in range(n_pairs):
        chosen_bin = int(np.searchsorted(cumulative[rank[i] - 1], rng.random(), side="right"))
        if chosen_bin < len(bins):
            lo, hi = bins[chosen_bin]
            shown[i, rng.integers(lo, hi + 1) - 1] = True
    pair, slot = np.nonzero(~shown)
    names = [f"f{i:07d}p{p + 1:02d}" for i, p in zip(pair.tolist(), slot.tolist())]
    names += [f"{c}{i:07d}" for c in "st" for i in range(n_pairs)]
    source = len(pair) + np.arange(n_pairs)
    target = source + n_pairs
    filler = np.cumsum(~shown).reshape(shown.shape) - 1
    rows = 1 + shown.shape[1]
    table = snapshot_table(
        names,
        np.arange(n_pairs).repeat(rows) // datagen.PAIRS_PER_DAY,
        source.repeat(rows),
        np.column_stack([target, np.where(shown, target[:, None], filler)]).ravel(),
        np.column_stack([rank, np.tile(np.arange(1, rows), (n_pairs, 1))]).ravel(),
        np.tile(np.minimum(np.arange(rows), 1), n_pairs),
    )
    n_days = (n_pairs + datagen.PAIRS_PER_DAY - 1) // datagen.PAIRS_PER_DAY
    return DynamicNetwork(ObservationWindow(datagen.START_DATE, n_days), table)
