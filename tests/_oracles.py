"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: Floyd-Warshall closures, quadratic
rank counting, numeric quadrature, link analyses that rebuild one
``build_graph`` per day or walk ``RankedList`` entries, and one ARNet fit at
a time by scipy's L-BFGS-B.  None of it shares code paths with the
implementations under test, except ``fixed_start_arnet``, which keeps the
package's solver and changes only its start point.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, defaultdict

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

from aflow.data_model import DataFormatError
from aflow.forecast import (SMOOTH_EPS, ArnetModel, FitDiagnostics, ForecastConfig,
                            _arnet_design, _solve_block)
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
                other = to_list.position_of(tgt)
                for b, (lo, hi) in enumerate(ranges):
                    if other is not None and lo <= other <= hi:
                        num[pos - 1, b] += 1
    return num, den


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
    y = np.asarray(series, dtype=float)
    neighbor_ids = sorted(neighbor_series)
    lags = np.column_stack([y[p - tau : y.size - tau] for tau in range(1, p + 1)])
    nb = np.zeros((y.size - p, len(neighbor_ids)))
    for j, u in enumerate(neighbor_ids):
        nb[:, j] = np.asarray(neighbor_series[u], dtype=float)[p:]
    fun = smape_objective(lags, nb, y[p:])
    x0 = np.concatenate([np.full(p, 1.0 / p), np.full(len(neighbor_ids), 0.1)])
    result = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * p + [(0.0, 1.0)] * len(neighbor_ids),
        options={"maxiter": config.max_iter, "maxcor": 10, "gtol": config.grad_tol,
                 "ftol": 1e-12},
    )
    x = result.x.copy()
    x[:p] = np.maximum(x[:p], 0.0)
    x[p:] = np.clip(x[p:], 0.0, 1.0)
    fit = FitDiagnostics(bool(result.success), int(result.nit), int(result.nfev),
                         float(result.fun), x.size, y.size - p, str(result.message).strip(),
                         fun(x0)[0])
    return ArnetModel(video_id, x[:p], {u: float(x[p + j]) for j, u in enumerate(neighbor_ids)}, fit)


def fixed_start_arnet(video_id, series, neighbor_series, config=None):
    """(nit, objective) of one ARNet fit by the package's own solver from the
    fixed start alpha = 1/p, beta = 0.1, as fits began before the ridge start.

    Unlike the rest of this module it reuses the package's ``_solve_block``,
    so that only the start point differs from ``fit_arnet``."""
    config = config or ForecastConfig()
    p = config.p
    _, regressors, target = _arnet_design(video_id, series, neighbor_series, p)
    k = regressors.shape[1] - p
    upper = np.concatenate([np.full(p, np.inf), np.ones(k)])
    x0 = np.concatenate([np.full(p, 1.0 / p), np.full(k, 0.1)])
    solution = _solve_block(regressors[None], target[None], upper, x0[None],
                            config.max_iter, config.grad_tol)
    return int(solution.nit[0]), float(solution.f[0])
