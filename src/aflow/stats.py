"""Series preprocessing and the statistical measures used across analyses.

The preprocessing pipeline mirrors the common forecasting-competition recipe:
a seasonality test on the autocorrelation at the seasonal lag, classical
decomposition to strip the weekly pattern when present, ordinary
least-squares detrending, and z-normalization.  Correlations are computed on
the resulting residual series only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_model import DataFormatError, Dataset
# Re-exported for the benchmark's tracer only; nothing in src/ or tests/ looks it up here.
from .graph_analysis import build_graph  # noqa: F401
from .graph_analysis import daily_link_presence
from .persistence import ViewFilters, apply_view_filters

SIGNIFICANCE_LEVEL = 0.05


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


@dataclass(frozen=True, eq=False)
class ResidualSeries:
    """Z-normalized residuals with flags describing what was removed."""

    values: np.ndarray
    was_seasonal: bool
    additive_fallback: bool = False


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


def preprocess(values: Sequence[float] | np.ndarray, period: int = 7) -> ResidualSeries:
    """Deseasonalize (when seasonal), detrend, and z-normalize a series.

    Returns all-zero residuals for series that are constant after the linear
    fit rather than dividing by a vanishing standard deviation.
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
    return ResidualSeries(z, was_seasonal, additive)


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    xd = x - x.mean()
    yd = y - y.mean()
    sx = math.sqrt(float(np.dot(xd, xd)))
    sy = math.sqrt(float(np.dot(yd, yd)))
    if sx == 0 or sy == 0:
        raise DataFormatError("correlation of a zero-variance series is undefined")
    r = float(np.dot(xd, yd) / (sx * sy))
    return max(-1.0, min(1.0, r))


def pearson_test(
    x: ResidualSeries | Sequence[float] | np.ndarray,
    y: ResidualSeries | Sequence[float] | np.ndarray,
) -> tuple[float, float]:
    """Pearson correlation with a two-sided p-value from the t distribution.

    Uses t = r * sqrt((n-2) / (1-r^2)) on n-2 degrees of freedom; |r| = 1
    maps to p = 0.
    """
    xa = np.asarray(getattr(x, "values", x), dtype=float)
    ya = np.asarray(getattr(y, "values", y), dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise DataFormatError("correlation inputs must be equal-length 1-D series")
    n = xa.size
    if n < 3:
        raise DataFormatError("need at least 3 observations for a correlation test")
    r = _pearson_r(xa, ya)
    if abs(r) == 1.0:
        return r, 0.0
    t_stat = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
    # stdtr is the Student-t CDF that scipy.stats.t.sf evaluates; calling it
    # directly keeps scipy.stats out of the import graph, and importing it
    # here keeps scipy.special out of every command but correlate.
    from scipy.special import stdtr

    p = 2.0 * float(stdtr(n - 2, -t_stat))
    return r, min(1.0, p)


@dataclass(frozen=True)
class LinkCorrelation:
    source: str
    target: str
    r: float
    p: float
    significant: bool


@dataclass(frozen=True)
class GroupCorrelation:
    group: str
    n_links: int
    n_significant: int
    fraction: float
    links: tuple[LinkCorrelation, ...]


def correlated_link_fractions(
    groups: Mapping[str, Sequence[tuple[str, str]]],
    dataset: Dataset,
    period: int = 7,
    alpha: float = SIGNIFICANCE_LEVEL,
) -> dict[str, GroupCorrelation]:
    """Fraction of links per group whose residual series correlate (p < alpha).

    Residuals are preprocessed once per video.  Pairs where either residual
    is undefined (a window under three periods) or degenerate (zero variance)
    count as not significant with r = p = nan.
    """
    cache: dict[int, ResidualSeries] = {}

    def resid(code: int) -> ResidualSeries:
        if code not in cache:
            cache[code] = preprocess(dataset.window_views[code], period)
        return cache[code]

    out: dict[str, GroupCorrelation] = {}
    for name in sorted(groups):
        pairs = list(groups[name])
        if not pairs:
            raise DataFormatError(f"link group {name!r} is empty")
        codes = dataset.codes(v for pair in pairs for v in pair).tolist()
        rows: list[LinkCorrelation] = []
        n_sig = 0
        for (src, tgt), src_code, tgt_code in zip(pairs, codes[0::2], codes[1::2]):
            try:
                r, p = pearson_test(resid(src_code), resid(tgt_code))
                sig = p < alpha
            except DataFormatError:
                r, p, sig = float("nan"), float("nan"), False
            n_sig += int(sig)
            rows.append(LinkCorrelation(src, tgt, r, p, sig))
        out[name] = GroupCorrelation(name, len(rows), n_sig, n_sig / len(rows), tuple(rows))
    return out


def sample_random_pairs(
    dataset: Dataset,
    n: int,
    seed: int,
    cutoff: int = 15,
    filters: ViewFilters | None = None,
) -> list[tuple[str, str]]:
    """Sample distinct (source, target) pairs never linked in any snapshot.

    Pairs must pass the same view filters as persistence candidates so the
    group is comparable to the link groups.  A corpus with fewer than ``n``
    eligible never-linked pairs gives all of them, in sorted order, so the
    result is shorter than ``n``; a corpus with none raises.  Otherwise pairs
    are drawn by rejection sampling with a fixed attempt budget, and running
    out of it raises instead of looping forever.
    """
    if n < 1:
        raise DataFormatError("need a positive sample size")
    filters = filters or apply_view_filters(dataset)
    presence = daily_link_presence(dataset.network, dataset.corpus, cutoff)
    ids = presence.ids.tolist()
    size = len(ids)
    if size < 2:
        raise DataFormatError("corpus too small to sample pairs from")
    # Pairs are keyed i * size + j over corpus codes; a link forbids both directions.
    forbidden = set(np.concatenate((presence.src * size + presence.tgt,
                                    presence.tgt * size + presence.src)).tolist())
    means = filters.mean_views
    keys = _eligible_never_linked(means, forbidden, filters, n)
    if keys == []:
        raise DataFormatError(f"exhausted sampling budget with 0 of {n} pairs found")
    if keys is None:
        rng = np.random.default_rng(seed)
        drawn: dict[int, None] = {}  # keys in draw order; a repeat draw changes nothing
        mean = means.tolist()
        budget = max(1000, 50 * n)
        while len(drawn) < n:
            if budget == 0:
                raise DataFormatError(
                    f"exhausted sampling budget with {len(drawn)} of {n} pairs found"
                )
            budget -= 1
            i, j = rng.integers(0, size, size=2).tolist()
            key = i * size + j
            if i != j and key not in forbidden and filters.eligible(mean[i], mean[j]):
                drawn[key] = None
        keys = list(drawn)
    return [(ids[k // size], ids[k % size]) for k in keys]


def _eligible_never_linked(
    means: np.ndarray, forbidden: set[int], filters: ViewFilters, limit: int
) -> list[int] | None:
    """Keys of every pair ``sample_random_pairs`` may draw, sorted; None once ``limit`` are found.

    Enumerates ``filters.eligible`` without testing every pair: a target j
    needs a mean of at least ``target_min``, and its sources, visited in
    order of mean views, start at the first mean of at least ``source_frac``
    times j's.  So the work is bounded by ``limit`` plus the forbidden pairs
    and the targets, not by the square of the corpus.
    """
    size = means.size
    by_mean = np.argsort(means, kind="stable")
    sorted_means = means[by_mean]
    found: list[int] = []
    for j in np.flatnonzero(means >= filters.target_min).tolist():
        first = np.searchsorted(sorted_means, filters.source_frac * means[j], side="left")
        for i in by_mean[first:].tolist():
            key = i * size + j
            if i != j and key not in forbidden:
                found.append(key)
                if len(found) >= limit:
                    return None
    return sorted(found)


def gini(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient of a non-negative sample with a positive total."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DataFormatError("gini expects a non-empty 1-D sample")
    if np.any(x < 0):
        raise DataFormatError("gini is undefined for negative values")
    total = float(x.sum())
    if total == 0:
        raise DataFormatError("gini is undefined when all values are zero")
    xs = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1)
    return float(np.sum((2 * ranks - n - 1) * xs) / (n * total))


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation: Pearson correlation of average mid-ranks."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise DataFormatError("rank correlation inputs must be equal-length 1-D series")
    if xa.size < 3:
        raise DataFormatError("need at least 3 observations for a rank correlation")
    return _pearson_r(average_ranks(xa), average_ranks(ya))


def average_ranks(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their mean rank; all NaN if any value is NaN.

    The same values as ``scipy.stats.rankdata(values, method="average")``,
    without importing ``scipy.stats``.  Tied ranks are whole or half
    integers, so they are exact.
    """
    a = np.asarray(values, dtype=float)
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts_run = np.r_[True, ordered[1:] != ordered[:-1]]
    bounds = np.flatnonzero(np.r_[starts_run, True])  # run starts, then the size
    mean_rank = (bounds[:-1] + bounds[1:] + 1) / 2.0
    ranks = np.empty(a.shape)
    ranks[order] = mean_rank[np.cumsum(starts_run) - 1]
    return ranks
