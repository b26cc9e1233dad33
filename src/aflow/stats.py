"""Series preprocessing and the statistical measures used across analyses.

The preprocessing pipeline mirrors the common forecasting-competition recipe:
a seasonality test on the autocorrelation at the seasonal lag, classical
decomposition to strip the weekly pattern when present, ordinary
least-squares detrending, and z-normalization.  Correlations are computed on
the resulting residual series only.  Both run over the rows of a 2-D array,
and a row's numbers depend on that row alone, so a one-series call and a
batch agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_model import DataFormatError, Dataset, NumericalError
# Re-exported for the benchmark's tracer only; nothing in src/ or tests/ looks it up here.
from .graph_analysis import build_graph  # noqa: F401
from .graph_analysis import daily_link_presence
from .persistence import ViewFilters

SIGNIFICANCE_LEVEL = 0.05
PERIOD = 7  # the seasonal lag, in days: views follow a weekly cycle
# correlated_link_fractions gathers and correlates at most this many rows or
# row pairs at a time, which bounds its temporaries; it never changes a number.
BLOCK_ROWS = 256
# _beta_fraction: Lentz's floor for a vanishing denominator, the step size
# that ends a row, and the most steps any row may take.
_FRACTION_TINY = 1e-300
_FRACTION_EPS = float(np.finfo(float).eps)
_FRACTION_STEPS = 10_000


def residual_rows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-normalized residuals of each row of ``y``, with its seasonal and additive flags.

    A row is seasonal when its lag-``PERIOD`` autocorrelation passes the 90%
    test |acf(PERIOD)| > 1.645 * sqrt((1 + 2 * sum of squared lower-lag
    acfs) / n); a constant row never is.  A seasonal row is divided by its
    classical-decomposition indices, each phase's mean ratio to the centred
    moving average; a row that touches zero or goes negative has no ratios
    and subtracts mean differences instead (additive).  Every row is then
    detrended by least squares and z-normalized.  A row that is flat after
    the fit gives zeros rather than dividing by a vanishing standard
    deviation.  Rows shorter than 3 periods are rejected.
    """
    m, n = y.shape
    if n < 3 * PERIOD:
        raise DataFormatError(f"series of length {n} too short for period {PERIOD}")
    dev = y - y.mean(axis=1, keepdims=True)
    denom = (dev * dev).sum(axis=1)
    phase = np.arange(n) % PERIOD
    valid = n - PERIOD + 1  # centred moving averages start at PERIOD // 2
    start = PERIOD // 2
    with np.errstate(invalid="ignore", divide="ignore"):  # rows the masks below discard
        acf = np.stack([(dev[:, lag:] * dev[:, :-lag]).sum(axis=1)
                        for lag in range(1, PERIOD + 1)], axis=1) / denom[:, None]
        limit = 1.645 * np.sqrt((1 + 2 * (acf[:, :-1] ** 2).sum(axis=1)) / n)
        seasonal = (denom != 0) & (np.abs(acf[:, -1]) > limit)
        additive = (seasonal & (y <= 0).any(axis=1))[:, None]

        trend = sum(y[:, k : k + valid] for k in range(PERIOD)) / PERIOD
        mid = y[:, start : start + valid]
        padded = np.zeros((m, -(-n // PERIOD) * PERIOD))
        padded[:, start : start + valid] = np.where(additive, mid - trend, mid / trend)
        counts = np.bincount(phase[start : start + valid], minlength=PERIOD)
        indices = padded.reshape(m, -1, PERIOD).sum(axis=1) / counts
        centre = indices.mean(axis=1, keepdims=True)
        tiled = np.where(additive, indices - centre, indices / centre)[:, phase]
        work = np.where(seasonal[:, None], np.where(additive, y - tiled, y / tiled), y)

    t = np.arange(n) - (n - 1) / 2
    level = work.mean(axis=1, keepdims=True)
    slope = ((work - level) * t).sum(axis=1, keepdims=True) / float(t @ t)
    resid = work - (level + slope * t)
    sd = resid.std(axis=1)
    flat = sd <= 1e-12 * np.maximum(1.0, np.abs(resid).max(axis=1))
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (resid - resid.mean(axis=1, keepdims=True)) / sd[:, None]
    z[flat] = 0.0
    return z, seasonal, additive[:, 0]


def pearson_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson r of each row of ``x`` with the same row of ``y``, and its two-sided p-value.

    p is :func:`pearson_p` on n-2 degrees of freedom, so |r| = 1 gives
    p = 0.  A zero-variance row gives r = p = nan.
    """
    r = _pearson_r(x, y)
    return r, pearson_p(r, x.shape[1] - 2)


def _pearson_r(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson r of each row pair, clipped to [-1, 1]; nan for a zero-variance row."""
    xd = x - x.mean(axis=1, keepdims=True)
    yd = y - y.mean(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (xd * yd).sum(axis=1) / (np.sqrt((xd * xd).sum(axis=1)) * np.sqrt((yd * yd).sum(axis=1)))
    return np.clip(r, -1.0, 1.0)


def pearson_p(r: np.ndarray, df: int) -> np.ndarray:
    """Two-sided p-value of each Pearson r on ``df`` >= 1 degrees of freedom; nan stays nan.

    p = P(|T| >= t) for Student's T at t = |r| sqrt(df / (1 - r^2)), which is
    the regularised incomplete beta I_x(a, b) with a = df/2, b = 1/2 and
    x = df / (df + t^2) = 1 - r^2 (Abramowitz & Stegun, sections 26.5 and
    26.7).  Where x < (a + 1) / (a + b + 2) the continued fraction of I_x(a, b)
    converges fast and gives the tail itself, so a p far under 1e-16 keeps its
    digits rather than rounding to 0.  Above that point p is near 1 and is
    1 - I_{1-x}(b, a), by the fraction of the complement.  r = 0 gives 1 and
    |r| = 1 gives 0.  A row's p depends on its own r alone.
    """
    a, b = df / 2.0, 0.5
    p = np.full(r.shape, np.nan)
    ok = np.flatnonzero(~np.isnan(r))
    y = r[ok] * r[ok]  # 1 - x, without the cancellation of 1 - (1 - r^2) at small r
    swap = 1.0 - y > (a + 1.0) / (a + b + 2.0)
    first = np.where(swap, b, a)
    h = _beta_fraction(first, np.where(swap, a, b), np.where(swap, y, 1.0 - y))
    with np.errstate(divide="ignore"):  # log(0) at r = 0 and |r| = 1 gives the limits
        # x^a y^b / B(a, b) * h / first, in one exp
        log_front = a * np.log1p(-y) + b * np.log(y) - math.log(_beta_half(df))
        tail = np.exp(log_front + np.log(h / first))
    p[ok] = np.where(swap, 1.0 - tail, tail)
    return p


def _beta_half(df: int) -> float:
    """B(df/2, 1/2) as a product of ratios; lgamma differences lose digits as df grows."""
    m, odd = divmod(df, 2)
    if odd:  # B(m + 1/2, 1/2) = pi * prod (2k - 1) / 2k
        return math.prod(((2 * k - 1) / (2 * k) for k in range(1, m + 1)), start=math.pi)
    return math.prod((2 * k / (2 * k + 1) for k in range(1, m)), start=2.0)  # B(m, 1/2)


def _beta_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) (A&S 26.5.8) by Lentz's method, one value per row.

    A row leaves the loop at the step that converges it, so its value does
    not depend on the other rows.  Below x = (a + 1) / (a + b + 2) a row
    takes O(sqrt(max(a, b))) steps; a row still open after
    ``_FRACTION_STEPS`` raises.
    """
    def nonzero(v):
        return np.where(np.abs(v) < _FRACTION_TINY, _FRACTION_TINY, v)

    out = np.empty(x.shape)
    rows = np.arange(x.size)
    c = np.ones(x.shape)
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _FRACTION_STEPS + 1):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            h = h * (d * c)
        done = np.abs(d * c - 1.0) <= _FRACTION_EPS
        out[rows[done]] = h[done]
        if done.all():
            return out
        rows, a, b, x, c, d, h = (v[~done] for v in (rows, a, b, x, c, d, h))
    raise NumericalError(f"Student-t tail: continued fraction open after {_FRACTION_STEPS} steps")


def pearson_test(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Pearson correlation with a two-sided p-value: one row of :func:`pearson_rows`."""
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise DataFormatError("correlation inputs must be equal-length 1-D series")
    if xa.size < 3:
        raise DataFormatError("need at least 3 observations for a correlation test")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DataFormatError("correlation inputs must be finite")
    r, p = pearson_rows(xa[None, :], ya[None, :])
    if np.isnan(r[0]):
        raise DataFormatError("correlation of a zero-variance series is undefined")
    return float(r[0]), float(p[0])


@dataclass(frozen=True)
class LinkCorrelation:
    source: str
    target: str
    r: float
    p: float


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
    alpha: float = SIGNIFICANCE_LEVEL,
) -> dict[str, GroupCorrelation]:
    """Fraction of links per group whose residual series correlate (p < alpha).

    Residuals are computed once per video, over the ``window_views`` rows the
    groups use.  Each group's pairs are correlated in blocks and then tested
    in one :func:`pearson_p` call.  Pairs where either residual is undefined
    (a window under three periods) or degenerate (zero variance) count as not
    significant with r = p = nan.
    """
    pairs = {name: list(groups[name]) for name in sorted(groups)}
    codes: dict[str, np.ndarray] = {}
    for name, links in pairs.items():
        if not links:
            raise DataFormatError(f"link group {name!r} is empty")
        codes[name] = dataset.codes(v for pair in links for v in pair)
    used = np.unique(np.concatenate(list(codes.values())))
    views = dataset.window_views
    resid = np.full((used.size, views.shape[1]), np.nan)  # stays nan under three periods
    if views.shape[1] >= 3 * PERIOD:
        for at in range(0, used.size, BLOCK_ROWS):
            block = used[at : at + BLOCK_ROWS]
            resid[at : at + block.size] = residual_rows(views[block].astype(float))[0]

    out: dict[str, GroupCorrelation] = {}
    for name, links in pairs.items():
        rows = np.searchsorted(used, codes[name])
        src, tgt = rows[0::2], rows[1::2]
        r = np.empty(len(links))
        for at in range(0, len(links), BLOCK_ROWS):
            block = slice(at, at + BLOCK_ROWS)
            r[block] = _pearson_r(resid[src[block]], resid[tgt[block]])
        p = pearson_p(r, views.shape[1] - 2)
        n_sig = int((p < alpha).sum())
        tested = tuple(LinkCorrelation(*link, *row) for link, *row in zip(links, r.tolist(), p.tolist()))
        out[name] = GroupCorrelation(name, len(links), n_sig, n_sig / len(links), tested)
    return out


def sample_random_pairs(
    dataset: Dataset,
    n: int,
    seed: int,
    cutoff: int,
    filters: ViewFilters,
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
    return pearson_test(average_ranks(xa), average_ranks(ya))[0]


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
