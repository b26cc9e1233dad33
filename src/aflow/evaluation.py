"""Forecast accuracy and network-contribution reporting.

SMAPE here is the symmetric absolute percentage error in its 0..200 form:
200/T * sum |y - yhat| / (|y| + |yhat|), with a both-zero term counted as a
perfect 0.  Overall model scores are grand means over per-video scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .data_model import DataFormatError, Dataset
from .forecast import ArnetModel, ForecastConfig, ForecastResult, _beta_terms, _source_values
from .stats import average_ranks

OUTLIER_BINS = 10  # equal-width pct_without bins of outlier_artists


def smape(
    y_true: Sequence[float] | np.ndarray,
    y_pred: Sequence[float] | np.ndarray,
    mode: str | None = None,
) -> float | np.ndarray:
    """SMAPE in [0, 200]; 1-D inputs give a scalar.

    For 2-D inputs (videos x horizon), ``mode="per_video"`` averages along
    rows, ``mode="per_horizon"`` along columns, and ``mode=None`` over
    everything.
    """
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.shape != yp.shape or yt.size == 0:
        raise DataFormatError("SMAPE needs two equal-shape non-empty arrays")
    num = np.abs(yt - yp)
    den = np.abs(yt) + np.abs(yp)
    terms = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    if mode is None:
        return float(200.0 * terms.mean())
    if yt.ndim != 2:
        raise DataFormatError("per-video / per-horizon SMAPE needs a 2-D array")
    if mode == "per_video":
        return 200.0 * terms.mean(axis=1)
    if mode == "per_horizon":
        return 200.0 * terms.mean(axis=0)
    raise DataFormatError(f"unknown SMAPE mode {mode!r}")


@dataclass(frozen=True, eq=False)
class EvalReport:
    per_video: Mapping[str, float]
    per_horizon: tuple[float, ...]
    overall: float


def evaluate_forecasts(result: ForecastResult) -> EvalReport:
    """Per-video, per-horizon and overall SMAPE for one model run."""
    pv = smape(result.y_true, result.y_pred, mode="per_video")
    ph = smape(result.y_true, result.y_pred, mode="per_horizon")
    per_video = {vid: float(s) for vid, s in zip(result.video_ids, pv)}
    return EvalReport(per_video, tuple(float(s) for s in ph), float(pv.mean()))


def _network_views(row: np.ndarray, flow: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each video's networked views, the bincount of the flows ``flow[k]`` of its rows ``row[k]``,
    in table order from 0.0; which videos have a nonzero predicted total; and their eta."""
    networked = np.bincount(row, weights=flow, minlength=len(y_pred))
    total = y_pred.sum(axis=1)
    defined = total != 0
    return networked, defined, np.clip(networked[defined] / total[defined], 0.0, 1.0)


def _sequential_sum(values: np.ndarray) -> float:
    """``values`` added one by one in order from 0.0, as a loop would; ``np.sum`` sums pairwise."""
    return float(np.bincount(np.zeros(values.size, dtype=np.intp), weights=values, minlength=1)[0])


def network_contribution(
    model: ArnetModel,
    neighbor_values: Mapping[str, Sequence[float] | np.ndarray],
    predictions: Sequence[float] | np.ndarray,
) -> float:
    """Share of a video's predicted views that flows in over network terms: ``contribution_report``'s eta.

    Numerator: beta times the in-neighbor's values summed over the prediction days, added up
    over the in-neighbors in id order; denominator: sum of the video's predictions.  Always
    within [0, 1] because every prediction is at least its own network term.
    """
    preds = np.asarray(predictions, dtype=float)
    sources = sorted(model.beta)
    row, source, beta = _beta_terms([model], sources)
    totals = np.array([np.asarray(neighbor_values[u], dtype=float)[: preds.size].sum() for u in sources])
    _, defined, eta = _network_views(row, beta * totals[source], preds[None, :])
    if not defined[0]:
        raise DataFormatError(f"{model.video_id}: zero predicted total")
    return float(eta[0])


@dataclass(frozen=True)
class ArtistRow:
    """One artist's horizon totals and percentile ranks with/without network views."""

    artist_id: str
    total_with: float
    total_without: float
    pct_with: float
    pct_without: float
    pct_change: float


@dataclass(frozen=True, eq=False)
class ContributionReport:
    eta: Mapping[str, float]
    mean_eta: float
    same_artist_share: float
    artist_rows: tuple[ArtistRow, ...]


def _midrank_percentiles(values: np.ndarray) -> np.ndarray:
    """Percentile ranks via average mid-ranks: 100 * (midrank - 0.5) / n."""
    return 100.0 * (average_ranks(values) - 0.5) / values.size


def contribution_report(
    dataset: Dataset,
    models: Mapping[str, ArnetModel],
    result: ForecastResult,
    config: ForecastConfig,
) -> ContributionReport:
    """Network contribution per video plus artist-level percentile shifts.

    ``result`` holds the models' forecasts over the ``config.horizon`` test
    days, one row per model.  Every beta term's flow is its beta times its
    source's horizon total (see ``forecast._source_values``), and a video's
    networked views are the ``bincount`` of its flows, in the same
    (target, source id) order the forecasts use.  Eta is networked views
    over predicted total; videos with a zero predicted total are left out of
    the eta map.  Artist totals aggregate observed views over the evaluated
    videos; the "without network" variant subtracts each video's networked
    views, clamped at zero.  Percentile changes sum to zero by construction.
    """
    sources, values = _source_values(dataset, models, config)
    row, source, beta = _beta_terms([models[v] for v in result.video_ids], sources)
    flow = beta * values.sum(axis=1)[source]
    networked, defined, eta_values = _network_views(row, flow, result.y_pred)
    if not defined.any():
        raise DataFormatError("no video produced a defined network contribution")
    eta = dict(zip(compress(result.video_ids, defined), eta_values.tolist()))

    artist_of = {vid: meta.artist_id for vid, meta in dataset.metadata.items()}
    target_artist = np.array([artist_of[vid] for vid in result.video_ids], dtype=object)
    source_artist = np.array([artist_of[u] for u in sources], dtype=object)
    same = source_artist[source] == target_artist[row]
    network_total = _sequential_sum(networked)
    same_artist_share = _sequential_sum(flow[same]) / network_total if network_total else 0.0

    artists, codes = np.unique(target_artist, return_inverse=True)
    observed = result.y_true.sum(axis=1)
    with_totals = np.bincount(codes, weights=observed, minlength=len(artists))
    without = np.fmax(observed - networked, 0.0)  # as max(0.0, x): 0 for a NaN difference
    without_totals = np.bincount(codes, weights=without, minlength=len(artists))
    pct_with = _midrank_percentiles(with_totals)
    pct_without = _midrank_percentiles(without_totals)
    rows = tuple(
        ArtistRow(
            artist_id=a,
            total_with=float(with_totals[k]),
            total_without=float(without_totals[k]),
            pct_with=float(pct_with[k]),
            pct_without=float(pct_without[k]),
            pct_change=float(pct_with[k] - pct_without[k]),
        )
        for k, a in enumerate(artists)
    )
    mean_eta = float(eta_values.mean())
    return ContributionReport(eta, mean_eta, same_artist_share, rows)


def outlier_artists(rows: Sequence[ArtistRow]) -> list[str]:
    """Artists whose percentile change is a Tukey outlier within its decile.

    Rows are binned by pct_without into ``OUTLIER_BINS`` equal-width bins over
    [0, 100]; a row is an outlier when its pct_change falls outside 1.5 IQR
    beyond its bin's quartiles.
    """
    binned: dict[int, list[ArtistRow]] = {}
    for row in rows:
        b = min(int(row.pct_without / (100.0 / OUTLIER_BINS)), OUTLIER_BINS - 1)
        binned.setdefault(b, []).append(row)
    flagged: list[str] = []
    for b in sorted(binned):
        changes = np.array([r.pct_change for r in binned[b]])
        q1, q3 = np.percentile(changes, [25, 75])
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        for r in binned[b]:
            if r.pct_change < lo or r.pct_change > hi:
                flagged.append(r.artist_id)
    return sorted(flagged)
