"""Forecast accuracy and network-contribution reporting.

SMAPE here is the symmetric absolute percentage error in its 0..200 form:
200/T * sum |y - yhat| / (|y| + |yhat|), with a both-zero term counted as a
perfect 0.  Overall model scores are grand means over per-video scores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_model import DataFormatError, Dataset
from .forecast import ArnetModel, ForecastConfig, ForecastResult, resolve_neighbor_values
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


def _inflows(model: ArnetModel, neighbor_values: Mapping[str, Sequence[float] | np.ndarray],
             days: int) -> list[float]:
    """Per beta term: beta times the neighbor's values summed over the first ``days`` days."""
    return [b * float(np.asarray(neighbor_values[u], dtype=float)[:days].sum())
            for u, b in model.beta.items()]


def _eta(video_id: str, inflow: float, predictions: np.ndarray) -> float:
    den = float(predictions.sum())
    if den == 0:
        raise DataFormatError(f"{video_id}: zero predicted total")
    return float(np.clip(inflow / den, 0.0, 1.0))


def network_contribution(
    model: ArnetModel,
    neighbor_values: Mapping[str, Sequence[float] | np.ndarray],
    predictions: Sequence[float] | np.ndarray,
) -> float:
    """Share of a video's predicted views that flows in over network terms.

    Numerator: sum over horizon days and in-neighbors of beta * neighbor
    value; denominator: sum of the video's predictions.  Always within
    [0, 1] because every prediction is at least its own network term.
    """
    preds = np.asarray(predictions, dtype=float)
    inflow = 0.0
    for flow in _inflows(model, neighbor_values, preds.size):
        inflow += flow
    return _eta(model.video_id, inflow, preds)


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
    days, one row per model, and eta and the networked views share one
    inflow sum over them.  Artist totals aggregate observed views over the
    evaluated videos; the "without network" variant subtracts each video's
    networked views, clamped at zero.  Percentile changes sum to zero by
    construction.  Videos with a zero predicted total are left out of the eta
    map.
    """
    neighbor_values = resolve_neighbor_values(dataset, models, config)
    artist_of = {vid: meta.artist_id for vid, meta in dataset.metadata.items()}

    eta: dict[str, float] = {}
    networked = np.zeros(len(result.video_ids))
    same_artist_num = network_total = 0.0
    for i, vid in enumerate(result.video_ids):
        model = models[vid]
        net = 0.0
        for u, flow in zip(model.beta, _inflows(model, neighbor_values[vid], config.horizon)):
            net += flow
            if artist_of[u] == artist_of[vid]:
                same_artist_num += flow
        try:
            eta[vid] = _eta(vid, net, result.y_pred[i])
        except DataFormatError:
            pass
        networked[i] = net
        network_total += net
    if not eta:
        raise DataFormatError("no video produced a defined network contribution")
    same_artist_share = same_artist_num / network_total if network_total else 0.0

    artists = sorted({artist_of[vid] for vid in result.video_ids})
    code = {a: k for k, a in enumerate(artists)}
    codes = [code[artist_of[vid]] for vid in result.video_ids]
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
    mean_eta = float(np.mean(list(eta.values())))
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
