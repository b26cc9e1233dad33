"""Synthetic dataset generation with planted ground truth.

Videos are indexed 0..n-1 and links only run from lower to higher index, so
the true influence graph is a DAG and views can be generated in one pass per
day.  Each video's daily views follow

    y_v[t] = rint(max(0, base_v * s_v[t mod 7]
                          + sum_tau alpha[tau] * y_v[t - tau]
                          + sum_{(u,v)} beta_uv * y_u[t]
                          + noise))

with a per-video sinusoidal weekly profile s_v at a random phase.  Snapshot
edges mirror the true graph, each present on a given day with probability
``presence_prob``; targets land on shuffled relevant-list positions.
Everything is driven by one seeded generator: equal seeds give byte-identical
exports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping

import numpy as np

from .data_model import (
    DataFormatError,
    Dataset,
    DynamicNetwork,
    NumericalError,
    ObservationWindow,
    SnapshotTable,
    VideoMeta,
    ViewTable,
    serialize_metadata,
    serialize_snapshots,
    serialize_views,
    validate_dataset,
)
from .list_alignment import PositionBins

START_DATE = date(2018, 9, 1)
GENRE_POOL = ("g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7")
VALUE_CEILING = 1e15


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs.

    The default layout links random low-to-high index pairs at
    ``edge_density``.  Structured layouts override that: ``edges`` plants an
    explicit (source index, target index, beta) list, while
    ``in_edges_per_target`` gives every video from ``n_sources`` upward that
    many incoming links drawn from the first ``n_sources`` videos.
    """

    n_videos: int = 60
    n_artists: int = 12
    days: int = 63
    base_level_range: tuple[float, float] = (200.0, 2000.0)
    seasonal_amplitude: float = 0.3
    noise_scale: float = 5.0
    edge_density: float = 0.02
    presence_prob: float = 1.0
    seed: int = 0
    alpha_profile: tuple[float, ...] = (0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3)
    beta_range: tuple[float, float] = (0.2, 0.8)
    n_sources: int | None = None
    in_edges_per_target: int | None = None
    edges: tuple[tuple[int, int, float], ...] | None = None
    base_levels: tuple[float, ...] | None = None
    phases: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n_videos < 2 or self.n_artists < 1 or self.days < 1:
            raise DataFormatError("need at least 2 videos, 1 artist and 1 day")
        if not 0.0 <= self.edge_density <= 1.0:
            raise DataFormatError("edge density outside [0, 1]")
        if not 0.0 <= self.presence_prob <= 1.0:
            raise DataFormatError("presence probability outside [0, 1]")
        if self.seasonal_amplitude < 0 or self.noise_scale < 0:
            raise DataFormatError("amplitude and noise scale must be non-negative")
        if len(self.alpha_profile) != 7 or any(a < 0 for a in self.alpha_profile):
            raise DataFormatError("alpha profile must be 7 non-negative lags")
        if self.base_levels is not None and len(self.base_levels) != self.n_videos:
            raise DataFormatError("base_levels length must match n_videos")
        if self.phases is not None and len(self.phases) != self.n_videos:
            raise DataFormatError("phases length must match n_videos")
        for name in ("noise_scale", "seasonal_amplitude", "base_level_range", "beta_range",
                     "alpha_profile", "base_levels", "phases"):
            if not np.isfinite(getattr(self, name) or ()).all():
                raise DataFormatError(f"{name} must hold only finite values")


@dataclass(frozen=True)
class GroundTruth:
    """Planted parameters: per-video lag profile and per-edge weights."""

    alpha: Mapping[str, tuple[float, ...]]
    beta: Mapping[tuple[str, str], float]
    presence_prob: float

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.beta))


def _video_id(i: int) -> str:
    return f"v{i:05d}"


def _draw_edges(config: GenConfig, rng: np.random.Generator) -> list[tuple[int, int, float]]:
    lo, hi = config.beta_range
    if config.edges is not None:
        out = []
        for src, dst, beta in config.edges:
            if not 0 <= src < dst < config.n_videos:
                raise DataFormatError(f"edge ({src}, {dst}) must run low to high index")
            if not 0.0 <= beta <= 1.0:
                raise DataFormatError(f"edge weight {beta} outside [0, 1]")
            out.append((int(src), int(dst), float(beta)))
        if len({(src, dst) for src, dst, _ in out}) < len(out):
            raise DataFormatError("an edge is planted more than once")
        return sorted(out)
    if config.in_edges_per_target is not None:
        n_sources = config.n_sources if config.n_sources is not None else config.n_videos // 2
        if not 0 < n_sources < config.n_videos:
            raise DataFormatError("n_sources must leave at least one target")
        if config.in_edges_per_target > n_sources:
            raise DataFormatError("more in-edges requested than sources available")
        out = []
        for dst in range(n_sources, config.n_videos):
            srcs = rng.choice(n_sources, size=config.in_edges_per_target, replace=False)
            betas = rng.uniform(lo, hi, size=config.in_edges_per_target)
            out.extend((int(s), dst, float(b)) for s, b in zip(np.sort(srcs), betas))
        return sorted(out)
    mask = rng.random((config.n_videos, config.n_videos)) < config.edge_density
    src, dst = np.nonzero(np.triu(mask, 1))  # the i < j pairs in row-major order
    betas = rng.uniform(lo, hi, size=src.size)
    return list(zip(src.tolist(), dst.tolist(), betas.tolist()))


def generate(config: GenConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a validated dataset plus the parameters that produced it."""
    rng = np.random.default_rng(config.seed)
    n, days = config.n_videos, config.days
    ids = [_video_id(i) for i in range(n)]
    window = ObservationWindow(START_DATE, days)

    artists = [f"a{i % config.n_artists:04d}" for i in range(n)]
    genre_counts = rng.integers(1, 4, size=n)
    genre_picks = [rng.choice(len(GENRE_POOL), size=int(k), replace=False) for k in genre_counts]
    upload_offsets = rng.integers(30, 3000, size=n)
    metadata = {
        ids[i]: VideoMeta(
            ids[i],
            artists[i],
            frozenset(GENRE_POOL[g] for g in genre_picks[i]),
            START_DATE - timedelta(days=int(upload_offsets[i])),
        )
        for i in range(n)
    }

    edge_list = _draw_edges(config, rng)
    incoming: dict[int, list[tuple[int, float]]] = {}
    for src, dst, beta in edge_list:
        incoming.setdefault(dst, []).append((src, beta))

    if config.base_levels is not None:
        base = np.asarray(config.base_levels, dtype=float)
    else:
        base = rng.uniform(*config.base_level_range, size=n)
    if config.phases is not None:
        phase = np.asarray(config.phases, dtype=float)
    else:
        phase = rng.uniform(0.0, 7.0, size=n)
    weekday = np.arange(7)
    profile = np.maximum(
        0.05, 1.0 + config.seasonal_amplitude * np.sin(2 * math.pi * (weekday[None, :] + phase[:, None]) / 7.0)
    )
    noise = (
        rng.normal(0.0, config.noise_scale, size=(days, n))
        if config.noise_scale > 0
        else np.zeros((days, n))
    )

    alpha = np.asarray(config.alpha_profile, dtype=float)
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
    if y.max() > VALUE_CEILING:
        raise NumericalError("generated views overflow; lower alpha/beta or base levels")

    names = np.array(ids, dtype=str)
    order = np.argsort(names)  # the identity below 100,000 videos, as the ids are zero-padded
    starts, bounds = np.full(n, START_DATE.toordinal(), dtype=np.int64), np.arange(n + 1, dtype=np.int64) * days
    views = ViewTable(names[order], starts, bounds, y.T[order].astype(np.int64).ravel())

    # Edges come sorted by source, so each source's targets are one run.
    edge_src = np.array([e[0] for e in edge_list], dtype=np.int64)
    edge_dst = np.array([e[1] for e in edge_list], dtype=np.int64)
    day_col, src_col, tgt_col, pos_col = ([np.zeros(0, dtype=np.int64)] for _ in range(4))
    for t in range(days):
        if config.presence_prob >= 1.0:
            src, dst = edge_src, edge_dst
        else:
            present = rng.random(len(edge_list)) < config.presence_prob
            src, dst = edge_src[present], edge_dst[present]
        starts = np.flatnonzero(np.diff(src, prepend=-1)).tolist()
        for a, b in zip(starts, starts[1:] + [src.size]):
            # Shuffle k targets onto k of the relevant-list slots 1..max(15, k).
            slots = rng.permutation(np.arange(1, max(15, b - a) + 1))[: b - a]
            tgt_col.append(dst[a:b][rng.permutation(b - a)])
            pos_col.append(np.sort(slots))
        day_col.append(np.full(src.size, t))
        src_col.append(src)
    day, src, tgt, pos = map(np.concatenate, (day_col, src_col, tgt_col, pos_col))
    table = SnapshotTable.from_codes(ids, day, src, tgt, pos, np.zeros(day.size, dtype=np.int8))
    network = DynamicNetwork(window, table)

    dataset = validate_dataset(metadata, views, network)
    truth = GroundTruth(
        alpha={vid: tuple(config.alpha_profile) for vid in ids},
        beta={(ids[s], ids[d]): b for s, d, b in edge_list},
        presence_prob=config.presence_prob,
    )
    return dataset, truth


def generate_paired_lists(
    kernel: np.ndarray,
    n_pairs: int,
    seed: int = 0,
    bins: PositionBins | None = None,
    pairs_per_day: int = 2000,
) -> DynamicNetwork:
    """Snapshots with matched relevant/recommended lists for alignment tests.

    ``kernel[r-1][b]`` is the probability that the single tracked entry at
    relevant rank r is displayed inside recommended-position bin b; leftover
    row mass means "not displayed".  Each (day, source) carries one tracked
    relevant entry and a full 15-slot recommended list padded with fillers,
    so the empirical display matrix is an unbiased binomial estimate of the
    kernel.
    """
    k = np.asarray(kernel, dtype=float)
    bins = bins or PositionBins()
    if k.ndim != 2 or k.shape[1] != len(bins.ranges):
        raise DataFormatError("kernel columns must match the position bins")
    if np.any(k < 0) or np.any(k.sum(axis=1) > 1.0 + 1e-12):
        raise DataFormatError("kernel rows must be sub-probability vectors")
    if n_pairs < 1 or pairs_per_day < 1:
        raise DataFormatError("need positive pair counts")

    rng = np.random.default_rng(seed)
    rank = np.arange(n_pairs) % k.shape[0] + 1
    cumulative = np.cumsum(k, axis=1)
    shown = np.zeros((n_pairs, bins.max_position), dtype=bool)  # the tracked entry's slot
    for i in range(n_pairs):
        chosen_bin = int(np.searchsorted(cumulative[rank[i] - 1], rng.random(), side="right"))
        if chosen_bin < len(bins.ranges):
            lo, hi = bins.ranges[chosen_bin]
            shown[i, rng.integers(lo, hi + 1) - 1] = True

    # Codes: fillers in (pair, position) order, then sources, then targets.  That
    # is also id order, so the vocabulary sort in from_codes runs in linear time.
    pair, slot = np.nonzero(~shown)
    names = [f"f{i:07d}p{p + 1:02d}" for i, p in zip(pair.tolist(), slot.tolist())]
    names += [f"{c}{i:07d}" for c in "st" for i in range(n_pairs)]
    source = len(pair) + np.arange(n_pairs)
    target = source + n_pairs
    filler = np.cumsum(~shown).reshape(shown.shape) - 1
    rows = 1 + bins.max_position  # per pair: the relevant entry, then a full recommended list
    table = SnapshotTable.from_codes(
        names,
        np.arange(n_pairs).repeat(rows) // pairs_per_day,
        source.repeat(rows),
        np.column_stack([target, np.where(shown, target[:, None], filler)]).ravel(),
        np.column_stack([rank, np.tile(np.arange(1, rows), (n_pairs, 1))]).ravel(),
        np.tile(np.minimum(np.arange(rows), 1), n_pairs),  # kind 0 relevant, 1 recommended
    )
    n_days = (n_pairs + pairs_per_day - 1) // pairs_per_day
    return DynamicNetwork(ObservationWindow(START_DATE, n_days), table)


def export_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write the three canonical CSVs; returns the paths keyed by file kind."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "snapshots": out / "snapshots.csv",
        "views": out / "views.csv",
        "metadata": out / "metadata.csv",
    }
    paths["snapshots"].write_text(serialize_snapshots(dataset.network), encoding="utf-8")
    paths["views"].write_text(serialize_views(dataset.views), encoding="utf-8")
    paths["metadata"].write_text(serialize_metadata(dataset.metadata), encoding="utf-8")
    return paths


def ground_truth_to_json(truth: GroundTruth) -> dict:
    """JSON-friendly ground-truth layout with string edge keys."""
    return {
        "alpha": {vid: list(profile) for vid, profile in sorted(truth.alpha.items())},
        "beta": {f"{src}->{dst}": b for (src, dst), b in sorted(truth.beta.items())},
        "presence_prob": truth.presence_prob,
    }
