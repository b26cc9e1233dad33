"""Synthetic dataset generation with planted ground truth.

Videos are indexed 0..n-1 and links only run from lower to higher index, so
the true influence graph is a DAG.  Each video's daily views follow

    y_v[t] = rint(max(0, base_v * s_v[t mod 7]
                          + sum_tau alpha[tau] * y_v[t - tau]
                          + sum_{(u,v)} beta_uv * y_u[t]
                          + noise))

with a per-video sinusoidal weekly profile s_v at a random phase.  Each day
is simulated level by level: a video's level is 1 + the highest level among
its sources, so its sources' views are final before its own.  The terms are
added in the order written, tau = 1..7 and in-edges in edge-list order, so
the floats are those of a loop over one video at a time.  Snapshot edges
mirror the true graph, each present on a given day with probability
``presence_prob``; targets land on shuffled relevant-list positions, two
shuffles per (day, source).  Everything is driven by one seeded generator,
whose draws come in a fixed order (metadata, edges, base levels, phases,
noise, then per day the presence draws and the list shuffles): equal seeds give
byte-identical exports.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_model import (
    DATASET_FILES,
    SEED,
    WINDOW_DAYS,
    DataFormatError,
    Dataset,
    DynamicNetwork,
    NumericalError,
    ObservationWindow,
    SnapshotTable,
    VideoMeta,
    ViewTable,
    _row_order,
    serialize_metadata,
    serialize_snapshots,
    serialize_views,
    validate_dataset,
    write_text,
)
from .list_alignment import BINS

START_DATE = date(2018, 9, 1)
GENRE_POOL = ("g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7")
VALUE_CEILING = 1e15
BASE_LEVEL_RANGE = (200.0, 2000.0)  # a video's base level is drawn uniformly from it
PAIRS_PER_DAY = 2000  # (source, tracked entry) pairs per day of generate_paired_lists


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
    days: int = WINDOW_DAYS
    seasonal_amplitude: float = 0.3
    noise_scale: float = 5.0
    edge_density: float = 0.02
    presence_prob: float = 1.0
    seed: int = SEED
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
        for name in ("noise_scale", "seasonal_amplitude", "beta_range",
                     "alpha_profile", "base_levels", "phases"):
            if not np.isfinite(getattr(self, name) or ()).all():
                raise DataFormatError(f"{name} must hold only finite values")


@dataclass(frozen=True)
class GroundTruth:
    """Planted parameters: per-video lag profile and per-edge weights."""

    alpha: Mapping[str, tuple[float, ...]]
    beta: Mapping[tuple[str, str], float]
    presence_prob: float


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


def _simulate_views(
    base: np.ndarray, profile: np.ndarray, alpha: np.ndarray,
    edges: Sequence[tuple[int, int, float]], noise: np.ndarray,
) -> np.ndarray:
    """The (days, videos) float views of the recursion in the module docstring.

    ``edges`` holds sorted (source, target, beta) triples with source < target.
    A video's level is 1 + the highest level among its sources, or 0 without
    any, so a level's sources are final before it.  Each day adds the base and
    lag terms of every video at once; then, level by level, the j-th in-edge
    term of all the level's videos at once for j = 0, 1, ..., the noise and the
    clamp.  So every video gets the float operations, in the order, of a loop
    over one video at a time.  A day holding a value that is not finite, or
    views above ``VALUE_CEILING``, is a :class:`NumericalError`.
    """
    days, n = noise.shape
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    beta = np.array([e[2] for e in edges], dtype=float)
    by_target = np.argsort(dst, kind="stable")  # each target's in-edges keep their order
    src, dst, beta = src[by_target], dst[by_target], beta[by_target]
    level = [0] * n
    for u, v in zip(src.tolist(), dst.tolist()):
        level[v] = max(level[v], level[u] + 1)  # u's own in-edges come earlier, so level[u] is final
    level = np.array(level)
    rank = np.arange(dst.size) - np.searchsorted(dst, dst)  # j: the edge's place among its target's
    terms: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(level.max() + 1)]
    if dst.size:
        step = np.lexsort((rank, level[dst]))  # by (level, j), each run in target order
        cut = np.flatnonzero((np.diff(level[dst][step]) != 0) | (np.diff(rank[step]) != 0)) + 1
        for e in np.split(step, cut):
            terms[level[dst[e[0]]]].append((dst[e], src[e], beta[e]))
    videos = np.split(np.argsort(level, kind="stable"), np.cumsum(np.bincount(level))[:-1])

    y = np.empty((days, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(days):
            val = base * profile[:, t % 7]
            for tau in range(1, min(t, 7) + 1):
                val += alpha[tau - 1] * y[t - tau]
            for nodes, level_terms in zip(videos, terms):
                for targets, sources, weights in level_terms:
                    val[targets] += weights * y[t, sources]
                total = val[nodes] + noise[t, nodes]
                val[nodes] = total
                y[t, nodes] = np.rint(np.where(total > 0.0, total, 0.0))  # max(0.0, total), as Python's max
            if not np.isfinite(val).all() or y[t].max() > VALUE_CEILING:
                raise NumericalError("generated views overflow; lower alpha/beta or base levels")
    return y


def _place_lists(
    rng: np.random.Generator, edge_src: np.ndarray, edge_dst: np.ndarray, days: int, presence_prob: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The (day, source, target, position) snapshot rows of the planted edges.

    ``edge_src`` is sorted, so each source's targets are one run.  Each day an
    edge is present with ``presence_prob`` (one draw per edge, none at 1), and
    a source's k present targets go in a random order onto k random slots of
    1..max(15, k), sorted.  Per (day, source) the stream shuffles the slots,
    then the targets, as ``rng.permutation`` would; all else runs once a day.
    """
    shuffle = rng.shuffle
    day_col, src_col, tgt_col, pos_col = [], [], [], []
    for t in range(days):
        present = (np.arange(edge_src.size) if presence_prob >= 1.0
                   else np.flatnonzero(rng.random(edge_src.size) < presence_prob))
        src = edge_src[present]
        first = np.flatnonzero(np.diff(src, prepend=-1))
        k = np.diff(first, append=src.size)
        # per source, one after the other: slot draws 0..max(15, k) - 1, then target draws 0..k - 1
        size = np.column_stack([np.maximum(15, k), k]).ravel()
        start = np.cumsum(size) - size
        draws = np.arange(size.sum()) - np.repeat(start, size)
        for a, b in zip(start.tolist(), (start + size).tolist()):
            shuffle(draws[a:b])
        run = np.repeat(np.arange(k.size), k)
        nth = np.arange(src.size) - first[run]
        slots = draws[start[0::2][run] + nth] + 1
        order = draws[start[1::2][run] + nth]
        day_col.append(np.full(src.size, t))
        src_col.append(src)
        tgt_col.append(edge_dst[present[first[run] + order]])
        pos_col.append(slots[_row_order(run, slots)])
    return tuple(map(np.concatenate, (day_col, src_col, tgt_col, pos_col)))


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
            artists[i],
            frozenset(GENRE_POOL[g] for g in genre_picks[i]),
            START_DATE - timedelta(days=int(upload_offsets[i])),
        )
        for i in range(n)
    }

    edge_list = _draw_edges(config, rng)
    if config.base_levels is not None:
        base = np.asarray(config.base_levels, dtype=float)
    else:
        base = rng.uniform(*BASE_LEVEL_RANGE, size=n)
    if config.phases is not None:
        phase = np.asarray(config.phases, dtype=float)
    else:
        phase = rng.uniform(0.0, 7.0, size=n)
    weekday = np.arange(7)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge phase gives a NaN profile, which the views reject
        profile = np.maximum(
            0.05, 1.0 + config.seasonal_amplitude * np.sin(2 * math.pi * (weekday[None, :] + phase[:, None]) / 7.0)
        )
    noise = (
        rng.normal(0.0, config.noise_scale, size=(days, n))
        if config.noise_scale > 0
        else np.zeros((days, n))
    )
    y = _simulate_views(base, profile, np.asarray(config.alpha_profile, dtype=float), edge_list, noise)

    names = np.array(ids, dtype=str)
    order = np.argsort(names)  # the identity below 100,000 videos, as the ids are zero-padded
    starts, bounds = np.full(n, START_DATE.toordinal(), dtype=np.int64), np.arange(n + 1, dtype=np.int64) * days
    views = ViewTable(names[order], starts, bounds, y.T[order].astype(np.int64).ravel())

    edge_src, edge_dst = np.array([e[:2] for e in edge_list], dtype=np.int64).reshape(-1, 2).T
    day, src, tgt, pos = _place_lists(rng, edge_src, edge_dst, days, config.presence_prob)
    table = SnapshotTable.from_codes(ids, day, src, tgt, pos, np.zeros(day.size, dtype=np.int8))
    network = DynamicNetwork(window, table)

    dataset = validate_dataset(metadata, views, network)
    truth = GroundTruth(
        alpha={vid: tuple(config.alpha_profile) for vid in ids},
        beta={(ids[s], ids[d]): b for s, d, b in edge_list},
        presence_prob=config.presence_prob,
    )
    return dataset, truth


def _numbered(prefix: str, number: np.ndarray, slot: np.ndarray | None = None) -> np.ndarray:
    """``f"{prefix}{i:07d}"`` for each i in ``number``, non-decreasing and below 2**32,
    followed by ``f"p{p:02d}"`` when ``slot`` gives each a p below 100, as one numpy
    str array.

    The code points are put into a uint32 array by integer arithmetic and viewed as
    str.  An i past 9,999,999 gets the wider name its f-string gives it; as
    ``number`` is sorted, the names of each width are one run of rows.
    """
    number = np.asarray(number, dtype=np.uint32)
    widths = range(7, len(f"{int(number[-1]) if number.size else 0:07d}") + 1)
    cuts = [0, *np.searchsorted(number, [10**w for w in widths[:-1]]).tolist(), number.size]
    head, tail = len(prefix), 0 if slot is None else 3
    codes = np.zeros((number.size, head + widths[-1] + tail), dtype=np.uint32)  # NUL-padded
    codes[:, :head] = [ord(c) for c in prefix]
    for w, a, b in zip(widths, cuts, cuts[1:]):
        _decimal(codes[a:b, head : head + w], number[a:b])
        if slot is not None:
            codes[a:b, head + w] = ord("p")
            _decimal(codes[a:b, head + w + 1 : head + w + 3], np.asarray(slot, dtype=np.uint32)[a:b])
    return codes.view(f"U{codes.shape[1]}")[:, 0]


def _decimal(out: np.ndarray, values: np.ndarray) -> None:
    """Write the last ``out.shape[1]`` decimal digits of each of ``values`` into its row of ``out``, as code points."""
    for j in range(out.shape[1] - 1, -1, -1):
        values, out[:, j] = np.divmod(values, 10)
    out += ord("0")


def generate_paired_lists(
    kernel: np.ndarray,
    n_pairs: int,
    seed: int = SEED,
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
    if k.ndim != 2 or k.shape[1] != len(BINS):
        raise DataFormatError("kernel columns must match the position bins")
    if not k.shape[0]:
        raise DataFormatError("kernel needs at least one row")
    if not np.isfinite(k).all() or np.any(k < 0) or np.any(k.sum(axis=1) > 1.0 + 1e-12):
        raise DataFormatError("kernel rows must be finite sub-probability vectors")
    if n_pairs < 1:
        raise DataFormatError("need positive pair counts")

    rng = np.random.default_rng(seed)
    rank = np.arange(n_pairs) % k.shape[0] + 1
    # Python floats compare as the float64 they hold, so bisect picks searchsorted's bin.
    cumulative = np.cumsum(k, axis=1).tolist()
    shown = np.zeros((n_pairs, BINS[-1][1]), dtype=bool)  # the tracked entry's slot
    for i, r in enumerate(rank.tolist()):
        chosen_bin = bisect_right(cumulative[r - 1], rng.random())
        if chosen_bin < len(BINS):
            lo, hi = BINS[chosen_bin]
            shown[i, rng.integers(lo, hi + 1) - 1] = True

    # Codes: fillers in (pair, position) order, then sources, then targets.  Below
    # 10,000,000 pairs that is also id order, and from_codes skips its sort.
    pair, slot = np.nonzero(~shown)
    every = np.arange(n_pairs)
    names = np.concatenate([_numbered("f", pair, slot + 1), _numbered("s", every), _numbered("t", every)])
    source = len(pair) + every
    target = source + n_pairs
    filler = np.cumsum(~shown).reshape(shown.shape) - 1
    rows = 1 + shown.shape[1]  # per pair: the relevant entry, then a full recommended list
    table = SnapshotTable.from_codes(
        names,
        every.repeat(rows) // PAIRS_PER_DAY,
        source.repeat(rows),
        np.column_stack([target, np.where(shown, target[:, None], filler)]).ravel(),
        np.column_stack([rank, np.tile(np.arange(1, rows), (n_pairs, 1))]).ravel(),
        np.tile(np.minimum(np.arange(rows), 1), n_pairs),  # kind 0 relevant, 1 recommended
    )
    n_days = (n_pairs + PAIRS_PER_DAY - 1) // PAIRS_PER_DAY
    return DynamicNetwork(ObservationWindow(START_DATE, n_days), table)


def export_dataset(dataset: Dataset, out_dir: str | Path) -> None:
    """Write the canonical ``DATASET_FILES``; views.csv holds each corpus video's window."""
    window = dataset.window
    rows = np.bincount(dataset.network.table.day, minlength=window.n_days)
    if not rows.all():  # a reader takes the window from the snapshot days
        day = window.start + timedelta(days=int(np.argmin(rows)))
        raise DataFormatError(f"window day {day} has no snapshot row, so the files would not load back")
    n = dataset.ids.size
    views = ViewTable(dataset.ids, np.full(n, window.start.toordinal(), dtype=np.int64),
                      np.arange(n + 1, dtype=np.int64) * window.n_days, dataset.window_views.ravel())
    snapshots, views_csv, metadata = (Path(out_dir) / name for name in DATASET_FILES)
    write_text(snapshots, serialize_snapshots(dataset.network))
    write_text(views_csv, serialize_views(views))
    write_text(metadata, serialize_metadata(dataset.metadata))


def ground_truth_to_json(truth: GroundTruth) -> dict:
    """JSON-friendly ground-truth layout with string edge keys."""
    return {
        "alpha": {vid: list(profile) for vid, profile in sorted(truth.alpha.items())},
        "beta": {f"{src}->{dst}": b for (src, dst), b in sorted(truth.beta.items())},
        "presence_prob": truth.presence_prob,
    }
