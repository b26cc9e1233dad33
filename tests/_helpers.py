"""Hand-rolled builders for small in-memory datasets used across test modules."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
from hypothesis import strategies as st

from aflow.data_model import (
    LIST_KINDS,
    DailySnapshot,
    DataFormatError,
    Dataset,
    DynamicNetwork,
    ObservationWindow,
    RankedList,
    SnapshotTable,
    VideoMeta,
    ViewTable,
    validate_dataset,
)
from aflow.forecast import NEIGHBOR_MODES, ArnetModel, ForecastConfig

START = date(2018, 9, 1)


def network_from_snapshots(window: ObservationWindow, snapshots) -> DynamicNetwork:
    """Convert per-list objects, one snapshot per window day, into the snapshot table."""
    if len(snapshots) != window.n_days:
        raise DataFormatError("snapshot count does not match window length")
    codes: dict[str, int] = {}
    rows = []  # (day, kind, source code, target code, position)
    for i, snap in enumerate(snapshots):
        if snap.date != window.start + timedelta(days=i):
            raise DataFormatError("snapshot dates are not consecutive")
        for k, kind in enumerate(LIST_KINDS):
            for src, rlist in getattr(snap, kind).items():
                s = codes.setdefault(src, len(codes))
                rows += [(i, k, s, codes.setdefault(t, len(codes)), p) for t, p in rlist.entries]
    day, kind, src, tgt, pos = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    if pos.max(initial=0) > np.iinfo(np.int32).max:
        raise DataFormatError(f"position {pos.max()} is too large")
    return DynamicNetwork(window, SnapshotTable.from_codes(list(codes), day, src, tgt, pos, kind))


def build_network(daily_relevant, daily_recommended=None, start=START) -> DynamicNetwork:
    """daily_relevant: list over days of {source: [(target, pos), ...]}."""
    n_days = len(daily_relevant)
    if daily_recommended is None:
        daily_recommended = [{} for _ in range(n_days)]
    window = ObservationWindow(start=start, n_days=n_days)
    snaps = []
    for offset, (rel, rec) in enumerate(zip(daily_relevant, daily_recommended)):
        day = start + timedelta(days=offset)
        relevant = {
            src: RankedList(source=src, entries=tuple(entries), list_kind="relevant")
            for src, entries in rel.items()
        }
        recommended = {
            src: RankedList(source=src, entries=tuple(entries), list_kind="recommended")
            for src, entries in rec.items()
        }
        snaps.append(DailySnapshot(date=day, relevant=relevant, recommended=recommended))
    return network_from_snapshots(window, snaps)


def build_dataset(
    views: dict[str, list],
    daily_edges=None,
    artists: dict[str, str] | None = None,
    genres: dict[str, frozenset] | None = None,
    start=START,
) -> Dataset:
    """Dataset from per-video view lists plus (source, target, position) edges.

    daily_edges is either one edge list reused every day or a list with one
    edge list per day.
    """
    n_days = len(next(iter(views.values())))
    for vid, series in views.items():
        if len(series) != n_days:
            raise ValueError(f"series length mismatch for {vid}")
    if daily_edges is None:
        daily_edges = []
    if daily_edges and isinstance(daily_edges[0], tuple):
        daily_edges = [daily_edges] * n_days
    if not daily_edges:
        daily_edges = [[] for _ in range(n_days)]

    daily_relevant = []
    for edges in daily_edges:
        rel: dict[str, list] = {}
        for src, tgt, pos in edges:
            rel.setdefault(src, []).append((tgt, pos))
        daily_relevant.append({src: sorted(pairs, key=lambda e: e[1]) for src, pairs in rel.items()})
    network = build_network(daily_relevant, start=start)

    artists = artists or {}
    genres = genres or {}
    metadata = {
        vid: VideoMeta(
            artist_id=artists.get(vid, "a0000"),
            genres=frozenset(genres.get(vid, frozenset())),
            upload_date=start,
        )
        for vid in views
    }
    return validate_dataset(metadata, view_table({vid: (start, vals) for vid, vals in views.items()}), network)


def view_table(series) -> ViewTable:
    """The table of ``{id: (first day, counts)}``, built without checking ids or counts."""
    ids = sorted(series)
    return ViewTable(
        np.array(ids, dtype=str),
        np.array([series[vid][0].toordinal() for vid in ids], dtype=np.int64),
        np.cumsum([0, *(len(series[vid][1]) for vid in ids)], dtype=np.int64),
        np.array([n for vid in ids for n in series[vid][1]], dtype=np.int64),
    )


def seasonal_values(base: float, n_days: int, amplitude: float = 0.3, phase: int = 0) -> list[int]:
    shape = 1.0 + amplitude * np.sin(2.0 * np.pi * (np.arange(n_days) + phase) / 7.0)
    return [int(round(base * s)) for s in shape]


@st.composite
def model_cases(draw):
    """(dataset, models, config): 2-12 videos over a window of exactly train + horizon days.

    Views may be zero, alphas may be negative, some models have no beta
    terms, and each beta dict has its keys in a drawn order.  With 8 or more
    values numpy's pairwise sums part from a sequential one.
    """
    p = draw(st.integers(1, 3))
    m_star = draw(st.integers(1, 4))
    train_days = max(2 * p + 1, m_star) + draw(st.integers(0, 2))
    horizon = draw(st.integers(1, 10))
    config = ForecastConfig(p=p, m_star=m_star, train_days=train_days, horizon=horizon,
                            neighbor_mode=draw(st.sampled_from(NEIGHBOR_MODES)))
    ids = [f"v{i:02d}" for i in range(draw(st.integers(2, 12)))]
    days = train_days + horizon
    views = {v: draw(st.lists(st.integers(0, 1000), min_size=days, max_size=days)) for v in ids}
    artists = {v: draw(st.sampled_from(["a0", "a1"])) for v in ids}
    models = {}
    for v in draw(st.lists(st.sampled_from(ids), min_size=1, unique=True)):
        alpha = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
        sources = draw(st.lists(st.sampled_from([u for u in ids if u != v]), unique=True))
        models[v] = ArnetModel(v, alpha, {u: draw(st.floats(0.0, 1.0)) for u in sources})
    return build_dataset(views, artists=artists), models, config


def covering_model_case():
    """A fixed ``model_cases`` case: forecast mode with a modeled source, beta keys out of id
    order, and a target without beta terms whose clamped forecast totals zero."""
    days, artists = 11, {"a": "a0", "b": "a0", "c": "a1", "d": "a1"}
    views = {"a": [100] * days, "b": list(range(40, 40 + days)), "c": [0] * days, "d": [70] * days}
    config = ForecastConfig(p=1, m_star=2, train_days=3, horizon=8, neighbor_mode="forecast")
    models = {
        "b": ArnetModel("b", np.array([0.7]), {"c": 0.25, "a": 0.3}),
        "c": ArnetModel("c", np.array([-1.0])),
        "d": ArnetModel("d", np.array([0.2]), {"b": 0.5, "a": 0.1}),
    }
    return build_dataset(views, artists=artists), models, config
