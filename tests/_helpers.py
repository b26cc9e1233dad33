"""Hand-rolled builders for small in-memory datasets used across test modules."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

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
