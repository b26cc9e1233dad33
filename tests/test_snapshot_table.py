"""The snapshot table against per-day oracles, and its CSV round trip."""

import csv
import dataclasses
import io
import json
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from aflow import cli, datagen
from aflow.data_model import (
    DailySnapshot,
    DataFormatError,
    RankedList,
    parse_snapshots,
    serialize_snapshots,
)
from aflow.graph_analysis import daily_link_presence, indegree_change_ratios, link_frequency_histogram
from aflow.list_alignment import BINS, display_probability_matrix, origin_probability_matrix
from aflow.persistence import apply_view_filters, classify_links, link_presence
from aflow.stats import sample_random_pairs

import _helpers
import _oracles

EXTERNAL = ("x0", "x1", "x2")
# (target_min, source_frac): no filter; one that drops pairs, among them one
# direction of a reciprocal pair, and keeps other reciprocal pairs on the
# augmented data; one that drops most pairs.
FILTERS = ((0.0, 0.0), (500.0, 0.05), (5000.0, 0.5))


def _entries(rng, targets, top=20):
    positions = np.sort(rng.choice(np.arange(1, top + 1), size=len(targets), replace=False))
    return tuple(zip(targets, positions.tolist()))


def augmented_dataset(seed):
    """Generated data with presence_prob < 1, plus external ids and recommended lists.

    Relevant lists gain external targets and external sources, and four
    targets link back to their source at the first free position, so some
    links are reciprocal (the generator never makes one); recommended lists
    re-rank part of a source's relevant targets among externals, some for
    sources without a relevant list that day.
    """
    base, _ = datagen.generate(
        datagen.GenConfig(n_videos=24, n_artists=4, days=9, edge_density=0.3,
                          presence_prob=0.7, seed=seed)
    )
    rng = np.random.default_rng(seed)
    ids = sorted(base.corpus)
    first_day = base.network.snapshots[0].relevant
    back = {first_day[src].entries[0][0]: src for src in sorted(first_day)[:4]}
    snapshots = []
    for snap in base.network.snapshots:
        relevant = {}
        for src, rlist in snap.relevant.items():
            entries = rlist.entries
            if src in back and back[src] not in dict(entries):
                free = min(set(range(1, 20)) - {pos for _, pos in entries})
                entries = tuple(sorted(entries + ((back[src], free),), key=lambda e: e[1]))
            last = entries[-1][1]
            extra = tuple((x, last + 1 + i) for i, x in enumerate(EXTERNAL[: rng.integers(0, 3)]))
            relevant[src] = RankedList(src, entries + extra, "relevant")
        relevant["x0"] = RankedList("x0", _entries(rng, list(rng.choice(ids, 3, replace=False))), "relevant")
        recommended = {}
        for src in rng.choice(ids, 12, replace=False).tolist():
            shown = [t for t, _ in relevant[src].entries if rng.random() < 0.6] if src in relevant else []
            shown += [x for x in EXTERNAL if x not in shown and rng.random() < 0.5]
            shown += [v for v in rng.choice(ids, 2, replace=False).tolist() if v not in shown and v != src]
            recommended[src] = RankedList(src, _entries(rng, list(rng.permutation(shown))), "recommended")
        snapshots.append(DailySnapshot(snap.date, relevant, recommended))
    network = _helpers.network_from_snapshots(base.window, snapshots)
    return dataclasses.replace(base, network=network), snapshots


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of the error it raised."""
    try:
        return "ok", fn(*args, **kwargs)
    except DataFormatError as exc:
        return "error", type(exc), str(exc)


@pytest.fixture(scope="module")
def augmented():
    return augmented_dataset(seed=5)


def test_views_reproduce_the_converted_lists(augmented, capsys):
    dataset, snapshots = augmented
    cli.cmd_validate(None, {}, dataset)
    targets = {t for snap in snapshots for lists in (snap.relevant, snap.recommended)
               for rlist in lists.values() for t, _ in rlist.entries}
    assert json.loads(capsys.readouterr().out)["n_external_targets"] == len(targets - dataset.corpus)
    assert dataset.network.snapshots == tuple(snapshots)
    day = snapshots[4].date
    assert dataset.network.snapshot_on(day) == snapshots[4]


@pytest.mark.parametrize("cutoff", [0, 1, 5, 15])
def test_link_analyses_match_per_day_oracles(augmented, cutoff):
    dataset, snapshots = augmented
    net, corpus = dataset.network, dataset.corpus
    analyses = (
        (link_frequency_histogram, _oracles.link_frequency_histogram),
        (lambda p: indegree_change_ratios(p, min_indegree=2),
         lambda *a: _oracles.indegree_change_ratios(*a, min_indegree=2)),
    )

    built = outcome(daily_link_presence, net, corpus, cutoff)
    want = outcome(_oracles.link_presence, snapshots, corpus, cutoff)
    if cutoff < 1:
        error = ("error", DataFormatError, f"cutoff must be at least 1, got {cutoff}")
        assert built == want == error
        for _, oracle in analyses:
            assert outcome(oracle, snapshots, corpus, cutoff) == error
        return
    presence = built[1]
    got = outcome(link_presence, presence)
    assert got[1][0] == want[1][0]
    assert np.array_equal(got[1][1], want[1][1])
    assert got[1][1].any(axis=1).all() and not got[1][1].all()
    assert presence.ids.tolist() == sorted(corpus)

    for fn, oracle in analyses:
        assert outcome(fn, presence) == outcome(oracle, snapshots, corpus, cutoff)

    for target_min, source_frac in FILTERS:
        filters = apply_view_filters(dataset, target_min, source_frac)
        got = outcome(sample_random_pairs, presence, 15, 3, filters)
        assert got == outcome(_oracles.sample_random_pairs, dataset, snapshots, 15, 3, cutoff, filters)


@pytest.mark.parametrize("cutoff", [1, 5, 15])
def test_classify_links_matches_per_pair_oracle(augmented, cutoff):
    dataset, snapshots = augmented
    presence = daily_link_presence(dataset.network, dataset.corpus, cutoff)
    n_links = len(link_presence(presence)[0])
    reciprocal = {}
    for target_min, source_frac in FILTERS:
        filters = apply_view_filters(dataset, target_min, source_frac)
        persistent, ephemeral = classify_links(presence, filters)
        edges = [(e.source, e.target, e.reciprocal, e.days_present) for e in persistent.edges]
        assert (edges, list(ephemeral)) == _oracles.classify_links(snapshots, dataset.corpus, cutoff, filters)
        assert {v for e in edges for v in e[:2]} | {v for p in ephemeral for v in p} <= dataset.corpus
        if target_min > 0:
            assert len(edges) + len(ephemeral) < n_links
        reciprocal[target_min] = persistent.reciprocal_count
    if cutoff == 15:
        assert reciprocal[0.0] > reciprocal[500.0] > 0  # a filtered-out reverse link is no reciprocity


@pytest.mark.parametrize("max_from", [1, 5, 15])
def test_alignment_matrices_match_entry_oracle(augmented, max_from):
    dataset, snapshots = augmented
    for fn, kind in ((display_probability_matrix, "relevant"), (origin_probability_matrix, "recommended")):
        matrix = fn(dataset.network, max_from)
        num, den = _oracles.alignment_counts(snapshots, kind, max_from, BINS)
        assert np.array_equal(matrix.denominators, den)
        assert np.array_equal(matrix.probs, num / np.maximum(den, 1)[:, None])
        assert den.sum() > 0


def test_recommended_lists_without_relevant_ones_fail_like_the_oracle():
    rec = {"a": [("b", 1)]}
    net = _helpers.build_network([{"a": [("b", 1)]}, {}], daily_recommended=[{}, rec])
    corpus = {"a", "b"}
    message = f"snapshot {net.window.start + timedelta(days=1)} has no relevant lists"
    expected = ("error", DataFormatError, message)
    assert outcome(daily_link_presence, net, corpus) == expected
    for oracle in (_oracles.link_presence, _oracles.link_frequency_histogram, _oracles.indegree_change_ratios):
        assert outcome(oracle, net.snapshots, corpus) == expected


# ---------------------------------------------------------------------------
# parse -> serialize -> parse

ID_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3)
ROW = st.tuples(
    st.integers(0, 3), ID_TEXT, ID_TEXT, st.integers(1, 30), st.sampled_from(["relevant", "recommended"])
)


def _csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["date", "source_id", "target_id", "position", "list_kind"])
    start = datagen.START_DATE
    writer.writerows((start + timedelta(days=d), s, t, p, k) for d, s, t, p, k in rows)
    return buf.getvalue()


def _valid(rows):
    """Drop rows a parser must reject, keep each list's first position and target,
    and renumber the days that are left to 0..n-1."""
    keep, positions, targets = [], set(), set()
    for day, src, tgt, pos, kind in rows:
        if src == tgt or any(c in src + tgt for c in "\0\r\n"):
            continue
        if (day, src, kind, pos) in positions or (day, src, kind, tgt) in targets:
            continue
        positions.add((day, src, kind, pos))
        targets.add((day, src, kind, tgt))
        keep.append((day, src, tgt, pos, kind))
    days = sorted({r[0] for r in keep})
    return [(days.index(r[0]),) + r[1:] for r in keep]


def _columns(table):
    return [table.ids.tolist()] + [getattr(table, c).tolist() for c in ("day", "src", "tgt", "pos", "kind")]


@given(st.lists(ROW, min_size=1, max_size=40), st.randoms(use_true_random=False))
def test_parse_serialize_round_trip(csv_file, rows, random):
    rows = _valid(rows)
    assume(rows)
    net = parse_snapshots(csv_file(_csv(rows)))
    text = serialize_snapshots(net)
    again = parse_snapshots(csv_file(text))
    assert _columns(again.table) == _columns(net.table)
    assert again.window == net.window
    assert net.table.day.size == len(rows)

    shuffled = list(rows)
    random.shuffle(shuffled)
    assert serialize_snapshots(parse_snapshots(csv_file(_csv(shuffled)))) == text
    assert list(net.table.ids) == sorted({r[1] for r in rows} | {r[2] for r in rows})
