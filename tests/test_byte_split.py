"""The numpy byte split of snapshots and views files against the csv row reader.

``parse_snapshots`` and ``parse_views`` split a clean file as bytes and send
every other file to the row reader.  The differential tests feed both readers
valid files and byte mutations of them and require the same columns, dtypes
and window, or the same error text.
"""

import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aflow import data_model, datagen
from aflow.data_model import (
    LIST_KINDS,
    SNAPSHOT_HEADER,
    VIEWS_HEADER,
    DataFormatError,
    load_dataset,
    parse_snapshots,
    parse_views,
    serialize_snapshots,
    serialize_views,
)

# Id characters that need no quoting; lengths up to 17 cross the 8-byte lanes.
ID = st.text(st.sampled_from("abcXYZ019-_.|;:' "), min_size=1, max_size=17)
POSITION = st.one_of(st.integers(1, 30), st.integers(1, 2**31 - 1))
START = st.dates(date(1900, 1, 1), date(2100, 1, 1))
# A block size that splits small files into many blocks, some shorter than a line.
SMALL_BLOCK = 40


@st.composite
def snapshot_rows(draw):
    """Rows of a valid snapshots file, in drawn order, as lists of field texts."""
    pool = draw(st.lists(ID, min_size=2, max_size=6, unique=True))
    raw = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(pool), st.sampled_from(pool),
                                  POSITION, st.sampled_from(LIST_KINDS)), min_size=1, max_size=30))
    rows, seen = [], set()
    for day, src, tgt, pos, kind in raw:
        if src != tgt and not {(day, src, kind, pos), (day, src, kind, tgt)} & seen:
            seen |= {(day, src, kind, pos), (day, src, kind, tgt)}
            rows.append((day, src, tgt, pos, kind))
    if not rows:
        return [[draw(START).isoformat(), pool[0], pool[1], "1", "relevant"]]
    days = sorted({r[0] for r in rows})
    start = draw(START)
    return [[(start + timedelta(days=days.index(d))).isoformat(), s, t, str(p), k] for d, s, t, p, k in rows]


@st.composite
def view_rows(draw):
    """Rows of a valid views file, shuffled, as lists of field texts."""
    counts = st.lists(st.one_of(st.integers(0, 99), st.integers(10**16, 10**18 - 1)), min_size=1, max_size=4)
    series = draw(st.dictionaries(ID, st.tuples(START, counts), min_size=1, max_size=4))
    rows = [[vid, (start + timedelta(days=i)).isoformat(), str(count)]
            for vid, (start, counts) in series.items() for i, count in enumerate(counts)]
    return draw(st.permutations(rows))


def _text(header, rows):
    return "\n".join(",".join(row) for row in [list(header), *rows]) + "\n"


def _field_edit(edit):
    """A mutation that rewrites one field, the one ``at`` picks."""
    def mutate(header, rows, at):
        rows = [list(row) for row in rows]
        row = rows[at % len(rows)]
        i = at // len(rows) % len(row)
        row[i] = edit(row[i])
        return _text(header, rows).encode()
    return mutate


def _row_edit(edit):
    """A mutation that rewrites the rows as lists of fields, given the row ``at`` picks."""
    def mutate(header, rows, at):
        rows = [list(row) for row in rows]
        edit(rows, at % len(rows))
        return _text(header, rows).encode()
    return mutate


def _file_edit(edit):
    """A mutation of the whole file's bytes at a byte offset ``at`` picks."""
    def mutate(header, rows, at):
        data = _text(header, rows).encode()
        return edit(data, len(",".join(header)) + 1 + at % (len(data) - len(",".join(header))))
    return mutate


def _set(index, value):
    def edit(rows, r):
        rows[r][index] = value(rows[r]) if callable(value) else value
    return edit


def _repeat(change):
    """Append a copy of row r with ``change`` applied to it."""
    def edit(rows, r):
        copy = list(rows[r])
        change(copy)
        rows.append(copy)
    return edit


def _later_date(days):
    def value(row):
        return (date.fromisoformat(row[0]) + timedelta(days=days)).isoformat()
    return value


COMMON = {
    "none": _row_edit(lambda rows, r: None),
    "quote": _field_edit(lambda f: f'"{f}"'),
    "crlf": lambda header, rows, at: _text(header, rows).replace("\n", "\r\n").encode(),
    "crlf header": lambda header, rows, at: _text(header, rows).replace("\n", "\r\n", 1)[:-1].encode(),
    "lone cr": _field_edit(lambda f: f[:1] + "\r" + f[1:]),
    "blank line": _row_edit(lambda rows, r: rows.insert(r, [])),
    "no final lf": lambda header, rows, at: _text(header, rows)[:-1].encode(),
    "bom": lambda header, rows, at: b"\xef\xbb\xbf" + _text(header, rows).encode(),
    "nul": _field_edit(lambda f: f + "\0"),
    "non-ascii": _field_edit(lambda f: f + "é"),
    "invalid utf-8": _file_edit(lambda data, i: data[:i] + b"\xff" + data[i:]),
    "over field limit": _field_edit(lambda f: f + "x" * csv.field_size_limit()),
    "extra comma": _field_edit(lambda f: f + ",x"),
    "missing comma": _file_edit(lambda data, i: data[:i] + data[i:].replace(b",", b"", 1)),
    "empty field": _field_edit(lambda f: ""),
    "header": lambda header, rows, at: _text([header[0].upper(), *header[1:]], rows).encode(),
    "header only": lambda header, rows, at: _text(header, []).encode(),
    "leading zero": _field_edit(lambda f: "0" + f),
    "compact date": _field_edit(lambda f: f.replace("-", "")),
}

SNAPSHOT_MUTATIONS = {
    **COMMON,
    "position 0": _row_edit(_set(3, "0")),
    "position 2^31": _row_edit(_set(3, str(2**31))),
    "bad kind": _row_edit(_set(4, "related")),
    "self-link": _row_edit(_set(2, lambda row: row[1])),
    "duplicate position": _row_edit(_repeat(lambda row: row.__setitem__(2, "new target"))),
    "duplicate target": _row_edit(_repeat(lambda row: row.__setitem__(3, str(int(row[3]) + 1000)))),
    "day gap": _row_edit(_repeat(lambda row: row.__setitem__(0, _later_date(5)(row)))),
}

VIEW_MUTATIONS = {
    **COMMON,
    "negative count": _row_edit(_set(2, "-3")),
    "19 digits": _row_edit(_set(2, "1" * 19)),
    "count too large": _row_edit(_set(2, "9" * 19)),
    "gap": _row_edit(_set(1, lambda row: _later_date(3)(row[1:]))),
    "repeated day": _row_edit(_repeat(lambda row: row.__setitem__(2, "7"))),
}


def _snapshot_outcome(parse, source):
    try:
        net = parse(source)
    except DataFormatError as exc:
        return str(exc)
    t = net.table
    return net.window, [(c, getattr(t, c).dtype.str, getattr(t, c).tolist())
                        for c in ("ids", "day", "src", "tgt", "pos", "kind")]


def _views_outcome(parse, source):
    try:
        views = parse(source)
    except DataFormatError as exc:
        return str(exc)
    return [(c, getattr(views, c).dtype.str, getattr(views, c).tolist()) for c in ("ids", "start", "bounds", "values")]


def _same_outcomes(data, path, parse, read_rows, outcome):
    """Both readers agree on ``data`` from a path, a binary stream and, when it is UTF-8, a text stream."""
    path.write_bytes(data)
    expected = outcome(read_rows, path)
    assert outcome(parse, path) == expected
    assert outcome(parse, io.BytesIO(data)) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", SMALL_BLOCK)
        assert outcome(parse, path) == expected
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert outcome(parse, io.StringIO(text)) == outcome(read_rows, io.StringIO(text))


@pytest.mark.parametrize("mutation", sorted(SNAPSHOT_MUTATIONS))
@settings(max_examples=30)
@given(rows=snapshot_rows(), at=st.integers(0, 10**6))
def test_snapshot_readers_agree(tmp_path_factory, mutation, rows, at):
    data = SNAPSHOT_MUTATIONS[mutation](SNAPSHOT_HEADER, rows, at)
    path = tmp_path_factory.getbasetemp() / "snapshots.csv"
    _same_outcomes(data, path, parse_snapshots, data_model._read_snapshot_rows, _snapshot_outcome)


@pytest.mark.parametrize("mutation", sorted(VIEW_MUTATIONS))
@settings(max_examples=30)
@given(rows=view_rows(), at=st.integers(0, 10**6))
def test_view_readers_agree(tmp_path_factory, mutation, rows, at):
    data = VIEW_MUTATIONS[mutation](VIEWS_HEADER, rows, at)
    path = tmp_path_factory.getbasetemp() / "views.csv"
    _same_outcomes(data, path, parse_views, data_model._read_view_rows, _views_outcome)


def _refuse(source):
    raise AssertionError("the row reader read a clean file")


@pytest.mark.parametrize("block", [SMALL_BLOCK, data_model._BLOCK_BYTES])
@given(snapshots=snapshot_rows(), views=view_rows())
def test_the_byte_split_carries_clean_files(tmp_path_factory, block, snapshots, views):
    snapshot_text, view_text = _text(SNAPSHOT_HEADER, snapshots), _text(VIEWS_HEADER, views)
    path = tmp_path_factory.getbasetemp() / "clean.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", block)
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        for line_end in ("\n", "\r\n"):
            path.write_text(snapshot_text, newline=line_end)
            net = parse_snapshots(path)
            again = parse_snapshots(io.StringIO(serialize_snapshots(parse_snapshots(io.StringIO(snapshot_text)))))
            assert serialize_snapshots(again) == serialize_snapshots(net)
            assert net.table.day.size == len(snapshots)
            assert net.table.ids.tolist() == sorted({r[1] for r in snapshots} | {r[2] for r in snapshots})

            path.write_text(view_text, newline=line_end)
            table = parse_views(path)
            again = parse_views(io.StringIO(serialize_views(parse_views(io.StringIO(view_text)))))
            assert serialize_views(again) == serialize_views(table)
            assert table.ids.tolist() == sorted({r[0] for r in views})
            assert table.values.size == table.bounds[-1] == len(views)


def test_the_byte_split_loads_a_generated_dataset(tmp_path):
    cfg = datagen.GenConfig(n_videos=30, n_artists=4, days=12, edge_density=0.2, presence_prob=0.8, seed=2)
    dataset, _ = datagen.generate(cfg)
    datagen.export_dataset(dataset, tmp_path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", 4096)  # many blocks
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        reloaded = load_dataset(tmp_path)
    assert serialize_snapshots(reloaded.network) == serialize_snapshots(dataset.network)
    assert serialize_views(reloaded.views) == serialize_views(dataset.views)
    for column in ("day", "src", "tgt", "pos", "kind"):
        assert np.array_equal(getattr(reloaded.network.table, column), getattr(dataset.network.table, column))
