"""The numpy byte split of snapshots and views files against the csv row reader.

``parse_snapshots`` and ``parse_views`` split a file whose bytes and single
rows are clean as bytes and send every other file to the row reader; both paths
end in one tail, which reports faults across rows.  The differential tests feed both readers
valid files and byte mutations of them and require the same columns, dtypes
and window, or the same error text.
"""

import csv
import re
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

from _oracles import lane_texts

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
    """Both readers agree on a file holding ``data``, in default and in small blocks."""
    path.write_bytes(data)
    expected = outcome(read_rows, path)
    assert outcome(parse, path) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", SMALL_BLOCK)
        assert outcome(parse, path) == expected


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
def test_the_byte_split_carries_clean_files(tmp_path_factory, csv_file, block, snapshots, views):
    snapshot_text, view_text = _text(SNAPSHOT_HEADER, snapshots), _text(VIEWS_HEADER, views)
    path = tmp_path_factory.getbasetemp() / "clean.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", block)
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        for line_end in ("\n", "\r\n"):
            path.write_text(snapshot_text, newline=line_end)
            net = parse_snapshots(path)
            again = parse_snapshots(csv_file(serialize_snapshots(parse_snapshots(csv_file(snapshot_text)))))
            assert serialize_snapshots(again) == serialize_snapshots(net)
            assert net.table.day.size == len(snapshots)
            assert net.table.ids.tolist() == sorted({r[1] for r in snapshots} | {r[2] for r in snapshots})

            path.write_text(view_text, newline=line_end)
            table = parse_views(path)
            again = parse_views(csv_file(serialize_views(parse_views(csv_file(view_text)))))
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
    assert np.array_equal(reloaded.window_views, dataset.window_views)
    for column in ("day", "src", "tgt", "pos", "kind"):
        assert np.array_equal(getattr(reloaded.network.table, column), getattr(dataset.network.table, column))


def _lexsort_keys(patch):
    """Patch ``np.lexsort`` to record the number and length of the key columns of each call."""
    lexsort, calls = np.lexsort, []

    def counted(keys):
        calls.append((len(keys), len(keys[0])))
        return lexsort(keys)

    patch.setattr(np, "lexsort", counted)
    return calls


def test_a_key_past_int64_is_ordered_by_lexsort(tmp_path):
    cfg = datagen.GenConfig(n_videos=30, n_artists=4, days=12, edge_density=0.2, presence_prob=0.8, seed=2)
    datagen.export_dataset(datagen.generate(cfg)[0], tmp_path)
    snapshots, views = tmp_path / "snapshots.csv", tmp_path / "views.csv"
    expected = (_snapshot_outcome(data_model._read_snapshot_rows, snapshots),
                _views_outcome(data_model._read_view_rows, views))
    n_rows = len(snapshots.read_text().splitlines()) - 1, len(views.read_text().splitlines()) - 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_INT64_MAX", 0)  # no packed key fits
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        calls = _lexsort_keys(patch)
        assert (_snapshot_outcome(parse_snapshots, snapshots), _views_outcome(parse_views, views)) == expected
    # The target check and the table order of the snapshots; the views order.
    assert [call for call in calls if call[0] > 1] == [(4, n_rows[0]), (4, n_rows[0]), (2, n_rows[1])]


# The declines no mutation above reaches: each file goes to the row reader, which gives the result.
READERS = {
    "snapshots": (SNAPSHOT_HEADER, parse_snapshots, data_model._read_snapshot_rows, _snapshot_outcome,
                  data_model._split_snapshots),
    "views": (VIEWS_HEADER, parse_views, data_model._read_view_rows, _views_outcome, data_model._split_views),
}
# Two rows of each file kind, in two one-row blocks under SMALL_BLOCK, with distinct ids.
TWO_ROWS = {
    "snapshots": [["2018-09-01", "a", "b", "1", "relevant"], ["2018-09-02", "c", "d", "2", "relevant"]],
    "views": [["a" * 30, "2018-09-01", "5"], ["c" * 30, "2018-09-01", "7"]],
}


def _declined_where(tmp_path, kind, data):
    """The function in which the byte split declines a file holding ``data``, after checking
    that parsing it gives what the row reader gives."""
    _, parse, read_rows, outcome, split = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(data)
    with open(path, "rb") as handle, pytest.raises(data_model._Declined) as declined:
        split(handle)
    assert outcome(parse, path) == outcome(read_rows, path)
    return declined.traceback[-1].name


@pytest.mark.parametrize("kind", READERS)
def test_a_line_too_long_for_the_field_limit_is_declined_before_its_end(tmp_path, kind):
    header, rows = READERS[kind][0], [list(row) for row in TWO_ROWS[kind]]
    id_column = header.index("source_id" if kind == "snapshots" else "video_id")
    # A block longer than the longest line the field limit allows, so the tail check sees it before its LF
    rows[0][id_column] = "x" * (len(header) * (csv.field_size_limit() + 1) + data_model._BLOCK_BYTES)
    assert _declined_where(tmp_path, kind, _text(header, rows).encode()) == "_blocks"


@pytest.mark.parametrize("kind", READERS)
def test_rows_whose_field_counts_balance_out_are_declined(tmp_path, kind):
    header, rows = READERS[kind][0], [list(row) for row in TWO_ROWS[kind]]
    rows[1].append(rows[0].pop())  # one field short, then one too many: the comma and LF counts still match
    assert _declined_where(tmp_path, kind, _text(header, rows).encode()) == "_fields"


@pytest.mark.parametrize("kind", READERS)
def test_a_hash_collision_inside_a_block_is_declined(tmp_path, kind):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_hashed", lambda lanes: np.zeros(lanes.shape[0], dtype=np.uint64))
        assert _declined_where(tmp_path, kind, _text(READERS[kind][0], TWO_ROWS[kind]).encode()) == "_distinct"


@pytest.mark.parametrize("kind", READERS)
def test_a_hash_collision_with_an_earlier_block_is_declined(tmp_path, kind):
    with pytest.MonkeyPatch.context() as patch:
        # Distinct within a batch, and each one-row block is a batch of its own, so only the
        # vocabulary of earlier batches can collide.
        patch.setattr(data_model, "_hashed", lambda lanes: np.arange(lanes.shape[0], dtype=np.uint64))
        patch.setattr(data_model, "_BLOCK_BYTES", SMALL_BLOCK)
        patch.setattr(data_model, "_BATCH_FIELDS", 1)
        assert _declined_where(tmp_path, kind, _text(READERS[kind][0], TWO_ROWS[kind]).encode()) == "codes"


@pytest.mark.parametrize("kind", READERS)
def test_a_hash_collision_between_blocks_of_one_batch_is_declined(tmp_path, kind):
    hashed, mask = data_model._hashed, np.uint64(0xFDFD_FDFD_FDFD_FDFD)
    with pytest.MonkeyPatch.context() as patch:
        # Hashing with bit 0x02 of every byte cleared: of the ids, a collides with c only, and
        # no two dates collide.  Each row is a block, and both blocks are one batch.
        patch.setattr(data_model, "_hashed", lambda lanes: hashed(lanes & mask))
        patch.setattr(data_model, "_BLOCK_BYTES", SMALL_BLOCK)
        path = tmp_path / f"{kind}.csv"
        path.write_text(_text(READERS[kind][0], TWO_ROWS[kind]))
        with open(path, "rb") as handle, pytest.raises(data_model._Declined) as declined:
            READERS[kind][4](handle)
    assert [entry.name for entry in declined.traceback[-3:]] == ["_code_pending", "codes", "_distinct"]


CROSS_ROW_MUTATIONS = [
    *(("snapshots", name) for name in ("duplicate position", "duplicate target", "day gap")),
    *(("views", name) for name in ("gap", "repeated day")),
]


@pytest.mark.parametrize("kind, mutation", CROSS_ROW_MUTATIONS)
@settings(max_examples=30)
@given(snapshots=snapshot_rows(), views=view_rows(), at=st.integers(0, 10**6))
def test_cross_row_faults_agree_through_lexsort(tmp_path_factory, kind, mutation, snapshots, views, at):
    header, parse, read_rows, outcome, _ = READERS[kind]
    mutations, rows = (SNAPSHOT_MUTATIONS, snapshots) if kind == "snapshots" else (VIEW_MUTATIONS, views)
    data = mutations[mutation](header, rows, at)
    path = tmp_path_factory.getbasetemp() / f"{kind}.csv"
    path.write_bytes(data)
    packed = outcome(read_rows, path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_INT64_MAX", 0)
        _same_outcomes(data, path, parse, read_rows, outcome)
        assert outcome(read_rows, path) == packed


# Clean files with one fault across rows, and the row reader's message for each.
CROSS_ROW_FAULTS = {
    "repeated position": ("snapshots", "2018-09-01,a,b,1,relevant\n2018-09-01,a,c,1,relevant\n",
                          "line 3: duplicate position 1 in relevant list of a on 2018-09-01 (first seen at line 2)"),
    "repeated target": ("snapshots",
                        "2018-09-01,a,b,1,relevant\n2018-09-01,a,c,2,relevant\n2018-09-01,a,b,3,relevant\n",
                        "line 4: duplicate target b in relevant list of a on 2018-09-01 (first seen at line 2)"),
    "missing day": ("snapshots", "2018-09-01,a,b,1,relevant\n2018-09-03,a,b,1,relevant\n",
                    "snapshot days are not consecutive, missing 2018-09-02"),
    "repeated view day": ("views", "v,2018-09-01,1\nv,2018-09-01,2\n", "line 3: duplicate day 2018-09-01 for v"),
    "view gap": ("views", "z,2018-09-01,1\nz,2018-09-03,1\na,2018-09-01,1\na,2018-09-03,1\n",
                 "view series for z has a gap at 2018-09-02"),
}


@pytest.mark.parametrize("block", [SMALL_BLOCK, data_model._BLOCK_BYTES])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("fault", CROSS_ROW_FAULTS)
def test_the_byte_split_reports_faults_across_rows(tmp_path, fault, line_end, block):
    kind, body, message = CROSS_ROW_FAULTS[fault]
    header, parse, read_rows, _, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(",".join(header) + "\n" + body, newline=line_end)
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        read_rows(path)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", block)
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse(path)


@pytest.mark.parametrize("batch", [1, 3, 37, data_model._BATCH_FIELDS])
@settings(max_examples=30)
@given(snapshots=snapshot_rows(), views=view_rows())
def test_id_batches_give_the_row_readers_tables(tmp_path_factory, batch, snapshots, views):
    """Rows ordered by their longest id: an id with more lanes than any before it often first
    comes in a later batch, which makes the vocabulary hash again what it holds."""
    snapshots = sorted(snapshots, key=lambda row: max(len(row[1]), len(row[2])))
    views = sorted(views, key=lambda row: len(row[0]))
    path = tmp_path_factory.getbasetemp() / "batched.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BATCH_FIELDS", batch)
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        for kind, rows in (("snapshots", snapshots), ("views", views)):
            header, parse, read_rows, outcome, _ = READERS[kind]
            _same_outcomes(_text(header, rows).encode(), path, parse, read_rows, outcome)


# Rows whose ids first need 2 and then 3 lanes in later one-row blocks, after shorter ones; the
# last row's one-lane ids make a batch narrower than the vocabulary.
GROWING_IDS = {
    "snapshots": [["2018-09-01", "a", "b", "1", "relevant"], ["2018-09-01", "a", "c" * 12, "2", "relevant"],
                  ["2018-09-02", "c" * 12, "b", "1", "relevant"], ["2018-09-02", "b" * 20, "a", "1", "relevant"],
                  ["2018-09-03", "a", "b", "1", "relevant"]],
    "views": [["a", "2018-09-01", "5"], ["c" * 12, "2018-09-01", "7"], ["a", "2018-09-02", "6"],
              ["b" * 20, "2018-09-01", "8"], ["a", "2018-09-03", "4"]],
}


@pytest.mark.parametrize("kind", READERS)
def test_ids_that_add_a_lane_in_a_later_batch_are_hashed_again(tmp_path, kind):
    header, parse, read_rows, outcome, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_text(_text(header, GROWING_IDS[kind]))
    expected = outcome(read_rows, path)
    codes, calls = data_model._Vocabulary.codes, []

    def spy(vocabulary, lanes):
        calls.append((vocabulary.size, vocabulary.lanes.shape[1], lanes.shape[1]))
        return codes(vocabulary, lanes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_BLOCK_BYTES", 1)  # one-byte reads: each row is a block of its own
        patch.setattr(data_model, "_BATCH_FIELDS", 1)
        patch.setattr(data_model._Vocabulary, "codes", spy)
        patch.setattr(data_model, "_read_snapshot_rows", _refuse)
        patch.setattr(data_model, "_read_view_rows", _refuse)
        assert outcome(parse, path) == expected
    assert [(had, now) for held, had, now in calls if held and now > had] == [(1, 2), (2, 3)]
    assert all(now >= had for _, had, now in calls)  # every batch is padded to the vocabulary's lanes


@pytest.mark.parametrize("n_lanes,width", [(n, w) for n in (1, 2, 3) for w in range(1, 8 * n + 1)])
def test_lane_texts_spell_what_astype_spells(n_lanes, width):
    rng = np.random.default_rng(width * 4 + n_lanes)
    lengths = np.r_[width, rng.integers(1, width + 1, size=40)]
    spelled = np.zeros((lengths.size, 8 * n_lanes), dtype=np.uint8)
    for row, length in zip(spelled, lengths):
        row[:length] = rng.integers(1, 0x80, size=length)  # any ASCII byte but NUL
    lanes = spelled.view(">u8").astype(np.uint64)
    texts, expected = data_model._texts(lanes, width), lane_texts(lanes, width)
    assert texts.dtype == expected.dtype == np.dtype(f"U{width}")
    assert texts.tolist() == expected.tolist()
    assert [len(text) for text in texts.tolist()] == lengths.tolist()
