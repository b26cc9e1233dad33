import csv
import gc
import io
import json
import math
import re
import sys
import tempfile
import weakref
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aflow import cli, data_model, datagen
from aflow.data_model import (
    METADATA_HEADER,
    SNAPSHOT_HEADER,
    VIEWS_HEADER,
    DataFormatError,
    DynamicNetwork,
    ObservationWindow,
    RankedList,
    SnapshotTable,
    VideoMeta,
    load_dataset,
    parse_metadata,
    parse_snapshots,
    parse_views,
    serialize_metadata,
    serialize_snapshots,
    serialize_views,
    validate_dataset,
)
from aflow.graph_analysis import build_graph, daily_link_presence

import _helpers
import _oracles


def snap_csv(rows):
    lines = ["date,source_id,target_id,position,list_kind"]
    lines += [",".join(str(f) for f in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_parse_snapshots_single_row(csv_file):
    net = parse_snapshots(csv_file(snap_csv([("2018-09-01", "a", "b", 1, "relevant")])))
    assert net.window.n_days == 1
    snap = net.snapshots[0]
    assert snap.date == date(2018, 9, 1)
    assert snap.relevant["a"].entries == (("b", 1),)
    assert snap.recommended == {}


def test_parse_snapshots_orders_positions(csv_file):
    net = parse_snapshots(
        csv_file(snap_csv(
            [
                ("2018-09-01", "a", "c", 5, "relevant"),
                ("2018-09-01", "a", "b", 1, "relevant"),
            ]
        ))
    )
    assert net.snapshots[0].relevant["a"].entries == (("b", 1), ("c", 5))


def test_parse_snapshots_duplicate_position_reports_both_lines(csv_file):
    src = snap_csv(
        [
            ("2018-09-01", "a", "b", 1, "relevant"),
            ("2018-09-01", "a", "c", 1, "relevant"),
        ]
    )
    with pytest.raises(DataFormatError, match=r"line 3: duplicate position 1.*first seen at line 2"):
        parse_snapshots(csv_file(src))


def test_parse_snapshots_rejects_bad_rows(csv_file):
    with pytest.raises(DataFormatError, match="line 2: bad date"):
        parse_snapshots(csv_file(snap_csv([("09/01/2018", "a", "b", 1, "relevant")])))
    with pytest.raises(DataFormatError, match="line 2: position 0 is below 1"):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", "a", "b", 0, "relevant")])))
    with pytest.raises(DataFormatError, match="line 2: unknown list kind 'related'"):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", "a", "b", 1, "related")])))
    with pytest.raises(DataFormatError, match="line 2: self-link on a"):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", "a", "a", 1, "relevant")])))
    with pytest.raises(DataFormatError, match="expected 5 fields"):
        parse_snapshots(csv_file("date,source_id,target_id,position,list_kind\n2018-09-01,a,b\n"))
    with pytest.raises(DataFormatError, match=r"line 2: video id 'a\\rb' holds a NUL or line break"):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", '"a\rb"', "b", 1, "relevant")])))
    with pytest.raises(DataFormatError, match="line 2: field larger than field limit"):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", "a" * 200_000, "b", 1, "relevant")])))
    with pytest.raises(
        DataFormatError,
        match=r"line 4: duplicate target b in relevant list of a on 2018-09-01 \(first seen at line 2\)",
    ):
        parse_snapshots(
            csv_file(snap_csv(
                [
                    ("2018-09-01", "a", "b", 1, "relevant"),
                    ("2018-09-01", "a", "c", 2, "relevant"),
                    ("2018-09-01", "a", "b", 3, "relevant"),
                ]
            ))
        )


def test_parse_snapshots_reports_a_bad_row_before_a_later_csv_error(csv_file):
    path = csv_file(snap_csv([
        ("2018-09-01", "a", "b", 1, "relevant"),
        ("2018-09-01", "a", "c", 0, "relevant"),
        ("2018-09-01", "a", "d", 3, "relevant"),
        ("2018-09-01", "a", "x" * (csv.field_size_limit() + 1), 4, "relevant"),
    ]))
    with pytest.raises(DataFormatError, match=r"^line 3: position 0 is below 1$"):
        parse_snapshots(path)


@pytest.mark.parametrize("parse, rows, message", [
    (parse_snapshots, ["2018-09-01,a,b,1,relevant", "2018-09-01,a,c,1,relevant"],
     "line 3: duplicate position 1 in relevant list of a on 2018-09-01 (first seen at line 2)"),
    (parse_views, ["v,2018-09-01,1", "v,2018-09-01,2"], "line 3: duplicate day 2018-09-01 for v"),
], ids=["snapshots", "views"])
def test_a_repeat_is_reported_before_a_later_csv_error(parse, rows, message, csv_file):
    header = SNAPSHOT_HEADER if parse is parse_snapshots else VIEWS_HEADER
    oversized = "x" * (csv.field_size_limit() + 1)
    path = csv_file("\n".join([",".join(header), *rows, rows[0].replace(",", f",{oversized}", 1)]) + "\n")
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        parse(path)


@pytest.mark.parametrize("bad", ["", "a\rb", "a\nb", "a\0b"])
@pytest.mark.parametrize("as_source", [True, False])
def test_from_snapshots_rejects_the_ids_the_parser_rejects(bad, as_source, csv_file):
    src, tgt = (bad, "x") if as_source else ("x", bad)
    with pytest.raises(DataFormatError) as parsed:
        parse_snapshots(csv_file(snap_csv([("2018-09-01", f'"{src}"', f'"{tgt}"', 1, "relevant")])))
    with pytest.raises(DataFormatError) as converted:
        _helpers.build_network([{src: [(tgt, 1)]}])
    # The same reason, without the parser's line number.
    assert str(parsed.value) == f"line 2: {converted.value}"


def test_parse_snapshots_rejects_gap_in_days(csv_file):
    src = snap_csv(
        [
            ("2018-09-01", "a", "b", 1, "relevant"),
            ("2018-09-03", "a", "b", 1, "relevant"),
        ]
    )
    with pytest.raises(DataFormatError, match="not consecutive, missing 2018-09-02"):
        parse_snapshots(csv_file(src))


def test_parse_snapshots_rejects_wrong_header_and_empty(csv_file):
    with pytest.raises(DataFormatError, match="line 1: expected header"):
        parse_snapshots(csv_file("a,b,c,d,e\n"))
    with pytest.raises(DataFormatError, match="empty file"):
        parse_snapshots(csv_file(""))
    with pytest.raises(DataFormatError, match="no rows"):
        parse_snapshots(csv_file("date,source_id,target_id,position,list_kind\n"))


def test_parse_views_basic_and_errors(csv_file):
    views = parse_views(csv_file("video_id,date,views\nw,2018-08-31,7\nv,2018-09-01,5\nv,2018-09-02,0\n"))
    assert views.ids.tolist() == ["v", "w"]
    assert views.start.tolist() == [date(2018, 9, 1).toordinal(), date(2018, 8, 31).toordinal()]
    assert views.bounds.tolist() == [0, 2, 3]
    assert views.values.tolist() == [5, 0, 7]

    with pytest.raises(DataFormatError, match="line 2: negative view count for v"):
        parse_views(csv_file("video_id,date,views\nv,2018-09-01,-1\n"))
    with pytest.raises(DataFormatError, match="line 3: duplicate day 2018-09-01 for v"):
        parse_views(csv_file("video_id,date,views\nv,2018-09-01,1\nv,2018-09-01,2\n"))
    with pytest.raises(DataFormatError, match="gap at 2018-09-02"):
        parse_views(csv_file("video_id,date,views\nv,2018-09-01,1\nv,2018-09-03,2\n"))
    with pytest.raises(DataFormatError, match="bad view count '1.5'"):
        parse_views(csv_file("video_id,date,views\nv,2018-09-01,1.5\n"))
    with pytest.raises(DataFormatError, match="line 2: view count 9223372036854775808 is too large"):
        parse_views(csv_file("video_id,date,views\nv,2018-09-01,9223372036854775808\n"))


# Python 3.11's date.fromisoformat accepts these, 3.10's does not; neither file may.
@pytest.mark.parametrize("text", ["20180901", "2018-W35-6"])
def test_dates_are_exactly_year_month_day(text, csv_file):
    for parse, rows in (
        (parse_snapshots, f"date,source_id,target_id,position,list_kind\n{text},a,b,1,relevant\n"),
        (parse_views, f"video_id,date,views\nv,{text},1\n"),
        (parse_metadata, f"video_id,artist_id,upload_date,genres\nv,a,{text},pop\n"),
    ):
        with pytest.raises(DataFormatError, match=re.escape(f"line 2: bad date {text!r}")):
            parse(csv_file(rows))


# int() accepts each of these.
@pytest.mark.parametrize("text", ["+5", " 5", "5 ", "1_0", "\u0665"])
def test_positions_and_view_counts_are_ascii_digits(text, csv_file):
    with pytest.raises(DataFormatError, match=re.escape(f"line 2: bad position {text!r}")):
        parse_snapshots(csv_file(snap_csv([("2018-09-01", "a", "b", text, "relevant")])))
    with pytest.raises(DataFormatError, match=re.escape(f"line 2: bad view count {text!r}")):
        parse_views(csv_file(f"video_id,date,views\nv,2018-09-01,{text}\n"))


def test_non_utf8_input_is_a_data_error(tmp_path):
    path = tmp_path / "views.csv"
    path.write_bytes(b"video_id,date,views\nv\xff,2018-09-01,1\n")
    with pytest.raises(DataFormatError, match="not UTF-8 text: invalid start byte"):
        parse_views(path)


def test_parse_metadata_genres(csv_file):
    meta = parse_metadata(
        csv_file(
            "video_id,artist_id,upload_date,genres\n"
            "v1,a1,2018-01-01,pop|rock\n"
            "v2,a1,2018-01-02,\n"
        )
    )
    assert meta["v1"].genres == frozenset({"pop", "rock"})
    assert meta["v2"].genres == frozenset()
    with pytest.raises(DataFormatError, match="line 3: duplicate metadata for v1"):
        parse_metadata(
            csv_file(
                "video_id,artist_id,upload_date,genres\nv1,a1,2018-01-01,\nv1,a2,2018-01-01,\n"
            )
        )


@pytest.mark.parametrize("bad", ["v\r1", "v\n1"])
def test_views_and_metadata_apply_the_id_rule(bad, csv_file):
    with pytest.raises(DataFormatError, match=r"line 3: video id .* holds a NUL or line break"):
        parse_views(csv_file(f'video_id,date,views\nv,2018-09-01,1\n"{bad}",2018-09-01,1\n'))
    header = "video_id,artist_id,upload_date,genres\nv,a,2018-01-01,pop\n"
    for row, what in (
        (f'"{bad}",a,2018-01-01,pop', "video id"),
        (f'w,"{bad}",2018-01-01,pop', "artist id"),
        (f'w,a,2018-01-01,"pop|{bad}"', "genre"),
    ):
        with pytest.raises(DataFormatError, match=rf"line 3: {what} .* holds a NUL or line break"):
            parse_metadata(csv_file(header + row + "\n"))


@pytest.mark.parametrize("parse, text, message", [
    (parse_metadata, "v,a,2018-01-01,pop\n,a,2018-01-01,pop\n", "line 3: empty video id"),
    (parse_metadata, "v,a,2018-01-01,pop\nw,,2018-01-01,pop\n", "line 3: empty artist id"),
    (parse_snapshots, "2018-09-01,a,b,1,relevant\n2018-09-01,,b,2,relevant\n", "line 3: empty video id"),
    (parse_snapshots, "2018-09-01,a,b,1,relevant\n2018-09-01,a,,2,relevant\n", "line 3: empty video id"),
    (parse_views, "v,2018-09-01,1\n,2018-09-01,1\n", "line 3: empty video id"),
], ids=["metadata video", "metadata artist", "snapshots source", "snapshots target", "views"])
def test_an_empty_id_names_its_kind_and_line(parse, text, message, csv_file):
    header = {parse_metadata: METADATA_HEADER, parse_snapshots: SNAPSHOT_HEADER, parse_views: VIEWS_HEADER}[parse]
    with pytest.raises(DataFormatError, match=f"^{message}$"):
        parse(csv_file(",".join(header) + "\n" + text))


# Ids and genres drawn with the characters a CSV writer treats specially.  NUL
# is left out: Python 3.10's csv reader rejects it before the id rule runs.
FIELD = st.text(st.one_of(st.sampled_from(',"|\r\n '), st.characters(blacklist_categories=("Cs",),
                                                                     blacklist_characters="\0")),
                min_size=1, max_size=4)
START = datagen.START_DATE


def _quoted_csv(header, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([header, *rows])
    return buf.getvalue()


def _reparsed(csv_file, parse, serialize, text, fields):
    """None when a field breaks the id rule and the parser rejects it; else the
    first parse and the parse of its serialization, which must serialize the same."""
    if any(c in field for field in fields for c in "\r\n"):
        with pytest.raises(DataFormatError, match="holds a NUL or line break"):
            parse(csv_file(text))
        return None
    first = parse(csv_file(text))
    again = parse(csv_file(serialize(first)))
    assert serialize(again) == serialize(first)
    return first, again


@given(st.dictionaries(FIELD, st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2**63 - 1), min_size=1,
                                                                     max_size=3)), min_size=1, max_size=4))
def test_views_parse_serialize_round_trip(csv_file, series):
    rows = [(vid, START + timedelta(days=d + i), count)
            for vid, (d, counts) in series.items() for i, count in enumerate(counts)]
    parsed = _reparsed(csv_file, parse_views, serialize_views, _quoted_csv(VIEWS_HEADER, rows), series)
    if parsed:
        first, again = parsed
        for column in ("ids", "start", "bounds", "values"):
            assert getattr(again, column).tolist() == getattr(first, column).tolist()
        assert first.ids.tolist() == sorted(series)


@given(st.dictionaries(FIELD, st.tuples(FIELD, st.integers(0, 400), st.lists(FIELD, max_size=3)),
                       min_size=1, max_size=4))
def test_metadata_parse_serialize_round_trip(csv_file, meta):
    rows = [(vid, artist, START - timedelta(days=d), "|".join(genres))
            for vid, (artist, d, genres) in meta.items()]
    fields = [field for row in rows for field in (row[0], row[1], row[3])]
    parsed = _reparsed(csv_file, parse_metadata, serialize_metadata, _quoted_csv(METADATA_HEADER, rows), fields)
    if parsed:
        first, again = parsed
        assert again == first
        assert sorted(first) == sorted(meta)


# Python 3.13's csv module quotes a CR too; the canonical files keep the bare CR
# of 3.10-3.12, so they do not depend on the Python version.
WRITTEN = FIELD if sys.version_info < (3, 13) else FIELD.filter(lambda text: "\r" not in text)


@given(st.lists(WRITTEN, min_size=1, max_size=5, unique=True), st.data())
def test_serialize_snapshots_writes_what_the_csv_module_writes(names, data):
    code = st.integers(0, len(names) - 1)
    rows = data.draw(st.lists(st.tuples(st.integers(0, 2), code, code, st.integers(1, 20), st.integers(0, 1)),
                              max_size=20))
    day, src, tgt, pos, kind = np.array(rows, dtype=np.int32).reshape(-1, 5).T
    table = SnapshotTable(np.array(sorted(names), dtype=str), day, src, tgt, pos, kind.astype(np.int8))
    network = DynamicNetwork(ObservationWindow(START, 3), table)
    assert serialize_snapshots(network) == _oracles.csv_snapshots(network)


@given(st.dictionaries(WRITTEN, st.tuples(st.dates(date(1900, 1, 1), date(2100, 1, 1)),
                                          st.lists(st.integers(0, 2**63 - 1), max_size=3)), max_size=4))
def test_serialize_views_writes_what_the_csv_module_writes(series):
    assert serialize_views(_helpers.view_table(series)) == _oracles.serialize_views(series)


@given(st.dictionaries(WRITTEN, st.tuples(WRITTEN, st.dates(), st.frozensets(WRITTEN, max_size=3)), max_size=4))
def test_serialize_metadata_writes_what_the_csv_module_writes(meta):
    metadata = {vid: VideoMeta(artist, genres, day) for vid, (artist, day, genres) in meta.items()}
    assert serialize_metadata(metadata) == _oracles.csv_metadata(metadata)


_EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16])
# The cells of one artifact column, all of one type; the texts hold ",", '"', LF, spaces
# and non-ASCII letters, and often one of them alone, so that a block holds no other.
_CELLS = {
    str: st.sampled_from([",", "a,b", '"', "\n", " a ", "é"]) | WRITTEN,
    bool: st.booleans(),
    np.bool_: st.booleans().map(np.bool_),
    int: st.integers(-2**63, 2**63 - 1),
    np.int64: st.integers(-2**63, 2**63 - 1).map(np.int64),
    float: st.floats() | _EDGE_FLOATS,
    np.float64: (st.floats() | _EDGE_FLOATS).map(np.float64),
}


@given(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=5), st.integers(0, 6),
       st.integers(1, 4), st.data())
def test_write_csv_writes_what_the_row_writer_wrote(kinds, n_rows, block_rows, data):
    columns = [data.draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    arrays = data.draw(st.lists(st.booleans(), min_size=len(kinds), max_size=len(kinds)))
    header = [f"c{j}" for j in range(len(kinds))]
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_WRITE_ROWS", block_rows)  # most draws span several blocks
        written, oracle = Path(directory, "new", "a.csv"), Path(directory, "old", "a.csv")
        data_model.write_csv(written, header, [np.array(c) if a else c for c, a in zip(columns, arrays)])
        _oracles.write_csv(oracle, header, zip(*columns))
        assert written.read_bytes() == oracle.read_bytes()


def test_write_csv_writes_the_header_alone_for_no_rows(tmp_path):
    header = ["video_id", "flag", "count", "value"]
    data_model.write_csv(tmp_path / "empty.csv", header, [[], np.array([], dtype=bool), (), np.array([])])
    _oracles.write_csv(tmp_path / "oracle.csv", header, [])
    written = (tmp_path / "empty.csv").read_bytes()
    assert written == (tmp_path / "oracle.csv").read_bytes() == b"video_id,flag,count,value\n"


@given(st.floats(min_value=0.0, allow_infinity=False))
def test_the_writer_gives_every_finite_non_negative_float_a_text_the_readers_take(value):
    for column in ([value], np.array([value])):
        (text,) = data_model._column_texts(column)
        assert data_model.FLOAT_TEXT.fullmatch(text)
        assert float(text) == value
        assert cli._finite(text) == value  # what evaluate reads from forecasts.csv


def test_ranked_list_invariants():
    with pytest.raises(DataFormatError, match="strictly increasing"):
        RankedList("a", (("b", 2), ("c", 2)), "relevant")
    with pytest.raises(DataFormatError, match="duplicate target b"):
        RankedList("a", (("b", 1), ("b", 2)), "relevant")
    with pytest.raises(DataFormatError, match="self-link"):
        RankedList("a", (("a", 1),), "recommended")
    with pytest.raises(DataFormatError, match="unknown list kind"):
        RankedList("a", (("b", 1),), "other")


def test_window_index_and_contains():
    win = ObservationWindow(date(2018, 9, 1), 3)
    assert win.end == date(2018, 9, 3)
    assert win.index(date(2018, 9, 2)) == 1
    assert date(2018, 9, 3) in win
    assert date(2018, 9, 4) not in win
    with pytest.raises(KeyError):
        win.index(date(2018, 9, 4))
    with pytest.raises(DataFormatError):
        ObservationWindow(date(2018, 9, 1), 0)


def test_validate_flags_external_ids(capsys):
    ds = _helpers.build_dataset(
        views={"a": [100] * 3, "b": [50] * 3},
        daily_edges=[("a", "b", 1), ("a", "x", 2)],
    )
    assert ds.corpus == frozenset({"a", "b"})
    cli.cmd_validate(None, {}, ds)
    record = json.loads(capsys.readouterr().out)
    assert record["n_external_targets"] == 1
    assert record["mean_edges_per_day"] == 2.0
    # an id outside the corpus that only ever lists others is no external target
    ds = _helpers.build_dataset(
        views={"a": [100] * 3, "b": [50] * 3},
        daily_edges=[("y", "a", 1), ("a", "b", 1)],
    )
    cli.cmd_validate(None, {}, ds)
    assert json.loads(capsys.readouterr().out)["n_external_targets"] == 0


def test_validate_rejects_missing_or_short_series():
    net = _helpers.build_network([{}, {}])
    meta = {"v": _helpers.VideoMeta("a0", frozenset(), date(2018, 9, 1))}
    with pytest.raises(DataFormatError, match="corpus video v has no view series"):
        validate_dataset(meta, _helpers.view_table({}), net)  # an empty table
    with pytest.raises(DataFormatError, match="corpus video v has no view series"):
        validate_dataset(meta, _helpers.view_table({"u": (date(2018, 9, 1), [1, 2])}), net)
    short = _helpers.view_table({"v": (date(2018, 9, 1), [1])})
    with pytest.raises(DataFormatError, match=r"spans 2018-09-01\.\.2018-09-01, window needs 2018-09-01\.\.2018-09-02$"):
        validate_dataset(meta, short, net)
    late = _helpers.view_table({"v": (date(2018, 9, 2), [1, 2])})
    with pytest.raises(DataFormatError, match=r"spans 2018-09-02\.\.2018-09-03, window needs"):
        validate_dataset(meta, late, net)


def test_validate_rejects_negative_counts_in_a_built_table():
    net = _helpers.build_network([{}])
    meta = {"v": _helpers.VideoMeta("a0", frozenset(), date(2018, 9, 1))}
    views = _helpers.view_table({"u": (date(2018, 9, 1), [1]), "v": (date(2018, 9, 1), [2, -1])})
    with pytest.raises(DataFormatError, match="^view series for v contains negative counts$"):
        validate_dataset(meta, views, net)


def test_validate_rejects_upload_after_first_observation():
    net = _helpers.build_network([{}])
    meta = {"v": _helpers.VideoMeta("a0", frozenset(), date(2018, 9, 5))}
    views = _helpers.view_table({"v": (date(2018, 9, 1), [1, 2, 3, 4, 5])})
    with pytest.raises(DataFormatError, match="uploaded 2018-09-05"):
        validate_dataset(meta, views, net)


def test_longer_series_is_sliced_on_access():
    net = _helpers.build_network([{}, {}])
    meta = {"v": _helpers.VideoMeta("a0", frozenset(), date(2018, 8, 1))}
    views = _helpers.view_table({"u": (date(2018, 9, 1), [5, 6]), "v": (date(2018, 8, 30), [9, 9, 3, 4, 9])})
    ds = validate_dataset(meta, views, net)
    (k,) = ds.codes(["v"])
    assert np.array_equal(ds.window_views[k], [3, 4])
    assert np.array_equal(ds.window_views[:, ds.window.index(date(2018, 9, 2))], [4])


def test_dataset_ids_are_the_graph_code_space():
    dataset, _ = datagen.generate(datagen.GenConfig(n_videos=12, n_artists=3, days=21, seed=5))
    presence = daily_link_presence(dataset.network, dataset.corpus)
    graph = build_graph(dataset.network.snapshots[0], dataset.corpus)
    assert dataset.ids.tolist() == sorted(dataset.corpus)
    assert np.array_equal(dataset.ids, presence.ids)
    assert dataset.ids.tolist() == list(graph.ids)
    assert dataset.window_views.shape == (12, 21)
    assert dataset.codes(["v00003", "v00000", "v00003"]).tolist() == [3, 0, 3]
    assert dataset.codes([]).tolist() == []


def test_window_views_and_ids_are_read_only():
    ds = _helpers.build_dataset(views={"a": [1, 2], "b": [3, 4]})
    with pytest.raises(ValueError, match="read-only"):
        ds.window_views[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        ds.ids[0] = "z"
    assert ds.window_views.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("vid", ["zz", "", "a\0", "a ", "0"])
def test_codes_reject_non_corpus_ids(vid):
    ds = _helpers.build_dataset(views={"a": [1, 2], "b": [3, 4]})
    with pytest.raises(DataFormatError, match=f"^{re.escape(vid)} is not a corpus video$"):
        ds.codes(["b", vid])


def test_serialization_is_canonical_under_row_shuffle(csv_file):
    rows = [
        ("2018-09-02", "b", "a", 1, "recommended"),
        ("2018-09-01", "b", "c", 2, "relevant"),
        ("2018-09-01", "a", "b", 1, "relevant"),
        ("2018-09-01", "b", "a", 1, "relevant"),
        ("2018-09-02", "a", "c", 3, "relevant"),
    ]
    text_a = serialize_snapshots(parse_snapshots(csv_file(snap_csv(rows))))
    text_b = serialize_snapshots(parse_snapshots(csv_file(snap_csv(rows[::-1]))))
    assert text_a == text_b
    # relevant rows sort before recommended for the same source
    lines = text_a.strip().split("\n")
    assert lines[0] == "date,source_id,target_id,position,list_kind"
    assert lines[1] == "2018-09-01,a,b,1,relevant"
    assert lines[-1] == "2018-09-02,b,a,1,recommended"


def test_round_trip_through_files(tmp_path):
    cfg = datagen.GenConfig(n_videos=8, n_artists=3, days=10, edge_density=0.2, seed=4)
    dataset, _ = datagen.generate(cfg)
    datagen.export_dataset(dataset, tmp_path)
    reloaded = load_dataset(tmp_path)
    assert serialize_snapshots(reloaded.network) == serialize_snapshots(dataset.network)
    assert np.array_equal(reloaded.window_views, dataset.window_views)
    assert serialize_metadata(reloaded.metadata) == serialize_metadata(dataset.metadata)
    assert reloaded.corpus == dataset.corpus
    # a load keeps only the window's views, and an export of it writes the same files
    again = tmp_path / "again"
    datagen.export_dataset(reloaded, again)
    for name in ("snapshots.csv", "views.csv", "metadata.csv"):
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()


def test_a_load_keeps_no_view_table_and_the_export_writes_the_window(tmp_path, monkeypatch):
    # The views run from before the window to after it, and z has no metadata.
    data, again = tmp_path / "data", tmp_path / "again"
    data.mkdir()
    window = [date(2018, 9, 1) + timedelta(days=i) for i in range(3)]
    snapshots = snap_csv([(day, "a", "b", 1, "relevant") for day in window])
    (data / "snapshots.csv").write_text(snapshots, encoding="utf-8")
    series = {"a": (date(2018, 8, 30), [1, 2, 3, 4, 5, 6, 7]), "b": (date(2018, 8, 31), [8, 9, 10, 11, 12]),
              "z": (date(2018, 9, 1), [13, 14])}
    (data / "views.csv").write_text(serialize_views(_helpers.view_table(series)), encoding="utf-8")
    (data / "metadata.csv").write_text(
        "video_id,artist_id,upload_date,genres\na,x,2018-01-01,\nb,x,2018-01-01,pop\n", encoding="utf-8")
    tables = []

    def parse_views_kept(source):
        table = parse_views(source)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(data_model, "parse_views", parse_views_kept)
    dataset = load_dataset(data)
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None
    assert dataset.window_views.tolist() == [[3, 4, 5], [9, 10, 11]]
    datagen.export_dataset(dataset, again)
    assert np.array_equal(load_dataset(again).window_views, dataset.window_views)
    assert (again / "views.csv").read_text(encoding="utf-8") == (
        "video_id,date,views\na,2018-09-01,3\na,2018-09-02,4\na,2018-09-03,5\n"
        "b,2018-09-01,9\nb,2018-09-02,10\nb,2018-09-03,11\n")


def test_load_dataset_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_dataset(tmp_path)
