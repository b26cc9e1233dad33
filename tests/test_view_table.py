"""``ViewTable`` checks and writing against the per-video code in ``_oracles``.

``validate_dataset`` checks every corpus video's view counts at once and cuts
the window matrix with one gather; ``serialize_views`` writes the rows from
the table's arrays.  The oracles do both one video at a time over
``{id: (first day, counts)}``.
"""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

import _helpers
import _oracles
from aflow.data_model import DataFormatError, VideoMeta, parse_views, serialize_views, validate_dataset

# Ids holding the characters a CSV writer quotes, and one it does not need to.
ID = st.text(st.sampled_from('ab,"| \'é'), min_size=1, max_size=4)
COUNT = st.integers(0, 2**63 - 1)
START = date(2018, 9, 1)


def _outcome(fn):
    try:
        return "ok", fn()
    except DataFormatError as exc:
        return "error", str(exc)


def _same_as_oracle(metadata, views, n_days):
    """validate_dataset and the oracle raise the same message or build the same matrix."""
    network = _helpers.build_network([{}] * n_days, start=START)
    got = _outcome(lambda: validate_dataset(metadata, _helpers.view_table(views), network).window_views)
    want = _outcome(lambda: _oracles.window_views(metadata, views, network.window))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert got[1].dtype == want[1].dtype == np.int64
        assert np.array_equal(got[1], want[1]) and got[1].shape == want[1].shape
    return got


@st.composite
def view_cases(draw):
    """(metadata, views, window days): corpus videos with and without view counts, view
    counts of non-corpus ids, and starts, lengths and upload dates on both sides of the window."""
    n_days = draw(st.integers(1, 4))
    metadata, views = {}, {}
    for vid in draw(st.lists(ID, min_size=1, max_size=6, unique=True)):
        role = draw(st.sampled_from(["corpus"] * 4 + ["missing", "not in corpus"]))
        start = START + timedelta(days=draw(st.integers(-3, 1)))
        if role != "not in corpus":
            upload = start + timedelta(days=draw(st.integers(-2, 1)))
            metadata[vid] = VideoMeta("a0", frozenset(), upload)
        if role != "missing":
            views[vid] = (start, draw(st.lists(COUNT, min_size=1, max_size=n_days + 5)))
    if views and draw(st.integers(0, 9)) == 0:
        vid = draw(st.sampled_from(sorted(views)))
        views[vid][1][draw(st.integers(0, len(views[vid][1]) - 1))] = -1
    return metadata, views, n_days


@given(view_cases())
def test_validate_matches_the_per_video_checks(case):
    _same_as_oracle(*case)


def test_several_bad_videos_are_reported_in_id_order():
    def meta(vid, upload=START - timedelta(days=9)):
        return VideoMeta("a0", frozenset(), upload)

    metadata = {vid: meta(vid) for vid in "abcde"}
    metadata["d"] = meta("d", START + timedelta(days=1))
    views = {
        "b": (START + timedelta(days=1), [1, 2, 3]),  # starts late
        "c": (START - timedelta(days=1), [1, 2]),  # ends early
        "d": (START, [1, 2, 3]),  # uploaded after its first day
        "e": (START - timedelta(days=2), [7, 8, 9, 10, 11]),
    }
    messages = [
        "corpus video a has no view series",
        "view series for b spans 2018-09-02..2018-09-04, window needs 2018-09-01..2018-09-03",
        "view series for c spans 2018-08-31..2018-09-01, window needs 2018-09-01..2018-09-03",
        "d uploaded 2018-09-02, after its first observed day 2018-09-01",
    ]
    for vid, message in zip("abcd", messages):
        assert _same_as_oracle(metadata, views, 3) == ("error", message)
        del metadata[vid]
    status, matrix = _same_as_oracle(metadata, views, 3)
    assert status == "ok" and matrix.tolist() == [[9, 10, 11]]


def test_an_empty_corpus_has_an_empty_matrix():
    ds = validate_dataset({}, _helpers.view_table({"x": (START, [1, 2])}), _helpers.build_network([{}, {}]))
    assert ds.window_views.shape == (0, 2) and ds.window_views.dtype == np.int64
    assert serialize_views(_helpers.view_table({})) == "video_id,date,views\n"


def test_serialize_views_rejects_a_negative_count():
    # The readers never give one; a table built by hand may, and its digits cannot spell it.
    with pytest.raises(DataFormatError, match="^view counts must not be negative$"):
        serialize_views(_helpers.view_table({"a": (START, [3, -5])}))


@given(st.dictionaries(ID, st.tuples(st.dates(date(1900, 1, 1), date(2100, 1, 1)),
                                     st.lists(COUNT, min_size=1, max_size=4)), max_size=5))
def test_serialize_views_matches_the_per_video_writer(csv_file, series):
    table = _helpers.view_table(series)
    text = serialize_views(table)
    assert text == _oracles.serialize_views(series)
    if series:
        again = parse_views(csv_file(text))
        for column in ("ids", "start", "bounds", "values"):
            assert getattr(again, column).tolist() == getattr(table, column).tolist()


@pytest.mark.parametrize("first", ["a", "z"])
def test_a_gap_names_the_first_video_in_the_file(tmp_path, first):
    # Both videos have a gap; the one whose rows come first is named, whichever sorts first.
    rows = {vid: [f"{vid},2018-09-01,1", f"{vid},2018-09-03,1"] for vid in "az"}
    order = [first, "z" if first == "a" else "a"]
    path = tmp_path / "views.csv"
    path.write_text("\n".join(["video_id,date,views", *rows[order[0]], *rows[order[1]]]) + "\n")
    with pytest.raises(DataFormatError, match=f"^view series for {first} has a gap at 2018-09-02$"):
        parse_views(path)
