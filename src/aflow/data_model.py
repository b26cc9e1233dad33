"""Core data types, CSV parsing, validation and canonical serialization.

All input files are CSV as Python's ``csv`` module reads it: a header row,
LF or CRLF line endings, and optional ``"`` quoting.  Three file kinds exist:

* snapshots:  ``date,source_id,target_id,position,list_kind``
* views:      ``video_id,date,views``
* metadata:   ``video_id,artist_id,upload_date,genres`` (genres joined by ``|``)

Every reader takes a file path.  Dates are exactly ``YYYY-MM-DD``; positions
and view counts are ASCII digits.  Video ids, artist ids and genre names are
non-empty and hold no NUL, CR or LF; the same id rule covers the video ids of
the ``persistent_edges.csv`` and ``forecasts.csv`` artifacts.  Parsing is
strict: malformed rows raise :class:`DataFormatError` with the offending line
number, there is no silent repair and no imputation.

Snapshots and views files, LF or CRLF, are first split as bytes with numpy.  A file
whose bytes or single rows the split cannot prove clean (quoting, a CR outside a CRLF
line end, NUL or non-ASCII bytes, a blank line, a malformed row or one failing a check
of its own fields) goes unchanged to the csv row reader, which reports single-row errors.
Both paths end in one tail per file kind, which reports faults across rows (a repeated
position, target or view day, a missing day): both give the same result and message.

Canonical serialization builds every CSV aflow writes as bytes, ``_WRITE_ROWS`` rows at a
time, in one function, :func:`_csv_rows`.  Each column's distinct fields are one uint8 table,
NUL-padded; a block's cells are gathered from the tables into one rows x width uint8 matrix,
positions and view counts spelled into it by digit arithmetic, and one boolean mask drops the
NULs.  This needs fields without NUL: the formats forbid it in ids and genre names, and no
date, number or list kind holds one.  The ``*_blocks`` writers yield the blocks for
:func:`write_blocks`, whose memory grows with a block (and, for snapshots, one day's rows),
not with the file; the ``serialize_*`` functions join them into the whole text.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

LIST_KINDS = ("relevant", "recommended")

T = TypeVar("T")

SNAPSHOT_HEADER = ("date", "source_id", "target_id", "position", "list_kind")
VIEWS_HEADER = ("video_id", "date", "views")
METADATA_HEADER = ("video_id", "artist_id", "upload_date", "genres")
DATASET_FILES = ("snapshots.csv", "views.csv", "metadata.csv")  # under one data directory
WINDOW_DAYS = 63  # the paper's observation window
SEED = 0  # of the generators and simulations that take a seed


class DataFormatError(ValueError):
    """An input file or assembled dataset violates the documented format."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a usable result."""


# One grammar on every Python version: 3.11's date.fromisoformat also takes
# 20180901 and 2018-W35-6, and int() takes signs, spaces, underscores and
# non-ASCII digits.
_DATE_TEXT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_INT_TEXT = re.compile(r"-?[0-9]+")


def date_or_none(text: str) -> date | None:
    """The date ``text`` spells as ``YYYY-MM-DD``, or None."""
    if _DATE_TEXT.fullmatch(text):
        try:
            return date.fromisoformat(text)
        except ValueError:
            pass
    return None


def int_or_none(text: str) -> int | None:
    """The integer ``text`` spells in ASCII digits after an optional ``-``, or None."""
    if _INT_TEXT.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


# Characters of a cell that an error message echoes; a longer cell is cut and its length given.
_SHOWN_CHARS = 40


def _shown(text: str, form: Callable[[str], str] = str) -> str:
    """``form(text)`` for an error message; a text over ``_SHOWN_CHARS`` characters is cut to
    them, and its length follows."""
    if len(text) <= _SHOWN_CHARS:
        return form(text)
    return f"{form(text[:_SHOWN_CHARS])}… ({len(text)} characters)"


def cell(convert: Callable[[str], T | None], text: str, line_no: int, what: str) -> T:
    """``convert(text)`` of a cell of the row at ``line_no``; a None result is a bad cell, an
    error at that line.  The message is only built for a bad cell."""
    value = convert(text)
    if value is None:
        raise DataFormatError(f"line {line_no}: bad {what} {_shown(text, repr)}")
    return value


@dataclass(frozen=True)
class ObservationWindow:
    """Consecutive daily observation period.

    Attributes:
        start: First observed calendar day.
        n_days: Number of consecutive days, at least 1.
    """

    start: date
    n_days: int

    def __post_init__(self) -> None:
        if self.n_days < 1:
            raise DataFormatError("observation window must span at least one day")

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.n_days - 1)

    def dates(self) -> list[date]:
        return [self.start + timedelta(days=i) for i in range(self.n_days)]

    def index(self, d: date) -> int:
        i = (d - self.start).days
        if not 0 <= i < self.n_days:
            raise KeyError(f"{d} outside window {self.start}..{self.end}")
        return i

    def __contains__(self, d: date) -> bool:
        return self.start <= d <= self.end


@dataclass(frozen=True)
class VideoMeta:
    """Static attributes of one video."""

    artist_id: str
    genres: frozenset[str]
    upload_date: date


@dataclass(frozen=True, eq=False)
class ViewTable:
    """Daily view counts of every video in one table.

    ``ids`` holds the distinct video ids as a sorted numpy string array.  Video
    ``ids[k]`` has the counts ``values[bounds[k] : bounds[k + 1]]`` on the
    consecutive days from the date ordinal ``start[k]`` on.  ``start``,
    ``bounds`` and ``values`` are int64.
    """

    ids: np.ndarray
    start: np.ndarray
    bounds: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class RankedList:
    """One ranked list shown on a source video's page on one day.

    Entries are (target_id, position) pairs sorted by strictly increasing
    position.  Positions are 1-based and need not be contiguous.  Targets are
    distinct and never equal to the source.
    """

    source: str
    entries: tuple[tuple[str, int], ...]
    list_kind: str

    def __post_init__(self) -> None:
        if self.list_kind not in LIST_KINDS:
            raise DataFormatError(f"unknown list kind {self.list_kind!r}")
        prev = 0
        seen: set[str] = set()
        for target, pos in self.entries:
            if pos <= prev:
                raise DataFormatError(
                    f"positions in {self.list_kind} list of {self.source} "
                    "must be strictly increasing and >= 1"
                )
            if target == self.source:
                raise DataFormatError(f"self-link in list of {self.source}")
            if target in seen:
                raise DataFormatError(
                    f"duplicate target {target} in {self.list_kind} list of {self.source}"
                )
            seen.add(target)
            prev = pos


@dataclass(frozen=True)
class DailySnapshot:
    """All ranked lists observed on one day, separated by list kind."""

    date: date
    relevant: Mapping[str, RankedList]
    recommended: Mapping[str, RankedList]


@dataclass(frozen=True, eq=False)
class SnapshotTable:
    """Every snapshot row as integer columns over one sorted id vocabulary.

    ``ids`` holds the distinct video ids as a sorted numpy string array, so
    the order of two codes is the order of their ids.  Row i says that on
    window day ``day[i]`` the ``LIST_KINDS[kind[i]]`` list of ``ids[src[i]]``
    ranks ``ids[tgt[i]]`` at position ``pos[i]``.  Rows are sorted by
    (day, kind, src, pos), so each day, and each list within it, is one
    contiguous run.
    """

    ids: np.ndarray
    day: np.ndarray
    src: np.ndarray
    tgt: np.ndarray
    pos: np.ndarray
    kind: np.ndarray

    @classmethod
    def from_codes(
        cls, names: Sequence[str] | np.ndarray, day: np.ndarray, src: np.ndarray, tgt: np.ndarray,
        pos: np.ndarray, kind: np.ndarray,
    ) -> SnapshotTable:
        """Sort ``names``, a list or a numpy str array, into the id vocabulary, recode and sort the rows.

        Rejects a name that :func:`_id_problem` rejects; the rows are not checked.
        Names already in strictly increasing order are not sorted again.
        """
        ids, src, tgt = _in_id_order(names, src, tgt)
        day, pos = np.asarray(day, dtype=np.int32), np.asarray(pos, dtype=np.int32)
        kind = np.asarray(kind, dtype=np.int8)
        rows = _row_order(day, kind, src, pos)
        return cls(ids, day[rows], src[rows], tgt[rows], pos[rows], kind[rows])


@dataclass(frozen=True, eq=False)
class DynamicNetwork:
    """Daily ranked-list snapshots over a consecutive observation window.

    The :class:`SnapshotTable` is the only stored form.  ``snapshots`` and
    ``snapshot_on`` build :class:`DailySnapshot` views from it on demand.
    """

    window: ObservationWindow
    table: SnapshotTable

    @property
    def snapshots(self) -> tuple[DailySnapshot, ...]:
        return tuple(self._snapshot(i) for i in range(self.window.n_days))

    def snapshot_on(self, d: date) -> DailySnapshot:
        return self._snapshot(self.window.index(d))

    def _snapshot(self, i: int) -> DailySnapshot:
        t = self.table
        lo, hi = np.searchsorted(t.day, [i, i + 1])
        src, kind = t.src[lo:hi], t.kind[lo:hi]
        opens_list = np.ones(hi - lo, dtype=bool)
        opens_list[1:] = (src[1:] != src[:-1]) | (kind[1:] != kind[:-1])
        starts = np.flatnonzero(opens_list).tolist()
        targets = t.ids[t.tgt[lo:hi]].tolist()
        positions = t.pos[lo:hi].tolist()
        lists: tuple[dict[str, RankedList], dict[str, RankedList]] = ({}, {})
        for a, b in zip(starts, starts[1:] + [hi - lo]):
            name, k = str(t.ids[src[a]]), int(kind[a])
            entries = tuple(zip(targets[a:b], positions[a:b]))
            lists[k][name] = RankedList(name, entries, LIST_KINDS[k])
        return DailySnapshot(self.window.start + timedelta(days=i), lists[0], lists[1])


@dataclass(frozen=True, eq=False)
class Dataset:
    """Validated bundle of metadata, view counts and the dynamic network.

    ``corpus`` holds every id with metadata; snapshots may name other ids
    too, which graph construction drops.  ``ids`` holds the corpus sorted, as
    ``DirectedGraph.ids`` does, and row k of the read-only int64 matrix
    ``window_views`` holds the window's daily views of ``ids[k]``: the only
    view counts kept.
    """

    metadata: Mapping[str, VideoMeta]
    network: DynamicNetwork
    corpus: frozenset[str]
    ids: np.ndarray
    window_views: np.ndarray

    @property
    def window(self) -> ObservationWindow:
        return self.network.window

    def codes(self, video_ids: Iterable[str]) -> np.ndarray:
        """The corpus code of each id; a non-corpus id is a :class:`DataFormatError`."""
        names = list(video_ids)
        for name in names:
            if name not in self.corpus:
                raise DataFormatError(f"{name} is not a corpus video")
        return np.searchsorted(self.ids, np.array(names, dtype=str))


# ---------------------------------------------------------------------------
# parsing


def csv_rows(path: str | Path, expected_header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_no, row) pairs of the file's non-blank rows after checking its header row.

    The row reader of every CSV that aflow reads, inputs and artifacts alike: a row whose
    field count is not the header's is an error at its line, and each reader checks its
    cells with :func:`cell`.  Errors name no file, :func:`parse_file` adds the path.
    """
    n_fields = len(expected_header)
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        line_no = 1  # the first line of the row being read: a quoted cell may span several
        try:
            header = next(reader, None)
            if header is None:
                raise DataFormatError("empty file, expected a header row")
            if tuple(header) != tuple(expected_header):
                raise DataFormatError(
                    f"line 1: expected header {','.join(expected_header)!r}, "
                    f"got {','.join(header)!r}"
                )
            line_no = reader.line_num + 1
            for row in reader:
                if row:
                    if len(row) != n_fields:
                        raise DataFormatError(f"line {line_no}: expected {n_fields} fields, got {len(row)}")
                    yield line_no, row
                line_no = reader.line_num + 1
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise DataFormatError(f"line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text: {exc.reason}") from None


_MAX_POSITION = np.iinfo(np.int32).max
_MAX_VIEWS = np.iinfo(np.int64).max
_INT64_MAX = int(_MAX_VIEWS)  # the largest key _row_order packs
_COUNT_DIGITS = len(str(_INT64_MAX))  # no position or view count has more significant digits
# numpy string arrays drop trailing NULs, and the canonical writer leaves a
# carriage return unquoted, so ids holding these would not survive a round trip.
_FORBIDDEN_ID_CHARS = "\0\r\n"


def _id_problem(text: str, what: str = "video id") -> str | None:
    """Why ``text`` cannot be a ``what`` (an id or a genre name), or None when it can."""
    if not text:
        return f"empty {what}"
    if any(c in text for c in _FORBIDDEN_ID_CHARS):
        return f"{what} {_shown(text, repr)} holds a NUL or line break"
    return None


def _bad_ids(ids: Sequence[str]) -> list[int]:
    """Indices of the ids that :func:`_id_problem` rejects; one joined scan when none is."""
    joined = "\t".join(ids)
    if "" not in ids and not any(c in joined for c in _FORBIDDEN_ID_CHARS):
        return []
    return [i for i, vid in enumerate(ids) if _id_problem(vid)]


def _id_array(names: Sequence[str] | np.ndarray) -> np.ndarray:
    """``names`` as a numpy str array; a name that :func:`_id_problem` rejects is a
    :class:`DataFormatError`, found in a list by :func:`_bad_ids` and in an array by
    one scan over its code points."""
    if not isinstance(names, np.ndarray):
        if bad := _bad_ids(names):  # checked as str: the conversion drops trailing NULs
            raise DataFormatError(_id_problem(names[bad[0]]))
        return np.array(names, dtype=str)
    points = np.ascontiguousarray(names).reshape(-1, 1).view(np.uint32)  # one row per name, NUL-padded
    filled = points != 0
    bad = (points == ord("\r")) | (points == ord("\n"))
    bad[:, 0] |= ~filled[:, 0]  # an empty name
    bad[:, 1:] |= filled[:, 1:] > filled[:, :-1]  # a NUL before a code point
    if bad.any():  # the first bad code point is in the first bad name
        raise DataFormatError(_id_problem(str(names[np.argmax(bad) // points.shape[1]])))
    return names


def _in_id_order(names: Sequence[str] | np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """(``names`` sorted into the id vocabulary, each int32 code column recoded into it); rejects a name
    that :func:`_id_problem` rejects.  Names already in strictly increasing order are not sorted again."""
    ids = _id_array(names)
    columns = tuple(np.asarray(col, dtype=np.int32) for col in columns)
    if not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids, kind="stable")
        recode = np.empty(ids.size, dtype=np.int32)
        recode[order] = np.arange(ids.size, dtype=np.int32)
        ids, columns = ids[order], tuple(recode[col] for col in columns)
    return (ids, *columns)


def _row_order(*key: np.ndarray) -> np.ndarray:
    """The stable order of rows by non-negative int key columns, the most significant first: one argsort
    of the columns packed into int64 when the product of their spans fits, else :func:`np.lexsort`."""
    spans = [int(col.max(initial=0)) + 1 for col in key]
    if math.prod(spans) > _INT64_MAX:
        return np.lexsort(key[::-1])
    packed = key[0].astype(np.int64)
    for col, span in zip(key[1:], spans[1:]):
        packed *= span
        packed += col
    return np.argsort(packed, kind="stable")


def _first_repeat(rows: np.ndarray, *key: np.ndarray) -> tuple[int, int] | None:
    """(row, first row) of the earliest row whose key columns repeat an earlier row's, given
    ``rows``, the :func:`_row_order` of at least one row by that key."""
    same = np.ones(rows.size - 1, dtype=bool)
    for col in key:
        sorted_col = col[rows]
        same &= sorted_col[1:] == sorted_col[:-1]
    if not same.any():
        return None
    # Rows with equal keys stay in file order, so each run of them starts at its first row.
    run_start = np.maximum.accumulate(np.where(np.r_[True, ~same], np.arange(rows.size), 0))
    repeats = np.flatnonzero(same) + 1
    first = repeats[np.argmin(rows[repeats])]
    return int(rows[first]), int(rows[run_start[first]])


def _snapshot_row(line_no: int, row: Sequence[str], codes: dict[str, int]) -> tuple[int, ...]:
    """The (ordinal, source code, target code, position, kind, line) of a snapshot row, or
    the error for a row that fails a check of its own fields.  New ids get the next codes."""
    ordinal = cell(date_or_none, row[0], line_no, "date").toordinal()
    src, tgt = row[1], row[2]
    for vid in (src, tgt):
        if vid not in codes and (problem := _id_problem(vid)):
            raise DataFormatError(f"line {line_no}: {problem}")
    pos = _count(row[3], line_no, "position")
    if pos < 1:
        raise DataFormatError(f"line {line_no}: position {_shown(row[3])} is below 1")
    if pos > _MAX_POSITION:
        raise DataFormatError(f"line {line_no}: position {_shown(row[3])} is too large")
    kind = _kind_or_bad(row[4])
    if kind < 0:
        raise DataFormatError(f"line {line_no}: unknown list kind {_shown(row[4], repr)}")
    if tgt == src:
        raise DataFormatError(f"line {line_no}: self-link on {src}")
    return ordinal, codes.setdefault(src, len(codes)), codes.setdefault(tgt, len(codes)), pos, kind, line_no


def _view_row(line_no: int, row: Sequence[str], codes: dict[str, int]) -> tuple[int, ...]:
    """The (video code, ordinal, count, line) of a views row, as :func:`_snapshot_row`."""
    vid = row[0]
    if vid not in codes and (problem := _id_problem(vid)):
        raise DataFormatError(f"line {line_no}: {problem}")
    ordinal = cell(date_or_none, row[1], line_no, "date").toordinal()
    count = _count(row[2], line_no, "view count")
    if count < 0:
        raise DataFormatError(f"line {line_no}: negative view count for {vid}")
    if count > _MAX_VIEWS:
        raise DataFormatError(f"line {line_no}: view count {_shown(row[2])} is too large")
    return codes.setdefault(vid, len(codes)), ordinal, count, line_no


def _count(text: str, line_no: int, what: str) -> int:
    """The int a position or view count cell spells, as ``cell(int_or_none, ...)`` reads it, but
    from its significant digits: int()'s digit limit never applies, and a cell with more than
    ``_COUNT_DIGITS`` of them reads as 10**_COUNT_DIGITS, or its negative, past both bounds."""
    if not _INT_TEXT.fullmatch(text):
        return cell(int_or_none, text, line_no, what)  # a bad cell: raises
    digits = text.lstrip("-").lstrip("0")
    value = 10**_COUNT_DIGITS if len(digits) > _COUNT_DIGITS else int(digits or "0")
    return -value if text[0] == "-" else value


def _ordinal_or_bad(text: str) -> int:
    parsed = date_or_none(text)
    return -1 if parsed is None else parsed.toordinal()


def _kind_or_bad(text: str) -> int:
    return LIST_KINDS.index(text) if text in LIST_KINDS else -1


def parse_snapshots(path: str | Path) -> DynamicNetwork:
    """Parse the snapshots CSV at ``path`` into a :class:`DynamicNetwork`.

    Raises :class:`DataFormatError` (with line numbers) on malformed rows,
    positions below 1, self-links, duplicate positions or duplicate targets
    inside one list, or observation days that are not consecutive.  The
    first failing line is reported, as a row-by-row reader would.
    """
    return _split_or_read(path, _split_snapshots, _read_snapshot_rows)


def parse_views(path: str | Path) -> ViewTable:
    """Parse the views CSV at ``path`` into a :class:`ViewTable`.

    Each video's rows must form one contiguous date range with non-negative
    counts; gaps and negatives are errors, nothing is imputed.  Of several
    videos with a gap, the one whose rows start first is reported.
    """
    return _split_or_read(path, _split_views, _read_view_rows)


def _read_rows(path: str | Path, header: Sequence[str], coded_row: Callable[..., tuple[int, ...]],
               typecode: str) -> tuple[list[str], np.ndarray, DataFormatError | None]:
    """(the ids in first-seen order, the ``coded_row`` of each row before the first that the csv module
    or a check of its own fields rejects, that error or None); a coded row ends with the row's line."""
    codes: dict[str, int] = {}
    coded = array(typecode)
    bad_row = None
    try:
        for line_no, row in csv_rows(path, header):
            coded.extend(coded_row(line_no, row, codes))
    except DataFormatError as exc:
        bad_row = exc
    return list(codes), np.array(coded).reshape(-1, len(header) + 1), bad_row


def _read_snapshot_rows(path: str | Path) -> DynamicNetwork:
    """:func:`parse_snapshots` row by row with the csv module, for every file the byte split declines."""
    names, coded, bad_row = _read_rows(path, SNAPSHOT_HEADER, _snapshot_row, "i")
    ordinal, src, tgt, pos, kind, line = coded.T
    ids, src, tgt = _in_id_order(names, src, tgt)
    return _snapshot_network(ids, ordinal, src, tgt, pos, kind.astype(np.int8), line, bad_row)


def _read_view_rows(path: str | Path) -> ViewTable:
    """:func:`parse_views` row by row with the csv module, as :func:`_read_snapshot_rows`."""
    names, coded, bad_row = _read_rows(path, VIEWS_HEADER, _view_row, "q")
    code, ordinal, counts, line = coded.T
    ids, code = _in_id_order(names, code)
    return _view_table(ids, code, ordinal, counts, line, bad_row)


def _snapshot_network(ids: np.ndarray, ordinal: np.ndarray, src: np.ndarray, tgt: np.ndarray, pos: np.ndarray,
                      kind: np.ndarray, line: Sequence[int],
                      bad_row: DataFormatError | None = None) -> DynamicNetwork:
    """The network of coded snapshot rows in file order, row i read from line ``line[i]``, with codes into
    the sorted ``ids``.  Errors come in the order: the earliest position or target repeated in one list,
    then ``bad_row`` (the error that stopped the row reader), then no rows or a day without rows.
    ``ordinal`` becomes the window days in place."""
    if not ordinal.size:
        raise bad_row or DataFormatError("snapshots file holds no rows")
    start = int(ordinal.min())
    day = np.subtract(ordinal, start, out=ordinal)  # in place: a second array of days would raise the peak
    by_target = _first_repeat(_row_order(day, kind, src, tgt), day, kind, src, tgt)
    rows = _row_order(day, kind, src, pos)  # the table's order
    by_position = _first_repeat(rows, day, kind, src, pos)
    # The earlier row; a row that repeats both a position and a target reports the position.
    found = [(*at, label) for at, label in ((by_position, "position"), (by_target, "target")) if at]
    if found:
        i, first, label = min(found, key=lambda f: f[0])
        what = pos[i] if label == "position" else ids[tgt[i]]
        raise DataFormatError(
            f"line {line[i]}: duplicate {label} {what} in {LIST_KINDS[kind[i]]} list of {ids[src[i]]} "
            f"on {date.fromordinal(start + int(day[i]))} (first seen at line {line[first]})"
        )
    if bad_row is not None:
        raise bad_row
    present = np.bincount(day)  # rows per window day
    if not present.all():
        missing = date.fromordinal(start + int(np.argmin(present)))
        raise DataFormatError(f"snapshot days are not consecutive, missing {missing}")
    table = SnapshotTable(ids, day[rows], src[rows], tgt[rows], pos[rows], kind[rows])
    return DynamicNetwork(ObservationWindow(date.fromordinal(start), present.size), table)


def _view_table(ids: np.ndarray, code: np.ndarray, ordinal: np.ndarray, counts: np.ndarray,
                line: Sequence[int], bad_row: DataFormatError | None = None) -> ViewTable:
    """The table of coded views rows, as :func:`_snapshot_network`.  Errors come in the order: the
    earliest repeated day of one video, ``bad_row``, no rows, then a gap in the series of the video
    whose rows start first."""
    if not code.size:
        raise bad_row or DataFormatError("views file holds no rows")
    rows = _row_order(code, ordinal)
    if repeat := _first_repeat(rows, code, ordinal):
        i = repeat[0]
        raise DataFormatError(
            f"line {line[i]}: duplicate day {date.fromordinal(int(ordinal[i]))} for {ids[code[i]]}")
    if bad_row is not None:
        raise bad_row
    code, ordinal = code[rows], ordinal[rows]
    opens = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    steps = np.diff(ordinal)
    steps[opens[1:] - 1] = 1
    gaps = np.flatnonzero(steps != 1)
    if gaps.size:  # of the videos with a gap, the one whose first row comes first in the file
        video = np.searchsorted(opens, gaps, side="right") - 1
        g = gaps[np.argmin(np.minimum.reduceat(rows, opens)[video])]
        raise DataFormatError(
            f"view series for {ids[code[g]]} has a gap at {date.fromordinal(int(ordinal[g]) + 1)}")
    return ViewTable(ids, ordinal[opens].astype(np.int64), np.append(opens, rows.size).astype(np.int64), counts[rows])


# ---------------------------------------------------------------------------
# byte split: snapshots and views files that are provably clean, without the csv module

# Byte blocks bound the byte temporaries; id batches bound the lookups.  Bytes
# per block: not larger, as with 1 MB blocks a whole `pipeline` command peaked
# 5% higher (freeing bigger temporaries raises glibc's dynamic mmap threshold,
# and later arrays stay on the heap).  Id fields per batch: a batch of many
# blocks is looked up in the vocabulary once, not once per block.
_BLOCK_BYTES = 1 << 18
_BATCH_FIELDS = 1 << 17
# A quote, NUL or non-ASCII (>= 0x80) byte anywhere sends the file to the row reader, as
# does a CR that does not end a line before its LF.
_COMMA, _CR, _LF, _QUOTE, _ZERO = ord(","), ord("\r"), ord("\n"), ord('"'), ord("0")
# _KEEP[k] keeps the first k bytes of a big-endian uint64 and zeroes the rest.
_KEEP = np.array([0] + [(1 << 64) - (1 << (64 - 8 * k)) for k in range(1, 9)], dtype=np.uint64)
# Digits a position or view count may have on the byte split: 10**18 - 1 fits in int64.
_MAX_DIGITS = 18
# Fields per run of equal dates at least, for a block's dates to be converted once per run.
_RUN_FIELDS = 8
# Each list kind's spelling as the lane row that _lanes gives a field, padded to the longest kind's lanes.
_KIND_BYTES = -(-max(map(len, LIST_KINDS)) // 8) * 8
_KIND_LANES = np.frombuffer(b"".join(kind.encode().ljust(_KIND_BYTES, b"\0") for kind in LIST_KINDS),
                            dtype=">u8").astype(np.uint64).reshape(len(LIST_KINDS), -1)


class _Declined(Exception):
    """The byte split cannot prove a file clean; the row reader reads it instead."""


def _split_or_read(path: str | Path, split: Callable[[IO[bytes]], T], read_rows: Callable[[str | Path], T]) -> T:
    """``split`` over the bytes of the file at ``path``, or ``read_rows`` of it when the split declines."""
    with open(path, "rb") as handle:
        try:
            return split(handle)
        except _Declined:
            pass
    return read_rows(path)


def _blocks(handle: IO[bytes], header: Sequence[str]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(bytes, field starts, field lengths) of each newline-aligned block of rows, as :func:`_fields` gives them.

    Declines a first line other than ``header`` and its LF or CRLF, and a block
    holding a declined byte, a blank line, a row with another field count, an
    empty field or a field at the csv module's size limit.
    """
    expected = ",".join(header).encode()
    if handle.readline(len(expected) + 2) not in (expected + b"\n", expected + b"\r\n"):
        raise _Declined
    limit = csv.field_size_limit()
    tail = b""
    while True:
        chunk = handle.read(_BLOCK_BYTES)
        data = tail + chunk
        if not chunk:
            if data:  # a last line without its LF
                yield _fields(np.frombuffer(data + b"\n", dtype=np.uint8), len(header), limit)
            return
        cut = data.rfind(b"\n") + 1
        tail = data[cut:]
        if len(tail) > len(header) * (limit + 1):
            raise _Declined  # a line this long holds a field over the limit
        if cut:
            yield _fields(np.frombuffer(data, dtype=np.uint8, count=cut), len(header), limit)


def _fields(buf: np.ndarray, n_fields: int, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of :func:`_blocks`, which ends with a LF, split after each CR of a CRLF is dropped;
    its bytes come back with the zero bytes that :func:`_lanes` reads past its widest field."""
    cr = np.flatnonzero(buf == _CR)
    if cr.size:
        if (buf[cr + 1] != _LF).any():  # the block ends with a LF, so cr + 1 is inside it
            raise _Declined
        buf = np.delete(buf, cr)
    if buf.max() >= 0x80 or buf.min() == 0 or (buf == _QUOTE).any():  # NUL is the least byte
        raise _Declined
    newline = buf == _LF
    ends = np.flatnonzero(newline | (buf == _COMMA))
    n_rows = ends.size // n_fields
    if ends.size % n_fields or np.count_nonzero(newline) != n_rows:
        raise _Declined
    # Every field starts after the comma or LF that ends the field before it.
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    starts, ends = starts.reshape(n_rows, n_fields), ends.reshape(n_rows, n_fields)
    if not newline[ends[:, -1]].all():
        raise _Declined
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() >= limit:
        raise _Declined
    # The zero bytes that the lanes of the widest field read past the block's end.
    buf = np.concatenate([buf, np.zeros(-(-int(lengths.max()) // 8) * 8, dtype=np.uint8)])
    return buf, starts, lengths


def _lanes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field as a row of zero-padded big-endian uint64 lanes; ``buf`` is a block of
    :func:`_fields`, which ends with the zero bytes its widest field's lanes read.

    Fields hold no NUL, so the order of lane rows is the byte order of the
    fields, which for ASCII is the order of the ``str`` they spell.
    """
    n_lanes = -(-int(lengths.max()) // 8)
    # The big-endian uint64 that starts at each byte.
    words = np.ndarray(buf.size - 7, dtype=">u8", buffer=buf, strides=(1,))
    lanes = np.empty((starts.size, n_lanes), dtype=np.uint64)
    for j in range(n_lanes):
        lanes[:, j] = words[starts + 8 * j] & _KEEP[np.clip(lengths - 8 * j, 0, 8)]
    return lanes


def _hashed(lanes: np.ndarray) -> np.ndarray:
    """One uint64 per lane row: the lane itself, or splitmix64's finalizer over each lane in turn."""
    if lanes.shape[1] == 1:
        return lanes[:, 0]
    h = np.zeros(lanes.shape[0], dtype=np.uint64)
    for lane in lanes.T:
        h ^= lane
        h ^= h >> np.uint64(30)
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(27)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def _distinct(lanes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted distinct hashes, the lane row of each, inverse); declines on a hash collision."""
    hashes, inverse = np.unique(_hashed(lanes), return_inverse=True)
    inverse = inverse.ravel()
    row = np.empty(hashes.size, dtype=np.intp)
    row[inverse] = np.arange(inverse.size)  # any row with that hash
    distinct = lanes.take(row, axis=0)  # take: numpy indexes rows of a few lanes ten times slower
    if not np.array_equal(distinct.take(inverse, axis=0), lanes):
        raise _Declined  # two fields share a hash
    return hashes, distinct, inverse


class _Vocabulary:
    """The distinct fields of a file's id columns, and the id-order rank of every field added.

    Each block's fields are added as lane rows and coded a batch at a time, once
    at least ``_BATCH_FIELDS`` are pending, with every lane row padded to the
    batch's widest.  A batch's distinct fields are looked up by hash in sorted
    runs of the hashes seen so far.  A run merges into the one before it while
    that one is at most twice its size, so there are O(log n) runs and each
    hash is merged O(log n) times.  Memory grows with the vocabulary plus one
    batch, and with one int32 code per field added.
    """

    def __init__(self) -> None:
        self.lanes = np.zeros((0, 1), dtype=np.uint64)  # row i is code i, up to ``size``; the rest is spare
        self.size = 0
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []  # (sorted hashes, their int32 codes)
        self.pending: list[np.ndarray] = []  # lane rows of the blocks not yet coded
        self.n_pending = 0
        self.coded: list[np.ndarray] = []  # the int32 codes of each coded batch, in order
        self.width = 0  # characters in the longest field

    def add(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        """Add the fields of a :func:`_fields` block at ``starts`` with ``lengths``."""
        self.pending.append(_lanes(buf, starts, lengths))
        self.n_pending += starts.size
        self.width = max(self.width, int(lengths.max()))
        if self.n_pending >= _BATCH_FIELDS:
            self._code_pending()

    def _code_pending(self) -> None:
        n_lanes = max(self.lanes.shape[1], *(lanes.shape[1] for lanes in self.pending))
        batch = np.zeros((self.n_pending, n_lanes), dtype=np.uint64)
        at = 0
        for lanes in self.pending:
            batch[at : at + len(lanes), : lanes.shape[1]] = lanes
            at += len(lanes)
        self.pending, self.n_pending = [], 0
        self.coded.append(self.codes(batch))

    def codes(self, lanes: np.ndarray) -> np.ndarray:
        """The int32 code of each lane row, at least as wide as the vocabulary's; rows not seen
        before get new codes."""
        if lanes.shape[1] > self.lanes.shape[1]:  # hashes depend on the lane count
            self.lanes = np.pad(self.lanes, ((0, 0), (0, lanes.shape[1] - self.lanes.shape[1])))
            self.runs = []
            self._add_run(_hashed(self.lanes[: self.size]), np.arange(self.size, dtype=np.int32))
        hashes, distinct, inverse = _distinct(lanes)
        code = np.full(hashes.size, -1, dtype=np.int32)
        for run, run_codes in self.runs:
            at = np.searchsorted(run, hashes)
            hit = at < run.size
            hit[hit] = run[at[hit]] == hashes[hit]
            code[hit] = run_codes[at[hit]]
        known = code >= 0
        if not np.array_equal(self.lanes.take(code[known], axis=0), distinct.compress(known, axis=0)):
            raise _Declined  # a field shares its hash with an earlier one
        new = np.flatnonzero(~known)
        code[new] = np.arange(self.size, self.size + new.size, dtype=np.int32)
        if self.size + new.size > len(self.lanes):  # grow geometrically: appends stay O(1) each
            grown = np.zeros((max(2 * len(self.lanes), self.size + new.size), self.lanes.shape[1]), dtype=np.uint64)
            grown[: self.size] = self.lanes[: self.size]
            self.lanes = grown
        self.lanes[self.size : self.size + new.size] = distinct.take(new, axis=0)
        self.size += new.size
        self._add_run(hashes[new], code[new])
        return code[inverse]

    def _add_run(self, hashes: np.ndarray, codes: np.ndarray) -> None:
        if not hashes.size:
            return
        order = np.argsort(hashes, kind="stable")
        self.runs.append((hashes[order], codes[order]))
        while len(self.runs) > 1 and self.runs[-2][0].size <= 2 * self.runs[-1][0].size:
            (later, later_codes), (earlier, earlier_codes) = self.runs.pop(), self.runs.pop()
            hashes, codes = np.concatenate([earlier, later]), np.concatenate([earlier_codes, later_codes])
            order = np.argsort(hashes, kind="stable")  # a merge of two sorted runs
            self.runs.append((hashes[order], codes[order]))

    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """(the distinct fields as a sorted ``str`` array, the int32 rank in it of every field
        added, in the order added); the vocabulary is left empty.  Fields are ordered by
        :func:`_lane_order`."""
        if self.pending:
            self._code_pending()
        lanes, coded, width = self.lanes[: self.size], self.coded, self.width
        self.__init__()  # frees the runs before the sort, and the lanes before the names are spelled
        order = _lane_order(lanes, width)
        names = lanes.take(order, axis=0)
        del lanes
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        ranked, at = np.empty(sum(codes.size for codes in coded), dtype=np.int32), 0
        for codes in coded:
            ranked[at : at + codes.size] = rank[codes]
            at += codes.size
        del order, rank, coded
        return _texts(names, width), ranked


def _lane_order(lanes: np.ndarray, width: int) -> np.ndarray:
    """The order of distinct lane rows, no row spelling more than ``width`` characters: an
    argsort of the first lane, then, for two lanes, an argsort of one uint64 key that packs
    each row's dense rank among the distinct first lanes above the ``width - 8`` bytes its
    second lane can hold.  :func:`np.lexsort` orders rows whose key would not fit."""
    if lanes.shape[1] > 2:
        return np.lexsort(lanes.T[::-1])
    order = np.argsort(lanes[:, 0])
    if lanes.shape[1] == 1:
        return order
    tail_bits = 8 * (width - 8)
    key = lanes[:, 0].take(order)
    opens = key[1:] != key[:-1]  # a new first lane, in sorted order
    if int(np.count_nonzero(opens)).bit_length() + tail_bits > 64:
        return np.lexsort(lanes.T[::-1])
    key[0] = 0
    np.cumsum(opens, out=key[1:])
    del opens
    key <<= np.uint64(tail_bits)
    key |= lanes[:, 1].take(order) >> np.uint64(64 - tail_bits)
    return order[np.argsort(key)]


def _texts(lanes: np.ndarray, width: int) -> np.ndarray:
    """The ``str`` array, ``width`` characters wide, that lane rows spell; no row spells more than
    ``width`` characters, and ``width`` is at most 8 per lane.

    The lanes' bytes are written into a uint32 array, one code point each, and viewed as str.
    """
    spelled = np.ascontiguousarray(lanes, dtype=">u8").view(np.uint8).reshape(len(lanes), 8 * lanes.shape[1])
    return np.ascontiguousarray(spelled[:, :width], dtype=np.uint32).view(f"U{width}")[:, 0]


def _ordinals(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int32 :func:`_ordinal_or_bad` of each date field.  When the fields come in runs of equal
    ones, at most one run per ``_RUN_FIELDS`` fields (as a snapshots file's dates do), a field is
    converted once per run; otherwise (as for a views file's dates, which change on every row) once
    per distinct field, found by :func:`_distinct`."""
    lanes = _lanes(buf, starts, lengths)
    head = np.r_[True, ~_equal_rows(lanes[1:], lanes[:-1])]  # the first field of each run
    if np.count_nonzero(head) * _RUN_FIELDS <= starts.size:
        keys = lanes.compress(head, axis=0)
        inverse = np.cumsum(head) - 1
    else:
        _, keys, inverse = _distinct(lanes)
    values = [_ordinal_or_bad(text) for text in _texts(keys, int(lengths.max())).tolist()]
    return np.array(values, dtype=np.int32)[inverse]


def _equal_rows(lanes: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Whether each lane row equals its row of ``other``, or ``other`` itself when it is one row;
    compared a lane at a time, as numpy's ``all(axis=1)`` over a few lanes is slow."""
    same = lanes[:, 0] == other[..., 0]
    for j in range(1, lanes.shape[1]):
        same &= lanes[:, j] == other[..., j]
    return same


def _kinds(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int8 index in ``LIST_KINDS`` of each field, found by comparing the field's lanes with
    each kind's; declines on any other field."""
    lanes = _lanes(buf, starts, lengths)
    n_lanes = lanes.shape[1]
    if n_lanes > _KIND_LANES.shape[1]:
        raise _Declined  # longer than every kind
    kind = np.full(starts.size, -1, dtype=np.int8)
    for k, spelled in enumerate(_KIND_LANES):
        if not spelled[n_lanes:].any():  # else longer than every field
            kind[_equal_rows(lanes, spelled[:n_lanes])] = k
    if kind.min() < 0:
        raise _Declined
    return kind


def _digits(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 each field spells in at most ``_MAX_DIGITS`` ASCII digits."""
    width = int(lengths.max())
    if width > _MAX_DIGITS:
        raise _Declined
    value = np.zeros(starts.size, dtype=np.int64)
    at = starts + lengths
    for place in range(width):  # the place-th digit from the right of each field, one gather a place
        at -= 1  # before a shorter field's first digit, it may wrap past the block's start: zeroed
        digit = buf[at] - np.uint8(_ZERO)
        digit[lengths <= place] = 0
        if (digit > 9).any():
            raise _Declined
        value += digit.astype(np.int64) * 10**place
    return value


def _split_snapshots(handle: IO[bytes]) -> DynamicNetwork:
    """:func:`parse_snapshots` of a file by a numpy byte split."""
    vocabulary = _Vocabulary()
    ordinal, pos, kind = [], [], []
    for buf, starts, lengths in _blocks(handle, SNAPSHOT_HEADER):
        ordinal.append(_ordinals(buf, starts[:, 0], lengths[:, 0]))
        position = _digits(buf, starts[:, 3], lengths[:, 3])
        kind.append(_kinds(buf, starts[:, 4], lengths[:, 4]))
        if ordinal[-1].min() < 0 or position.min() < 1 or position.max() > _MAX_POSITION:
            raise _Declined
        pos.append(position.astype(np.int32))
        vocabulary.add(buf, starts[:, 1:3].ravel(), lengths[:, 1:3].ravel())
    if not ordinal:
        raise _Declined
    names, rank = vocabulary.ranks()
    src, tgt = rank[0::2], rank[1::2]
    if (src == tgt).any():
        raise _Declined  # a self-link
    ordinal, pos, kind = np.concatenate(ordinal), np.concatenate(pos), np.concatenate(kind)
    return _snapshot_network(names, ordinal, src, tgt, pos, kind, range(2, ordinal.size + 2))


def _split_views(handle: IO[bytes]) -> ViewTable:
    """:func:`parse_views` of a file by a numpy byte split."""
    vocabulary = _Vocabulary()
    ordinal, counts = [], []
    for buf, starts, lengths in _blocks(handle, VIEWS_HEADER):
        ordinal.append(_ordinals(buf, starts[:, 1], lengths[:, 1]))
        if ordinal[-1].min() < 0:
            raise _Declined
        counts.append(_digits(buf, starts[:, 2], lengths[:, 2]))
        vocabulary.add(buf, starts[:, 0], lengths[:, 0])
    if not ordinal:
        raise _Declined
    names, code = vocabulary.ranks()
    ordinal, counts = np.concatenate(ordinal), np.concatenate(counts)
    return _view_table(names, code, ordinal, counts, range(2, code.size + 2))


def parse_metadata(path: str | Path) -> dict[str, VideoMeta]:
    """Parse the metadata CSV at ``path``; genres field is ``|``-joined and may be empty."""
    out: dict[str, VideoMeta] = {}
    for line_no, row in csv_rows(path, METADATA_HEADER):
        vid, artist = row[0], row[1]
        for text, what in ((vid, "video id"), (artist, "artist id")):
            if problem := _id_problem(text, what):
                raise DataFormatError(f"line {line_no}: {problem}")
        if vid in out:
            raise DataFormatError(f"line {line_no}: duplicate metadata for {vid}")
        upload = cell(date_or_none, row[2], line_no, "date")
        genres = frozenset(g for g in row[3].split("|") if g)
        for genre in genres:
            if problem := _id_problem(genre, "genre"):
                raise DataFormatError(f"line {line_no}: {problem}")
        out[vid] = VideoMeta(artist, genres, upload)
    if not out:
        raise DataFormatError("metadata file holds no rows")
    return out


# ---------------------------------------------------------------------------
# validation


def validate_dataset(
    metadata: Mapping[str, VideoMeta],
    views: ViewTable,
    network: DynamicNetwork,
) -> Dataset:
    """Cross-check the three inputs and assemble a :class:`Dataset`.

    The corpus is the set of ids with metadata.  Every corpus video must have
    view counts covering the observation window (longer ones are fine, the
    window is cut from them).  Snapshots may name ids without metadata.  Of
    several failing videos, the first in id order is reported.  The dataset
    keeps only the window's views of the corpus, not ``views``.
    """
    corpus = frozenset(metadata)
    window = network.window

    if (views.values < 0).any():  # the readers reject these; a table built by hand may hold one
        k = np.searchsorted(views.bounds, np.argmax(views.values < 0), side="right") - 1
        raise DataFormatError(f"view series for {views.ids[k]} contains negative counts")
    ids = np.array(sorted(corpus), dtype=str)
    row = np.searchsorted(views.ids, ids)
    found = row < views.ids.size
    found[found] = views.ids[row[found]] == ids[found]
    start, end = np.zeros((2, ids.size), dtype=np.int64)
    start[found] = views.start[row[found]]
    end[found] = start[found] + np.diff(views.bounds)[row[found]] - 1
    covers = (start <= window.start.toordinal()) & (end >= window.end.toordinal())
    upload = np.array([metadata[vid].upload_date.toordinal() for vid in ids.tolist()], dtype=np.int64)
    bad = np.flatnonzero(~found | ~covers | (upload > start))
    if bad.size:
        k = int(bad[0])
        if not found[k]:
            raise DataFormatError(f"corpus video {ids[k]} has no view series")
        vid, first, last = ids[k], date.fromordinal(int(start[k])), date.fromordinal(int(end[k]))
        if not covers[k]:
            raise DataFormatError(
                f"view series for {vid} spans {first}..{last}, window needs {window.start}..{window.end}")
        raise DataFormatError(f"{vid} uploaded {metadata[vid].upload_date}, after its first observed day {first}")

    first_day = views.bounds[row] + window.start.toordinal() - start
    window_views = views.values[first_day[:, None] + np.arange(window.n_days)]
    ids.flags.writeable = window_views.flags.writeable = False
    return Dataset(dict(metadata), network, corpus, ids, window_views)


def load_dataset(data_dir: str | Path) -> Dataset:
    """Load the ``DATASET_FILES`` under ``data_dir``; parse errors name their file."""
    snapshots, views, metadata = (Path(data_dir) / name for name in DATASET_FILES)
    return validate_dataset(
        network=parse_file(parse_snapshots, snapshots),
        views=parse_file(parse_views, views),
        metadata=parse_file(parse_metadata, metadata),
    )


def parse_file(parse: Callable[[Path], T], path: Path) -> T:
    """``parse(path)``, with the path put before the message of a parse error."""
    try:
        return parse(path)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# canonical serialization: CSV rows built as bytes, a block of rows at a time (see the
# module docstring)

# Rows per block: the writers' memory grows with a block, not with the file.  From 4,096
# to 16,384 rows the alignment snapshots took the same time; write_csv makes a Python str
# of each cell of a block, and under tracemalloc a 420,000-row forecasts.csv peaked at
# 2.8 MiB with this block against 5.3 MiB with 16,384 rows.
_WRITE_ROWS = 1 << 13
# A field holding one of these bytes is quoted.
_QUOTED = (_COMMA, _QUOTE, _LF)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer(lineterminator="\\n")`` writes a field on Python 3.10 to 3.12:
    quoted, with each ``"`` doubled, when it holds ``,``, ``"`` or LF; a CR stays bare.  Python
    3.13's also quotes a lone CR, which no id, genre or other text aflow writes holds."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _field_table(fields: Sequence[str] | np.ndarray) -> np.ndarray:
    """Each of ``fields``, a numpy str array or a sequence of str, as :func:`_csv_field` writes it
    in UTF-8: one row of a uint8 table, NUL-padded on the right.  A column of ASCII fields that
    need no quotes is copied from its code points; any other column is written field by field."""
    texts = np.asarray(fields, dtype=str)
    points = np.ascontiguousarray(texts).reshape(-1, 1).view(np.uint32)  # one row per field, NUL-padded
    if points.max(initial=0) < 0x80:
        table = points.astype(np.uint8)
        if not np.isin(table, _QUOTED).any():
            return table
    return np.array([_csv_field(text).encode() for text in texts.tolist()], dtype=bytes).reshape(-1, 1).view(np.uint8)


def _decimal(out: np.ndarray, values: np.ndarray, pad: int) -> None:
    """Write each non-negative int of ``values`` in decimal into its row of ``out``, as code points,
    right-aligned: its last ``out.shape[1]`` digits, with ``pad`` in each place left of its first."""
    last = out.shape[1] - 1
    for j in range(last, -1, -1):
        shown = values > 0 if j < last else True  # the units digit is shown even for 0
        values, digit = np.divmod(values, 10)
        out[:, j] = np.where(shown, digit + _ZERO, pad)


def _csv_rows(columns: Sequence[tuple[np.ndarray | None, np.ndarray]]) -> Iterator[bytes]:
    """The UTF-8 bytes of CSV rows, a block of up to ``_WRITE_ROWS`` rows at a time.

    Row i holds, from each (table, codes) column, row ``codes[i]`` of ``table``, a
    :func:`_field_table`, or, where ``table`` is None, ``codes[i]`` in decimal (never negative);
    each field is ended by a comma, the last by LF.  A block's cells, each with the comma or LF
    that ends it, go into one NUL-padded uint8 matrix, whose bytes but the NULs are the rows.
    """
    n_rows = len(columns[0][1])
    widths = [len(str(int(codes.max(initial=0)))) if table is None else table.shape[1] for table, codes in columns]
    seps = np.cumsum(np.add(widths, 1)) - 1  # the matrix column of each field's comma or LF
    matrix = np.zeros((min(n_rows, _WRITE_ROWS), int(seps[-1]) + 1), dtype=np.uint8)
    matrix[:, seps] = _COMMA
    matrix[:, -1] = _LF
    for start in range(0, n_rows, _WRITE_ROWS):
        block = matrix[: n_rows - start]
        for (table, codes), sep, width in zip(columns, seps.tolist(), widths):
            cells, codes = block[:, sep - width : sep], codes[start : start + _WRITE_ROWS]
            if table is None:
                _decimal(cells, codes, 0)
            else:
                cells[:] = table.take(codes, axis=0)
        flat = block.ravel()
        yield flat[flat != 0].tobytes()


def _header(header: Sequence[str]) -> bytes:
    """The header line of a CSV aflow writes; header names need no quotes."""
    return (",".join(header) + "\n").encode()


def _text(blocks: Iterable[bytes]) -> str:
    """The text of ``blocks`` of UTF-8, each decoded once."""
    return "".join(block.decode() for block in blocks)


# A finite float v >= 0 as _column_texts writes it (repr); artifact readers take floats in this grammar.
FLOAT_TEXT = re.compile(r"[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?")


def _column_texts(column: Sequence[object] | np.ndarray) -> list[str]:
    """Each value of ``column`` as text, by the column's type: text as it is, a bool as ``0``
    or ``1``, another integer in decimal, a float as ``repr`` writes it (NaN as ``nan``).  Text
    passes through a numpy string array, which drops trailing NULs; no text aflow writes has one."""
    values = np.asarray(column)
    if values.dtype.kind == "f":
        return list(map(repr, values.tolist()))
    if values.dtype.kind == "b":
        values = values.astype(np.int64)
    return list(map(str, values.tolist()))


def write_blocks(path: Path, blocks: Iterable[bytes]) -> None:
    """Write ``blocks`` of UTF-8 to ``path``, each as soon as it is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        for block in blocks:
            handle.write(block)


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence[object] | np.ndarray]) -> None:
    """Write ``columns``, each of one type, under ``header`` (no quotes needed) to ``path``, a
    block of rows at a time, as :func:`write_blocks` writes; no rows give the header line alone."""
    write_blocks(path, _artifact_blocks(header, columns))


def _artifact_blocks(header: Sequence[str], columns: Sequence[Sequence[object] | np.ndarray]) -> Iterator[bytes]:
    """The header line, then the rows of ``columns``, each block's cells made text by :func:`_column_texts`."""
    yield _header(header)
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        tables = [_field_table(_column_texts(column[start : start + _WRITE_ROWS])) for column in columns]
        yield from _csv_rows([(table, np.arange(len(table))) for table in tables])


def write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, with its LF line ends kept on every platform."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="")


def _day_runs(day: np.ndarray, n_days: int) -> tuple[np.ndarray | None, np.ndarray]:
    """(the stable order of rows by ``day``, or None when ``day`` never decreases, and the bounds
    in that order of each of the ``n_days`` days' rows).  Readers and generators sort every table
    by day, which is checked a block at a time; only a table built by hand needs the sort."""
    descends = any((np.diff(day[a : a + _WRITE_ROWS + 1]) < 0).any() for a in range(0, day.size, _WRITE_ROWS))
    by_day = np.argsort(day, kind="stable") if descends else None
    return by_day, np.searchsorted(day, np.arange(n_days + 1, dtype=day.dtype), sorter=by_day)  # no copy of day


def snapshot_blocks(network: DynamicNetwork) -> Iterator[bytes]:
    """The canonical snapshots CSV as blocks of UTF-8, the header line first: rows sorted by
    (date, source, kind, position), written a day at a time."""
    t = network.table
    yield _header(SNAPSHOT_HEADER)
    dates = _field_table([d.isoformat() for d in network.window.dates()])
    ids, kinds = _field_table(t.ids), _field_table(LIST_KINDS)
    by_day, bounds = _day_runs(t.day, network.window.n_days)
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        rows = np.arange(lo, hi) if by_day is None else by_day[lo:hi]
        rows = rows[_row_order(t.src[rows], t.kind[rows], t.pos[rows])]
        yield from _csv_rows([(dates, t.day[rows]), (ids, t.src[rows]), (ids, t.tgt[rows]), (None, t.pos[rows]),
                              (kinds, t.kind[rows])])


def view_blocks(views: ViewTable) -> Iterator[bytes]:
    """The canonical views CSV as blocks of UTF-8, the header line first: rows sorted by
    (video_id, date), each block's dates spelled once per distinct date."""
    if views.values.min(initial=0) < 0:  # the readers reject these; a table built by hand may hold one
        raise DataFormatError("view counts must not be negative")
    yield _header(VIEWS_HEADER)
    ids = _field_table(views.ids)
    for start in range(0, views.values.size, _WRITE_ROWS):
        row = np.arange(start, min(start + _WRITE_ROWS, views.values.size))
        video = np.searchsorted(views.bounds, row, side="right") - 1
        ordinals, day = np.unique(views.start[video] + (row - views.bounds[video]), return_inverse=True)
        dates = _field_table([date.fromordinal(o).isoformat() for o in ordinals.tolist()])
        yield from _csv_rows([(ids, video), (dates, day.ravel()), (None, views.values[row])])


def metadata_blocks(metadata: Mapping[str, VideoMeta]) -> Iterator[bytes]:
    """The canonical metadata CSV as blocks of UTF-8, the header line first: rows sorted by
    video_id, genres sorted."""
    rows = sorted(metadata.items())
    every = np.arange(len(rows))
    yield _header(METADATA_HEADER)
    yield from _csv_rows([
        (_field_table([vid for vid, _ in rows]), every),
        (_field_table([m.artist_id for _, m in rows]), every),
        (_field_table([m.upload_date.isoformat() for _, m in rows]), every),
        (_field_table(["|".join(sorted(m.genres)) for _, m in rows]), every),
    ])


def serialize_snapshots(network: DynamicNetwork) -> str:
    """Canonical snapshots CSV, the text of :func:`snapshot_blocks`."""
    return _text(snapshot_blocks(network))


def serialize_views(views: ViewTable) -> str:
    """Canonical views CSV, the text of :func:`view_blocks`."""
    return _text(view_blocks(views))


def serialize_metadata(metadata: Mapping[str, VideoMeta]) -> str:
    """Canonical metadata CSV, the text of :func:`metadata_blocks`."""
    return _text(metadata_blocks(metadata))
