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

Snapshots and views files, LF or CRLF, are first split as bytes with numpy.  A
file the split cannot prove clean (quoting, a CR outside a CRLF line end, NUL or
non-ASCII bytes, a blank line, or a malformed row or one some check rejects)
goes unchanged to the csv row reader, which alone reports errors; both paths
give the same result and the same message.
"""

from __future__ import annotations

import csv
import io
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


def cell(convert: Callable[[str], T | None], text: str, where: str, what: str) -> T:
    """``convert(text)``; a None result is a bad cell, reported at ``where``."""
    value = convert(text)
    if value is None:
        raise DataFormatError(f"{where}: bad {what} {text!r}")
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
        cls, names: Sequence[str], day: np.ndarray, src: np.ndarray, tgt: np.ndarray,
        pos: np.ndarray, kind: np.ndarray,
    ) -> SnapshotTable:
        """Sort ``names`` into the id vocabulary, recode and sort the rows.

        Rejects a name that :func:`_id_problem` rejects; the rows are not checked.
        """
        bad = _bad_ids(names)
        if bad:
            raise DataFormatError(_id_problem(names[bad[0]]))
        order = sorted(range(len(names)), key=names.__getitem__)
        recode = np.empty(len(names), dtype=np.int32)
        recode[order] = np.arange(len(names), dtype=np.int32)
        ids = np.array([names[i] for i in order], dtype=str)
        src, tgt = recode[src], recode[tgt]
        rows = np.lexsort((pos, src, kind, day))
        return cls(
            ids,
            np.asarray(day, dtype=np.int32)[rows],
            src[rows],
            tgt[rows],
            np.asarray(pos, dtype=np.int32)[rows],
            np.asarray(kind, dtype=np.int8)[rows],
        )


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

    The row reader of every CSV that aflow reads, inputs and artifacts alike;
    its errors name no file, :func:`parse_file` adds the path.
    """
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
                    yield line_no, row
                line_no = reader.line_num + 1
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise DataFormatError(f"line {line_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text: {exc.reason}") from None


_MAX_POSITION = np.iinfo(np.int32).max
_MAX_VIEWS = np.iinfo(np.int64).max
# numpy string arrays drop trailing NULs, and the canonical writer leaves a
# carriage return unquoted, so ids holding these would not survive a round trip.
_FORBIDDEN_ID_CHARS = "\0\r\n"


def _id_problem(text: str, what: str = "video id") -> str | None:
    """Why ``text`` cannot be a ``what`` (an id or a genre name), or None when it can."""
    if not text:
        return f"empty {what}"
    if any(c in text for c in _FORBIDDEN_ID_CHARS):
        return f"{what} {text!r} holds a NUL or line break"
    return None


def _bad_ids(ids: Sequence[str]) -> list[int]:
    """Indices of the ids that :func:`_id_problem` rejects; one joined scan when none is."""
    joined = "\t".join(ids)
    if "" not in ids and not any(c in joined for c in _FORBIDDEN_ID_CHARS):
        return []
    return [i for i, vid in enumerate(ids) if _id_problem(vid)]


def _snapshot_row(line_no: int, row: Sequence[str], codes: dict[str, int]) -> tuple[int, ...]:
    """The (ordinal, source code, target code, position, kind, line) of a snapshot row, or
    the error for a row that fails a check of its own fields.  New ids get the next codes."""
    if len(row) != 5:
        raise DataFormatError(f"line {line_no}: expected 5 fields, got {len(row)}")
    where = f"line {line_no}"
    ordinal = cell(date_or_none, row[0], where, "date").toordinal()
    src, tgt = row[1], row[2]
    if not src or not tgt:
        raise DataFormatError(f"line {line_no}: empty video id")
    for vid in (src, tgt):
        problem = None if vid in codes else _id_problem(vid)
        if problem:
            raise DataFormatError(f"line {line_no}: {problem}")
    pos = cell(int_or_none, row[3], where, "position")
    if pos < 1:
        raise DataFormatError(f"line {line_no}: position {pos} is below 1")
    if pos > _MAX_POSITION:
        raise DataFormatError(f"line {line_no}: position {pos} is too large")
    kind = row[4]
    if kind not in LIST_KINDS:
        raise DataFormatError(f"line {line_no}: unknown list kind {kind!r}")
    if tgt == src:
        raise DataFormatError(f"line {line_no}: self-link on {src}")
    return (ordinal, codes.setdefault(src, len(codes)), codes.setdefault(tgt, len(codes)), pos,
            LIST_KINDS.index(kind), line_no)


def _ordinal_or_bad(text: str) -> int:
    parsed = date_or_none(text)
    return -1 if parsed is None else parsed.toordinal()


def _position_or_bad(text: str) -> int:
    value = int_or_none(text)
    return value if value is not None and value <= _MAX_POSITION else 0


def _kind_or_bad(text: str) -> int:
    return LIST_KINDS.index(text) if text in LIST_KINDS else -1


def _first_repeat(line: np.ndarray, *key: np.ndarray) -> tuple[int, int] | None:
    """(line, first line) of the earliest row whose key columns repeat an earlier row's."""
    if line.size < 2:
        return None
    rows = np.lexsort(key[::-1])  # stable: rows with equal keys stay in file order
    same = np.ones(rows.size - 1, dtype=bool)
    for col in key:
        sorted_col = col[rows]
        same &= sorted_col[1:] == sorted_col[:-1]
    if not same.any():
        return None
    run_start = np.maximum.accumulate(np.where(np.r_[True, ~same], np.arange(rows.size), 0))
    repeats = np.flatnonzero(same) + 1
    first = repeats[np.argmin(rows[repeats])]
    return int(line[rows[first]]), int(line[rows[run_start[first]]])


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


def _read_snapshot_rows(path: str | Path) -> DynamicNetwork:
    """:func:`parse_snapshots` row by row with the csv module: the reader of every file
    the byte split declines, and the only source of its errors."""
    # Codes in first-seen order; from_codes recodes them in id order.
    codes: dict[str, int] = {}
    coded = array("i")  # (ordinal, src, tgt, pos, kind, line) of each row in turn
    bad_row: tuple[int, DataFormatError] | None = None
    for line_no, row in csv_rows(path, SNAPSHOT_HEADER):
        try:
            coded.extend(_snapshot_row(line_no, row, codes))
        except DataFormatError as exc:
            bad_row = (line_no, exc)
            break

    names = list(codes)
    del codes  # the interning dict is as large as the vocabulary; free it early
    ordinal, src, tgt, pos, kind, line = np.array(coded, dtype=np.int32).reshape(-1, 6).T
    del coded
    duplicate = None
    for label, col in (("position", pos), ("target", tgt)):
        found = _first_repeat(line, ordinal, kind, src, col)
        if found and (duplicate is None or found[0] < duplicate[0]):
            duplicate = (*found, label)
    if duplicate and (bad_row is None or duplicate[0] < bad_row[0]):
        at, first_at, label = duplicate
        i = int(np.flatnonzero(line == at)[0])
        what = pos[i] if label == "position" else names[tgt[i]]
        raise DataFormatError(
            f"line {at}: duplicate {label} {what} in {LIST_KINDS[kind[i]]} list of "
            f"{names[src[i]]} on {date.fromordinal(int(ordinal[i]))} (first seen at line {first_at})"
        )
    if bad_row is not None:
        raise bad_row[1]
    if not ordinal.size:
        raise DataFormatError("snapshots file holds no rows")

    present = np.unique(ordinal)
    start = date.fromordinal(int(present[0]))
    window = ObservationWindow(start, int(present[-1] - present[0]) + 1)
    if present.size != window.n_days:
        gap = next(i for i, o in enumerate(present.tolist()) if o != present[0] + i)
        raise DataFormatError(
            f"snapshot days are not consecutive, missing {start + timedelta(days=gap)}"
        )
    table = SnapshotTable.from_codes(names, ordinal - present[0], src, tgt, pos, kind)
    return DynamicNetwork(window, table)


def _read_view_rows(path: str | Path) -> ViewTable:
    """:func:`parse_views` row by row with the csv module, as :func:`_read_snapshot_rows`."""
    rows: dict[str, dict[date, int]] = {}
    for line_no, row in csv_rows(path, VIEWS_HEADER):
        if len(row) != 3:
            raise DataFormatError(f"line {line_no}: expected 3 fields, got {len(row)}")
        vid = row[0]
        if vid not in rows:  # each distinct id is checked once
            problem = _id_problem(vid)
            if problem:
                raise DataFormatError(f"line {line_no}: {problem}")
        where = f"line {line_no}"
        d = cell(date_or_none, row[1], where, "date")
        count = cell(int_or_none, row[2], where, "view count")
        if count < 0:
            raise DataFormatError(f"line {line_no}: negative view count for {vid}")
        if count > _MAX_VIEWS:
            raise DataFormatError(f"line {line_no}: view count {count} is too large")
        per = rows.setdefault(vid, {})
        if d in per:
            raise DataFormatError(f"line {line_no}: duplicate day {d} for {vid}")
        per[d] = count

    if not rows:
        raise DataFormatError("views file holds no rows")

    for vid, per in rows.items():  # in first-appearance order: the first video with a gap is reported
        first = min(per)
        span = (max(per) - first).days + 1
        if len(per) != span:
            missing = sorted(set(ObservationWindow(first, span).dates()) - set(per))
            raise DataFormatError(f"view series for {vid} has a gap at {missing[0]}")
    ids = sorted(rows)
    days = [sorted(rows[vid]) for vid in ids]
    return ViewTable(
        np.array(ids, dtype=str),
        np.array([d[0].toordinal() for d in days], dtype=np.int64),
        np.cumsum([0, *map(len, days)], dtype=np.int64),
        np.array([rows[vid][d] for vid, vid_days in zip(ids, days) for d in vid_days], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# byte split: snapshots and views files that are provably clean, without the csv module

# Bytes per block.  Not larger: with 1 MB blocks a whole `pipeline` command
# peaked 5% higher, as freeing bigger temporaries raises glibc's dynamic mmap
# threshold and later arrays stay on the heap.
_BLOCK_BYTES = 1 << 18
# A quote, NUL or non-ASCII (>= 0x80) byte anywhere sends the file to the row reader, as
# does a CR that does not end a line before its LF.
_DECLINED_BYTES = (ord('"'), 0)
_COMMA, _CR, _LF, _ZERO = ord(","), ord("\r"), ord("\n"), ord("0")
# _KEEP[k] keeps the first k bytes of a big-endian uint64 and zeroes the rest.
_KEEP = np.array([0] + [(1 << 64) - (1 << (64 - 8 * k)) for k in range(1, 9)], dtype=np.uint64)
# Digits a view count may have on the byte split: 10**18 - 1 fits in int64.
_VIEW_DIGITS = 18
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    """(bytes, field starts, field lengths) of each newline-aligned block of rows.

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
    """One block of :func:`_blocks`, which ends with a LF, split after each CR of a CRLF is dropped."""
    cr = np.flatnonzero(buf == _CR)
    if cr.size:
        if (buf[cr + 1] != _LF).any():  # the block ends with a LF, so cr + 1 is inside it
            raise _Declined
        buf = np.delete(buf, cr)
    declined = buf >= 0x80
    for byte in _DECLINED_BYTES:
        declined |= buf == byte
    if declined.any():
        raise _Declined
    newline = buf == _LF
    ends = np.flatnonzero(newline | (buf == _COMMA))
    n_rows = ends.size // n_fields
    if ends.size % n_fields or np.count_nonzero(newline) != n_rows:
        raise _Declined
    ends = ends.reshape(n_rows, n_fields)
    if not newline[ends[:, -1]].all():
        raise _Declined
    starts = np.empty_like(ends)
    starts[0, 0] = 0
    starts[1:, 0] = ends[:-1, -1] + 1
    starts[:, 1:] = ends[:, :-1] + 1
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() >= limit:
        raise _Declined
    return buf, starts, lengths


def _lanes(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each field as a row of zero-padded big-endian uint64 lanes.

    Fields hold no NUL, so the order of lane rows is the byte order of the
    fields, which for ASCII is the order of the ``str`` they spell.
    """
    n_lanes = -(-int(lengths.max()) // 8)
    padded = np.concatenate([buf, np.zeros(8 * n_lanes, dtype=np.uint8)])
    # The big-endian uint64 that starts at each byte.
    words = np.ndarray(padded.size - 7, dtype=">u8", buffer=padded, strides=(1,))
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
    distinct = lanes[row]
    if not np.array_equal(distinct[inverse], lanes):
        raise _Declined  # two fields share a hash
    return hashes, distinct, inverse


class _Vocabulary:
    """The distinct fields of a file's id columns, as lane rows coded in the order they are added.

    A block's fields are looked up by hash in sorted runs of the hashes seen
    so far.  A run merges into the one before it while that one is at most
    twice its size, so there are O(log n) runs and each hash is merged
    O(log n) times; memory grows with the vocabulary, not the rows.
    """

    def __init__(self) -> None:
        self.lanes = np.zeros((0, 1), dtype=np.uint64)  # row i is code i, up to ``size``; the rest is spare
        self.size = 0
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []  # (sorted hashes, their int32 codes)

    def codes(self, lanes: np.ndarray) -> np.ndarray:
        """The int32 code of each lane row; rows not seen before get new codes."""
        if lanes.shape[1] > self.lanes.shape[1]:  # hashes depend on the lane count
            self.lanes = np.pad(self.lanes, ((0, 0), (0, lanes.shape[1] - self.lanes.shape[1])))
            self.runs = []
            self._add_run(_hashed(self.lanes[: self.size]), np.arange(self.size, dtype=np.int32))
        lanes = np.pad(lanes, ((0, 0), (0, self.lanes.shape[1] - lanes.shape[1])))
        hashes, distinct, inverse = _distinct(lanes)
        code = np.full(hashes.size, -1, dtype=np.int32)
        for run, run_codes in self.runs:
            at = np.searchsorted(run, hashes)
            hit = at < run.size
            hit[hit] = run[at[hit]] == hashes[hit]
            code[hit] = run_codes[at[hit]]
        known = code >= 0
        if not np.array_equal(self.lanes[code[known]], distinct[known]):
            raise _Declined  # a field shares its hash with an earlier one
        new = np.flatnonzero(~known)
        code[new] = np.arange(self.size, self.size + new.size, dtype=np.int32)
        if self.size + new.size > len(self.lanes):  # grow geometrically: appends stay O(1) each
            grown = np.zeros((max(2 * len(self.lanes), self.size + new.size), self.lanes.shape[1]), dtype=np.uint64)
            grown[: self.size] = self.lanes[: self.size]
            self.lanes = grown
        self.lanes[self.size : self.size + new.size] = distinct[new]
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

    def sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(the lane rows in byte order, the int32 rank of each code in that order)."""
        lanes = self.lanes[: self.size]
        order = np.lexsort(lanes.T[::-1])
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        return lanes[order], rank


def _texts(lanes: np.ndarray, width: int) -> np.ndarray:
    """The ``str`` array, of at most ``width`` characters each, that lane rows spell."""
    spelled = np.ascontiguousarray(lanes.astype(">u8")).view(f"S{8 * lanes.shape[1]}")[:, 0]
    return spelled.astype(f"U{width}")


def _converted(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray, convert: Callable[[str], int]) -> np.ndarray:
    """``convert`` of each field as int64, called once per distinct field."""
    _, keys, inverse = _distinct(_lanes(buf, starts, lengths))
    values = [convert(text) for text in _texts(keys, int(lengths.max())).tolist()]
    return np.array(values, dtype=np.int64)[inverse]


def _digits(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The int64 each field spells in at most ``_VIEW_DIGITS`` ASCII digits."""
    width = int(lengths.max())
    if width > _VIEW_DIGITS:
        raise _Declined
    place = np.arange(-width, 0)
    # Places before a field's first digit may wrap past the block's start; they are zeroed.
    digits = buf[(starts + lengths)[:, None] + place] - np.uint8(_ZERO)
    digits[place < -lengths[:, None]] = 0
    if (digits > 9).any():
        raise _Declined
    return digits.astype(np.int64) @ 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)


def _repeat_free_order(day: np.ndarray, kind: np.ndarray, src: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Row order by (day, kind, src, col); declines when two rows share that key or it overflows int64."""
    spans = [int(c.max()) + 1 for c in (day, kind, src, col)]
    if math.prod(spans) > _INT64_MAX:
        raise _Declined
    key = day.astype(np.int64)
    for c, span in zip((kind, src, col), spans[1:]):
        key *= span
        key += c
    order = np.argsort(key)
    key = key[order]
    if (key[1:] == key[:-1]).any():
        raise _Declined
    return order


def _split_snapshots(handle: IO[bytes]) -> DynamicNetwork:
    """:func:`parse_snapshots` of a clean file by a numpy byte split."""
    vocabulary, width = _Vocabulary(), 0
    ordinal, src, tgt, pos, kind = [], [], [], [], []
    for buf, starts, lengths in _blocks(handle, SNAPSHOT_HEADER):
        ordinal.append(_converted(buf, starts[:, 0], lengths[:, 0], _ordinal_or_bad).astype(np.int32))
        pos.append(_converted(buf, starts[:, 3], lengths[:, 3], _position_or_bad).astype(np.int32))
        kind.append(_converted(buf, starts[:, 4], lengths[:, 4], _kind_or_bad).astype(np.int8))
        if ordinal[-1].min() < 0 or pos[-1].min() < 1 or kind[-1].min() < 0:
            raise _Declined
        codes = vocabulary.codes(_lanes(buf, starts[:, 1:3].ravel(), lengths[:, 1:3].ravel()))
        src.append(codes[0::2])
        tgt.append(codes[1::2])
        width = max(width, int(lengths[:, 1:3].max()))
    if not src:
        raise _Declined
    names, rank = vocabulary.sorted()
    del vocabulary
    src, tgt = rank[np.concatenate(src)], rank[np.concatenate(tgt)]
    ordinal, pos, kind = np.concatenate(ordinal), np.concatenate(pos), np.concatenate(kind)
    first = int(ordinal.min())
    day = ordinal - np.int32(first)
    del ordinal
    if (src == tgt).any() or not np.bincount(day).all():
        raise _Declined  # a self-link, or a day without rows
    _repeat_free_order(day, kind, src, tgt)  # only its check: a target twice in one list
    rows = _repeat_free_order(day, kind, src, pos)
    window = ObservationWindow(date.fromordinal(first), int(day.max()) + 1)
    day, src, tgt, pos, kind = day[rows], src[rows], tgt[rows], pos[rows], kind[rows]
    return DynamicNetwork(window, SnapshotTable(_texts(names, width), day, src, tgt, pos, kind))


def _split_views(handle: IO[bytes]) -> ViewTable:
    """:func:`parse_views` of a clean file by a numpy byte split."""
    vocabulary, width = _Vocabulary(), 0
    code, ordinal, counts = [], [], []
    for buf, starts, lengths in _blocks(handle, VIEWS_HEADER):
        ordinal.append(_converted(buf, starts[:, 1], lengths[:, 1], _ordinal_or_bad))
        if ordinal[-1].min() < 0:
            raise _Declined
        counts.append(_digits(buf, starts[:, 2], lengths[:, 2]))
        code.append(vocabulary.codes(_lanes(buf, starts[:, 0], lengths[:, 0])))
        width = max(width, int(lengths[:, 0].max()))
    if not code:
        raise _Declined
    names, rank = vocabulary.sorted()
    code, ordinal, counts = rank[np.concatenate(code)], np.concatenate(ordinal), np.concatenate(counts)
    first = int(ordinal.min())
    rows = np.argsort(code.astype(np.int64) * (int(ordinal.max()) - first + 1) + (ordinal - first))
    code, ordinal = code[rows], ordinal[rows]
    opens = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    steps = np.diff(ordinal)
    steps[opens[1:] - 1] = 1
    if (steps != 1).any():
        raise _Declined  # a gap or a repeated day in some video's rows
    bounds = np.append(opens, rows.size).astype(np.int64)
    return ViewTable(_texts(names, width), ordinal[opens], bounds, counts[rows])


def parse_metadata(path: str | Path) -> dict[str, VideoMeta]:
    """Parse the metadata CSV at ``path``; genres field is ``|``-joined and may be empty."""
    out: dict[str, VideoMeta] = {}
    for line_no, row in csv_rows(path, METADATA_HEADER):
        if len(row) != 4:
            raise DataFormatError(f"line {line_no}: expected 4 fields, got {len(row)}")
        vid, artist = row[0], row[1]
        if not vid or not artist:
            raise DataFormatError(f"line {line_no}: empty id field")
        if vid in out:
            raise DataFormatError(f"line {line_no}: duplicate metadata for {vid}")
        upload = cell(date_or_none, row[2], f"line {line_no}", "date")
        genres = frozenset(g for g in row[3].split("|") if g)
        for text, what in ((vid, "video id"), (artist, "artist id"), *((g, "genre") for g in genres)):
            problem = _id_problem(text, what)
            if problem:
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
# canonical serialization

def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The header row, then ``rows``, written by the csv module with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def serialize_snapshots(network: DynamicNetwork) -> str:
    """Canonical snapshots CSV: rows sorted by (date, source, kind, position)."""
    t = network.table
    rows = np.lexsort((t.pos, t.kind, t.src, t.day))
    days = [d.isoformat() for d in network.window.dates()]
    return _csv_text(SNAPSHOT_HEADER, zip(
        map(days.__getitem__, t.day[rows].tolist()),
        t.ids[t.src[rows]].tolist(),
        t.ids[t.tgt[rows]].tolist(),
        t.pos[rows].tolist(),
        map(LIST_KINDS.__getitem__, t.kind[rows].tolist()),
    ))


def serialize_views(views: ViewTable) -> str:
    """Canonical views CSV: rows sorted by (video_id, date)."""
    lengths = np.diff(views.bounds)
    ordinal = np.repeat(views.start - views.bounds[:-1], lengths) + np.arange(views.values.size)
    ordinals, day = np.unique(ordinal, return_inverse=True)
    days = [date.fromordinal(o).isoformat() for o in ordinals.tolist()]
    ids = np.repeat(views.ids, lengths).tolist()
    return _csv_text(VIEWS_HEADER, zip(ids, map(days.__getitem__, day.ravel().tolist()), views.values.tolist()))


def serialize_metadata(metadata: Mapping[str, VideoMeta]) -> str:
    """Canonical metadata CSV: rows sorted by video_id, genres sorted."""
    return _csv_text(METADATA_HEADER, (
        (vid, m.artist_id, m.upload_date.isoformat(), "|".join(sorted(m.genres)))
        for vid, m in sorted(metadata.items())
    ))
