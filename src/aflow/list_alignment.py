"""Alignment between relevant and recommended lists.

Positions are binned as in the paper, into ``BINS``: 1, 2-5, 6-10 and 11-15.
Both matrices below condition on (day, source) pairs where the snapshot holds
both a relevant and a recommended list; days where either list is missing are
excluded from numerators and denominators alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DataFormatError, DynamicNetwork

BINS = ((1, 1), (2, 5), (6, 10), (11, 15))  # inclusive position ranges, contiguous from 1
MAX_REL = 50  # deepest relevant rank the display matrix conditions on
MAX_REC = 15  # deepest recommended position the origin matrix conditions on

# _BIN_OF[q] is the bin of position q, and -1 at 0 and past the last bin
_BIN_OF = np.array([-1] + [b for b, (lo, hi) in enumerate(BINS) for _ in range(lo, hi + 1)] + [-1])


@dataclass(frozen=True, eq=False)
class DisplayProbabilityMatrix:
    """Conditional placement probabilities with their per-row sample sizes.

    ``probs[i, j]`` is the fraction of row i's denominator landing in column
    bin j; rows with a zero denominator stay all-zero.  Row sums never exceed
    1 because the remaining mass is "not placed within the binned range".
    """

    probs: np.ndarray
    denominators: np.ndarray
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]


def _alignment_matrix(
    network: DynamicNetwork, from_kind: int, max_from: int, bound: str
) -> DisplayProbabilityMatrix:
    """P(position in the other list falls in bin b | position p in a ``from_kind`` list).

    Each ``from_kind`` row at position <= ``max_from`` whose (day, source)
    also has a list of the other kind is one observation of its position.
    It is placed in bin b when the same target sits in that other list at a
    position inside bin b.  Rows are joined on (day, source) list keys, then
    on (day, source, target) row keys.  The table is sorted by (day, kind,
    source, position), so the other kind's list keys are already in order,
    its row keys are out of order only within a list, and the rows of each
    ``from_kind`` list are one run, whose list key is looked up once.
    """
    if max_from < 1:
        raise DataFormatError(f"{bound} must be at least 1, got {max_from}")
    t = network.table
    n_ids = t.ids.size
    is_from = t.kind == from_kind
    other = np.flatnonzero(~is_from)
    rows = np.flatnonzero(is_from & (t.pos <= max_from))
    other_lists = t.day[other].astype(np.int64) * n_ids + t.src[other]
    lists = t.day[rows].astype(np.int64) * n_ids + t.src[rows]
    opens_run = np.ones(lists.size, dtype=bool)
    opens_run[1:] = lists[1:] != lists[:-1]
    heads = np.flatnonzero(opens_run)
    keys = lists[heads]
    at = np.searchsorted(other_lists, keys)
    observed = at < other.size
    observed[observed] = other_lists[at[observed]] == keys[observed]
    observed = np.repeat(observed, np.diff(np.r_[heads, lists.size]))
    rows, lists = rows[observed], lists[observed]
    den = np.bincount(t.pos[rows] - 1, minlength=max_from)

    other_rows = other_lists * n_ids + t.tgt[other]
    by_row = np.argsort(other_rows, kind="stable")  # timsort: runs already in order
    other, other_rows = other[by_row], other_rows[by_row]
    keys = lists * n_ids + t.tgt[rows]
    at = np.searchsorted(other_rows, keys)
    matched = at < other.size
    matched[matched] = other_rows[at[matched]] == keys[matched]
    placed = _BIN_OF[np.minimum(t.pos[other[at[matched]]], _BIN_OF.size - 1)]
    inside = placed >= 0
    cell = (t.pos[rows[matched][inside]] - 1) * len(BINS) + placed[inside]
    num = np.bincount(cell, minlength=max_from * len(BINS)).reshape(max_from, len(BINS))
    return DisplayProbabilityMatrix(
        probs=num / np.maximum(den, 1)[:, None],
        denominators=den,
        row_labels=tuple(str(r) for r in range(1, max_from + 1)),
        col_labels=tuple(f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in BINS),
    )


def display_probability_matrix(
    network: DynamicNetwork, max_rel: int = MAX_REL
) -> DisplayProbabilityMatrix:
    """P(recommended position falls in bin b | relevant rank r).

    One observation per (day, source, relevant entry) with rank <= max_rel.
    The entry's target contributes to a numerator cell only when it also
    appears in that day's recommended list inside one of the bins.
    """
    return _alignment_matrix(network, 0, max_rel, "max_rel")


def origin_probability_matrix(
    network: DynamicNetwork, max_rec: int = MAX_REC
) -> DisplayProbabilityMatrix:
    """P(relevant rank falls in bin b | recommended position q).

    One observation per (day, source, recommended entry) with position
    <= max_rec.  Targets absent from the relevant list (or ranked beyond the
    binned range) contribute to the denominator only, so row sums below 1
    measure recommendations that did not originate from the binned ranks.
    """
    return _alignment_matrix(network, 1, max_rec, "max_rec")
