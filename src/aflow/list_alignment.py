"""Alignment between relevant and recommended lists.

Both matrices below condition on (day, source) pairs where the snapshot holds
both a relevant and a recommended list; days where either list is missing are
excluded from numerators and denominators alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import DataFormatError, DynamicNetwork

DEFAULT_BINS: tuple[tuple[int, int], ...] = ((1, 1), (2, 5), (6, 10), (11, 15))


@dataclass(frozen=True)
class PositionBins:
    """Disjoint ascending inclusive position ranges, e.g. (1,1),(2,5),(6,10),(11,15)."""

    ranges: tuple[tuple[int, int], ...] = DEFAULT_BINS

    def __post_init__(self) -> None:
        prev_hi = 0
        for lo, hi in self.ranges:
            if lo < 1 or hi < lo:
                raise DataFormatError(f"bad position bin ({lo}, {hi})")
            if lo <= prev_hi:
                raise DataFormatError("position bins must be disjoint and ascending")
            prev_hi = hi

    @property
    def max_position(self) -> int:
        return self.ranges[-1][1]

    def bin_of(self, positions: np.ndarray) -> np.ndarray:
        """Bin index of each position, -1 for a position outside every bin."""
        table = np.full(self.max_position + 2, -1)
        for b, (lo, hi) in enumerate(self.ranges):
            table[lo : hi + 1] = b
        return table[np.minimum(positions, self.max_position + 1)]

    def labels(self) -> list[str]:
        return [f"{lo}" if lo == hi else f"{lo}-{hi}" for lo, hi in self.ranges]


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
    network: DynamicNetwork, from_kind: int, max_from: int, bound: str, bins: PositionBins | None
) -> DisplayProbabilityMatrix:
    """P(position in the other list falls in bin b | position p in a ``from_kind`` list).

    Each ``from_kind`` row at position <= ``max_from`` whose (day, source)
    also has a list of the other kind is one observation of its position.
    It is placed in bin b when the same target sits in that other list at a
    position inside bin b.  Rows are joined on (day, source, target) keys.
    """
    if max_from < 1:
        raise DataFormatError(f"{bound} must be at least 1, got {max_from}")
    bins = bins or PositionBins()
    t = network.table
    list_key = t.day.astype(np.int64) * t.ids.size + t.src
    row_key = list_key * t.ids.size + t.tgt
    is_from = t.kind == from_kind
    observed = is_from & (t.pos <= max_from) & np.isin(list_key, list_key[~is_from])
    den = np.bincount(t.pos[observed] - 1, minlength=max_from)

    other = np.flatnonzero(~is_from)
    other = other[np.argsort(row_key[other])]
    keys = row_key[observed]
    at = np.minimum(np.searchsorted(row_key[other], keys), other.size - 1)
    matched = row_key[other[at]] == keys
    placed = bins.bin_of(t.pos[other[at[matched]]])
    inside = placed >= 0
    num = np.zeros((max_from, len(bins.ranges)), dtype=np.int64)
    np.add.at(num, (t.pos[observed][matched][inside] - 1, placed[inside]), 1)
    return DisplayProbabilityMatrix(
        probs=num / np.maximum(den, 1)[:, None],
        denominators=den,
        row_labels=tuple(str(r) for r in range(1, max_from + 1)),
        col_labels=tuple(bins.labels()),
    )


def display_probability_matrix(
    network: DynamicNetwork,
    bins: PositionBins | None = None,
    max_rel: int = 50,
) -> DisplayProbabilityMatrix:
    """P(recommended position falls in bin b | relevant rank r).

    One observation per (day, source, relevant entry) with rank <= max_rel.
    The entry's target contributes to a numerator cell only when it also
    appears in that day's recommended list inside one of the bins.
    """
    return _alignment_matrix(network, 0, max_rel, "max_rel", bins)


def origin_probability_matrix(
    network: DynamicNetwork,
    bins: PositionBins | None = None,
    max_rec: int = 15,
) -> DisplayProbabilityMatrix:
    """P(relevant rank falls in bin b | recommended position q).

    One observation per (day, source, recommended entry) with position
    <= max_rec.  Targets absent from the relevant list (or ranked beyond the
    binned range) contribute to the denominator only, so row sums below 1
    measure recommendations that did not originate from the binned ranks.
    """
    return _alignment_matrix(network, 1, max_rec, "max_rec", bins)
