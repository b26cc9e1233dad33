import numpy as np
import pytest

from aflow import datagen, list_alignment
from aflow.data_model import DataFormatError, DynamicNetwork, ObservationWindow, SnapshotTable
from aflow.list_alignment import BINS, display_probability_matrix, origin_probability_matrix

import _helpers
import _oracles


def test_default_bins():
    assert BINS == ((1, 1), (2, 5), (6, 10), (11, 15))
    assert list_alignment._BIN_OF.tolist() == [-1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, -1]
    net = _helpers.build_network(daily_relevant=[{"s": [("t", 1)]}], daily_recommended=[{"s": [("t", 1)]}])
    assert display_probability_matrix(net).col_labels == ("1", "2-5", "6-10", "11-15")


def test_display_matrix_single_match():
    net = _helpers.build_network(
        daily_relevant=[{"s": [("t", 1)]}],
        daily_recommended=[{"s": [("t", 1)]}],
    )
    m = display_probability_matrix(net, max_rel=3)
    assert m.denominators.tolist() == [1, 0, 0]
    assert m.probs[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert m.probs[1].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert m.row_labels == ("1", "2", "3")
    assert m.col_labels == ("1", "2-5", "6-10", "11-15")


def test_display_matrix_requires_both_lists():
    # day without a recommended list must not count toward denominators
    net = _helpers.build_network(
        daily_relevant=[{"s": [("t", 1)]}, {"s": [("t", 1)]}],
        daily_recommended=[{"s": [("x", 7)]}, {}],
    )
    m = display_probability_matrix(net, max_rel=2)
    assert m.denominators.tolist() == [1, 0]
    assert m.probs[0].tolist() == [0.0, 0.0, 0.0, 0.0]


def test_display_matrix_respects_max_rel():
    net = _helpers.build_network(
        daily_relevant=[{"s": [("t", 1), ("u", 9)]}],
        daily_recommended=[{"s": [("u", 2)]}],
    )
    m = display_probability_matrix(net, max_rel=5)
    assert m.denominators.tolist() == [1, 0, 0, 0, 0]
    with pytest.raises(DataFormatError, match="max_rel"):
        display_probability_matrix(net, max_rel=0)


def test_origin_matrix_single_match_and_miss():
    net = _helpers.build_network(
        daily_relevant=[{"s": [("t", 3)]}],
        daily_recommended=[{"s": [("t", 1), ("z", 2)]}],
    )
    m = origin_probability_matrix(net, max_rec=2)
    assert m.denominators.tolist() == [1, 1]
    assert m.probs[0].tolist() == [0.0, 1.0, 0.0, 0.0]  # rank 3 falls in bin 2-5
    assert m.probs[1].tolist() == [0.0, 0.0, 0.0, 0.0]  # z never ranked
    with pytest.raises(DataFormatError, match="max_rec"):
        origin_probability_matrix(net, max_rec=-1)


def test_matrices_are_probabilities_on_generated_lists():
    kernel = np.array(
        [
            [0.40, 0.25, 0.10, 0.05],
            [0.25, 0.30, 0.15, 0.10],
            [0.10, 0.25, 0.20, 0.15],
        ]
    )
    net = datagen.generate_paired_lists(kernel, n_pairs=600, seed=11)
    for m in (display_probability_matrix(net, max_rel=3), origin_probability_matrix(net)):
        assert np.all(m.probs >= 0.0)
        assert np.all(m.probs <= 1.0)
        assert np.all(m.probs.sum(axis=1) <= 1.0 + 1e-12)
    m = display_probability_matrix(net, max_rel=3)
    assert m.denominators.sum() == 600


def test_display_matrix_zero_rows_stay_zero():
    net = _helpers.build_network(
        daily_relevant=[{"s": [("t", 2)]}],
        daily_recommended=[{"s": [("t", 6)]}],
    )
    m = display_probability_matrix(net, max_rel=4)
    assert m.probs[0].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert m.probs[1].tolist() == [0.0, 0.0, 1.0, 0.0]
    assert m.denominators.tolist() == [0, 1, 0, 0]


def _shuffled_table(seed, kinds=(0, 1)):
    """A network from ``SnapshotTable.from_codes`` of random lists of ``kinds``, its rows and names shuffled."""
    rng = np.random.default_rng(seed)
    n_ids, n_days = 14, 3
    rows = []
    for day in range(n_days):
        for src in range(n_ids):
            for kind in kinds:
                if rng.random() < 0.7:
                    size = int(rng.integers(1, 10))
                    targets = rng.permutation(np.delete(np.arange(n_ids), src))[:size]
                    positions = np.sort(rng.choice(np.arange(1, 21), size=size, replace=False))
                    rows += [(day, src, int(t), int(p), kind) for t, p in zip(targets, positions)]
    rows = np.array(rows).reshape(-1, 5)[rng.permutation(len(rows))]
    names = [f"v{i:02d}" for i in rng.permutation(n_ids)]
    day, src, tgt, pos, kind = rows.T
    table = SnapshotTable.from_codes(names, day, src, tgt, pos, kind)
    return DynamicNetwork(ObservationWindow(datagen.START_DATE, n_days), table)


@pytest.mark.parametrize("kinds", [(0, 1), (0,), (1,)], ids=["both kinds", "relevant only", "recommended only"])
@pytest.mark.parametrize("seed", range(4))
def test_matrices_on_shuffled_rows_match_the_entry_oracle(seed, kinds):
    net = _shuffled_table(seed, kinds)
    snapshots = net.snapshots
    for fn, kind, max_from in ((display_probability_matrix, "relevant", 12),
                               (origin_probability_matrix, "recommended", 9)):
        matrix = fn(net, max_from)
        num, den = _oracles.alignment_counts(snapshots, kind, max_from, BINS)
        assert np.array_equal(matrix.denominators, den)
        assert np.array_equal(matrix.probs, num / np.maximum(den, 1)[:, None])
        assert (den.sum() > 0) == (len(kinds) == 2)
        if len(kinds) == 1:
            assert matrix.probs.shape == (max_from, len(BINS)) and not matrix.probs.any()
