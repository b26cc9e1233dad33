import numpy as np
import pytest

from aflow import datagen
from aflow.data_model import DataFormatError
from aflow.list_alignment import (
    PositionBins,
    display_probability_matrix,
    origin_probability_matrix,
)

import _helpers


def test_default_bins():
    bins = PositionBins()
    assert bins.max_position == 15
    assert bins.labels() == ["1", "2-5", "6-10", "11-15"]
    assert bins.bin_of(np.array([1, 5, 11, 16])).tolist() == [0, 1, 3, -1]


def test_bins_validation():
    with pytest.raises(DataFormatError, match="disjoint and ascending"):
        PositionBins(((1, 5), (4, 8)))
    with pytest.raises(DataFormatError, match="bad position bin"):
        PositionBins(((0, 3),))
    with pytest.raises(DataFormatError, match="bad position bin"):
        PositionBins(((3, 2),))


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
