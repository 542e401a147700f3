"""Tests for the multi-index poset utilities."""
from __future__ import annotations

import pytest

from gaugeinv import multiindex as mi


def test_order_and_unit():
    assert mi.order((2, 1, 3)) == 6
    assert mi.unit(3, 1) == (1, 0, 0)
    assert mi.unit(3, 3) == (0, 0, 1)
    with pytest.raises(ValueError):
        mi.unit(2, 3)


def test_check_index_rejects_bad_entries():
    with pytest.raises(ValueError):
        mi.check_index((1, -1))
    with pytest.raises(mi.DimensionMismatchError):
        mi.check_index((1, 0), 3)


def test_partial_order():
    assert mi.leq((1, 0), (2, 1))
    assert not mi.leq((2, 0), (1, 1))
    assert mi.below((1, 0), (1, 1))
    assert not mi.below((1, 1), (1, 1))
    with pytest.raises(mi.DimensionMismatchError):
        mi.leq((1, 0), (1, 0, 0))


def test_ups_are_the_covers_in_direction_order():
    assert mi.ups((2, 1)) == [(3, 1), (2, 2)]
    assert mi.ups((0,)) == [(1,)]
    assert mi.ups(()) == []
    for v in mi.down_set([(2, 1, 1)]):
        assert mi.ups(v) == [mi.add(v, mi.unit(3, i)) for i in (1, 2, 3)]


def test_down_set_is_union_of_boxes():
    ds = mi.down_set([(2, 1)])
    assert ds == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)}
    ds2 = mi.down_set([(2, 0), (0, 1)])
    assert ds2 == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_down_set_closed_downward():
    ds = mi.down_set([(2, 1), (1, 2)])
    for v in ds:
        for u in ds:
            if mi.leq(u, v):
                assert u in ds


def test_canonical_order_is_graded_then_lex():
    vs = [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1)]
    assert mi.sort_canonical(vs) == [
        (0, 2), (1, 1), (2, 0), (0, 1), (1, 0), (0, 0)
    ]


def test_antichain():
    assert mi.is_antichain([(2, 1), (1, 2)])
    assert not mi.is_antichain([(2, 1), (1, 1)])
    assert mi.is_antichain([])


def test_maximal_elements():
    vs = mi.down_set([(2, 1), (1, 2)])
    assert mi.maximal_elements(vs) == {(2, 1), (1, 2)}
    assert mi.maximal_elements({(1, 0), (0, 1)}) == {(1, 0), (0, 1)}
