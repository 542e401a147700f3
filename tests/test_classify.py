"""Tests for class specification and term-lattice analysis."""
from __future__ import annotations

import pytest

from gaugeinv.classify import (
    ClassSpec,
    ClassSpecError,
    analyze,
    class_operator,
    phi,
)
from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.jetalg import JetExpr, ONE

import _fixtures as fx


def test_spec_validation():
    with pytest.raises(ClassSpecError):
        ClassSpec(2, ())  # no terms
    with pytest.raises(ClassSpecError):
        ClassSpec(2, (((2, 1), ONE), ((1, 1), ONE)))  # not an antichain
    with pytest.raises(ClassSpecError):
        ClassSpec(2, (((1, 1), ONE), ((1, 1), ONE)))  # duplicates
    with pytest.raises(ClassSpecError):
        ClassSpec(2, (((1, 1), JetExpr.const(0)),))  # zero coefficient
    with pytest.raises(ClassSpecError):
        # compound coefficients are not single symbols
        ClassSpec(2, (((1, 1), parse_expr("a[1,0] + 1", 2)),))
    with pytest.raises(ClassSpecError):
        ClassSpec(2, (((1, 1), parse_expr("g", 2)),))  # the gauge symbol
    for bad in ((-1, 2), (1, 1, 1)):  # a negative entry; the wrong length
        with pytest.raises(ClassSpecError):
            ClassSpec(2, ((bad, ONE),))


def test_spec_json_errors_are_typed():
    terms = [{"vector": [1, 1], "coefficient": "1"}]
    for data in ({"dimension": "two", "maximal_terms": terms},
                 {"dimension": 2.7, "maximal_terms": terms},
                 {"dimension": 2}, {"dimension": 2, "maximal_terms": [{"vector": [1, 1]}]}):
        with pytest.raises(ClassSpecError):
            ClassSpec.from_json(data)


def test_maximal_set():
    spec = fx.spec_xxy_xyy()
    assert spec.maximal_set == {(2, 1), (1, 2)}
    assert analyze(spec).maximal_set is spec.maximal_set


def test_spec_json_round_trip():
    for make in (fx.spec_x3, fx.spec_five_order_3d, fx.spec_xxy_xyy):
        spec = make()
        assert ClassSpec.from_json(spec.to_json()) == spec


def test_lattice_classification_xxy():
    an = analyze(fx.spec_xxy())
    assert an.maximal_set == {(2, 1)}
    assert an.submaximal_set == {(2, 0), (1, 1)}
    assert an.interior_set == {(1, 0), (0, 1), (0, 0)}


def test_lattice_classification_xxy_xyy():
    an = analyze(fx.spec_xxy_xyy())
    assert an.maximal_set == {(2, 1), (1, 2)}
    assert an.submaximal_set == {(2, 0), (1, 1), (0, 2)}
    assert an.interior_set == {(1, 0), (0, 1), (0, 0)}


def test_lattice_classification_x3():
    an = analyze(fx.spec_x3())
    assert an.maximal_set == {(3, 0), (1, 1), (0, 2)}
    assert an.submaximal_set == {(2, 0), (0, 1)}
    assert an.interior_set == {(1, 0), (0, 0)}


def test_phi_rows_xxy():
    an = analyze(fx.spec_xxy())
    assert phi(an, (1, 1)) == (JetExpr.const(2), JetExpr.const(0))
    assert phi(an, (2, 0)) == (JetExpr.const(0), ONE)
    with pytest.raises(ValueError):
        phi(an, (1, 0))


def test_phi_rows_five_order_3d():
    an = analyze(fx.spec_five_order_3d())
    p = parse_expr("p", 3)
    q = parse_expr("q", 3)
    z = JetExpr.const(0)
    assert phi(an, (2, 2, 0)) == (z, z, p)
    assert phi(an, (1, 3, 0)) == (z, z, q)
    assert phi(an, (1, 1, 2)) == (z, z, JetExpr.const(3))
    assert phi(an, (1, 2, 1)) == (p.scale(2), q.scale(3), z)


def test_approximately_flat_fixtures():
    for make in fx.ALL_CONSTRUCTIVE.values():
        an = analyze(make())
        assert an.approximately_flat
        witness = an.flat_witness
        n = an.dimension
        assert len(set(witness)) == n
        for i, s in enumerate(witness, start=1):
            up = tuple(x + (1 if k == i - 1 else 0) for k, x in enumerate(s))
            assert up in an.maximal_set


def test_not_approximately_flat():
    assert not analyze(fx.spec_not_flat_a()).approximately_flat
    assert not analyze(fx.spec_not_flat_b()).approximately_flat


def test_not_framed_with_duplicate_phi():
    an = analyze(fx.spec_not_framed())
    assert an.approximately_flat
    assert not an.framed
    rows = {s: phi(an, s) for s in an.submaximal_set}
    assert rows[(1, 0)] == rows[(0, 1)]
    assert rows[(1, 0)] == (JetExpr.const(2), JetExpr.const(2))


def test_framing_sets():
    assert analyze(fx.spec_xxy()).framing_set == ((1, 1), (2, 0))
    assert analyze(fx.spec_xxy_xyy()).framing_set == ((0, 2), (2, 0))
    assert analyze(fx.spec_x3()).framing_set == ((2, 0), (0, 1))
    # the five-order class selects the three single-entry rows
    assert analyze(fx.spec_five_order_3d()).framing_set == (
        (0, 1, 3), (1, 0, 3), (1, 1, 2)
    )


def test_framing_assumptions_x3():
    an = analyze(fx.spec_x3())
    assert [print_expr(e) for e in an.framing_assumptions] == ["a[0,2]"]


def test_class_operator_support():
    spec = fx.spec_xxy()
    L = class_operator(spec)
    assert L.support() == {(2, 1), (2, 0), (1, 1), (1, 0), (0, 1), (0, 0)}
    assert L.coefficient((2, 1)) == ONE
    assert print_expr(L.coefficient((1, 0))) == "a[1,0]"


def test_analysis_json():
    data = analyze(fx.spec_xxy()).to_json()
    assert data["approximately_flat"] is True
    assert data["framed"] is True
    assert [2, 1] in data["maximal"]
