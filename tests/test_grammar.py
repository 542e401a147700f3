"""Tests for the expression grammar: parsing, printing, round-trips."""
from __future__ import annotations

import pytest

from gaugeinv.grammar import ExprParseError, parse_expr, print_expr
from gaugeinv.jetalg import JetExpr, ONE, coeff_symbol, gauge_symbol, param_symbol


def test_parse_coefficient_symbol():
    e = parse_expr("a[2,0]")
    assert e == JetExpr.symbol(coeff_symbol((2, 0)), dim=2)


def test_parse_derived_coefficient():
    e = parse_expr("a[2,0];[1,1]")
    assert e == JetExpr.symbol(coeff_symbol((2, 0)), (1, 1))


def test_parse_gauge_and_params():
    assert parse_expr("g", 2) == JetExpr.symbol(gauge_symbol(), dim=2)
    assert parse_expr("g;[0,1]", 2) == JetExpr.symbol(gauge_symbol(), (0, 1))
    assert parse_expr("q", 3) == JetExpr.symbol(param_symbol("q"), dim=3)


def test_parse_arithmetic():
    e = parse_expr("a[1,0]*a[0,1] + 2*a[0,0]")
    x = JetExpr.symbol(coeff_symbol((1, 0)), dim=2)
    y = JetExpr.symbol(coeff_symbol((0, 1)), dim=2)
    c = JetExpr.symbol(coeff_symbol((0, 0)), dim=2)
    assert e == x * y + c.scale(2)


def test_parse_division_and_power():
    e = parse_expr("a[1,0]^2 / a[0,1]")
    x = JetExpr.symbol(coeff_symbol((1, 0)), dim=2)
    y = JetExpr.symbol(coeff_symbol((0, 1)), dim=2)
    assert e == x * x / y


def test_parse_rational_constants():
    assert parse_expr("3/4", 2) == JetExpr.const(1).scale(3) / JetExpr.const(4)
    assert parse_expr("-2", 2) == JetExpr.const(-2)


def test_parse_parentheses_and_precedence():
    e = parse_expr("(a[1,0] + a[0,1])*a[0,0]")
    f = parse_expr("a[1,0]*a[0,0] + a[0,1]*a[0,0]")
    assert e == f
    g = parse_expr("a[1,0] + a[0,1]*a[0,0]")
    assert g != f


def test_dim_inference_and_mismatch():
    e = parse_expr("a[1,0,0] + a[0,1,1]")
    assert all(len(v.deriv) == 3 for v in e.variables())
    with pytest.raises(ExprParseError):
        parse_expr("a[1,0] + a[1,0,0]")
    with pytest.raises(ExprParseError):
        parse_expr("q")  # bare parameter with no dimension context


def test_parse_errors():
    for bad in ("a[", "a[1,]", "1 +", "a[1,0];", "*a[1,0]", "a[1,0] a[0,1]"):
        with pytest.raises(ExprParseError):
            parse_expr(bad, 2)


def test_division_by_identically_zero_expression():
    for bad in ("1/0", "a[1,0]/(a[0,1]-a[0,1])", "0^-1", "a[1,0]^-2/(2-2)"):
        with pytest.raises(ExprParseError, match="identically-zero"):
            parse_expr(bad, 2)


def test_print_canonical_forms():
    assert print_expr(parse_expr("a[1,0] + a[0,1]", 2)) == "a[0,1] + a[1,0]"
    assert print_expr(JetExpr.const(0)) == "0"
    assert print_expr(ONE) == "1"


def test_round_trip_byte_exact():
    samples = [
        "a[2,0]",
        "a[2,0];[1,1]",
        "-a[1,1]*a[2,0] + a[1,0] - 2*a[2,0];[1,0]",
        "-1/4*a[1,1]^2 + a[0,1] - 1/2*a[1,1];[1,0]",
        "(a[0,1] - a[1,1]*a[2,0])/(2*a[0,2])",
        "g;[1,0]*g;[0,1] + g;[1,1]",
        "q^3 - p*q + 1/7",
    ]
    for text in samples:
        e = parse_expr(text, 2)
        printed = print_expr(e)
        assert parse_expr(printed, 2) == e
        assert print_expr(parse_expr(printed, 2)) == printed  # idempotent


def test_print_then_parse_is_identity_on_random_like_forms():
    x = parse_expr("a[1,0]", 2)
    y = parse_expr("a[0,1]", 2)
    e = (x ** 2 - y.scale(3)) / (x * y + JetExpr.const(5))
    assert parse_expr(print_expr(e), 2) == e
