"""Tests for jet variables, polynomials, and rational jet expressions."""
from __future__ import annotations

from fractions import Fraction

import pytest

from gaugeinv.jetalg import (
    CyclicBindingError,
    JetExpr,
    JetVariable,
    ONE,
    ZERO,
    coeff_symbol,
    equal,
    gauge_symbol,
    param_symbol,
    proportional,
    resolve_bindings,
    substitute,
)


def a(i, j):
    return JetExpr.symbol(coeff_symbol((i, j)), dim=2)


def test_symbol_constructors():
    s = coeff_symbol((2, 0))
    assert s.kind == "coeff" and s.vector == (2, 0)
    g = gauge_symbol()
    assert g.kind == "gauge" and g.name == "g"
    p = param_symbol("q")
    assert p.kind == "param" and p.name == "q"


def test_ring_axioms_on_small_expressions():
    x, y, z = a(1, 0), a(0, 1), a(1, 1)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x - x == ZERO
    assert x * ONE == x
    assert x * ZERO == ZERO


def test_rational_normalization():
    x, y = a(1, 0), a(0, 1)
    e = (x * x - y * y) / (x - y)
    # no polynomial gcd is attempted, but cross-multiplication equality holds
    assert equal(e, x + y)
    assert (x / y) * (y / x) == ONE
    assert x / JetExpr.const(2) == x.scale(Fraction(1, 2))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        a(1, 0) / ZERO


def test_monomial_content_cancellation():
    x, y = a(1, 0), a(0, 1)
    e = (x * y + x * x * y) / (x * y)
    # common monomial factor x*y is cancelled during normalization
    assert e.den.is_const() or set(v for m, _ in e.den.sorted_terms() for v, _ in m)
    assert equal(e, ONE + x)


def test_derive_product_rule():
    x, y = a(1, 0), a(0, 1)
    d = (x * y).derive(1, 2)
    assert d == x.derive(1, 2) * y + x * y.derive(1, 2)


def test_derive_quotient_rule():
    x, y = a(1, 0), a(0, 1)
    d = (x / y).derive(2, 2)
    assert equal(d, (x.derive(2, 2) * y - x * y.derive(2, 2)) / (y * y))


def test_derive_commutes():
    e = a(1, 0) * a(0, 1) + a(2, 0) ** 2
    assert e.derive(1, 2).derive(2, 2) == e.derive(2, 2).derive(1, 2)


def test_derivative_variables_accumulate():
    e = a(2, 0).derive(1, 2).derive(1, 2)
    (v,) = e.variables()
    assert v == JetVariable(coeff_symbol((2, 0)), (2, 0))


def test_pow():
    x = a(1, 0)
    assert x ** 3 == x * x * x
    assert x ** 0 == ONE
    assert (x ** -1) * x == ONE


def test_equal_cross_multiplies():
    x, y = a(1, 0), a(0, 1)
    assert equal(x / y, (x * x) / (x * y))
    assert not equal(x / y, y / x)


def test_proportional():
    x, y = a(1, 0), a(0, 1)
    e = x + y.scale(2)
    assert proportional(e, e.scale(Fraction(-3, 7)))
    assert not proportional(e, x + y)
    # functional (non-constant) ratios are not proportional
    assert not proportional(x, x * y)


def test_substitute_is_simultaneous_one_pass():
    x, y = coeff_symbol((1, 0)), coeff_symbol((0, 1))
    ex, ey = a(1, 0), a(0, 1)
    swapped = substitute(ex - ey, {x: ey, y: ex})
    assert swapped == ey - ex
    # self-referential bindings denote the *original* symbol on the right
    shifted = substitute(ex, {x: ex + ONE})
    assert shifted == ex + ONE


def test_substitute_commutes_with_derivation():
    x = coeff_symbol((1, 0))
    ex, ey = a(1, 0), a(0, 1)
    e = ex.derive(1, 2) * ex
    got = substitute(e, {x: ey * ey})
    want = (ey * ey).derive(1, 2) * (ey * ey)
    assert got == want


def test_resolve_bindings_closure():
    x, y = coeff_symbol((1, 0)), coeff_symbol((0, 1))
    ex, ey = a(1, 0), a(0, 1)
    resolved = resolve_bindings({x: ey + ONE, y: a(0, 0)})
    assert resolved[x] == a(0, 0) + ONE


def test_resolve_bindings_detects_cycles():
    x, y = coeff_symbol((1, 0)), coeff_symbol((0, 1))
    ex, ey = a(1, 0), a(0, 1)
    with pytest.raises(CyclicBindingError):
        resolve_bindings({x: ey, y: ex + ONE})


def test_evaluate_exact():
    vals = {
        JetVariable(coeff_symbol((1, 0)), (0, 0)): Fraction(2, 3),
        JetVariable(coeff_symbol((0, 1)), (0, 0)): Fraction(-1, 5),
    }
    e = (a(1, 0) + a(0, 1)) / a(1, 0)
    got = e.evaluate(lambda v: vals[v])
    assert got == (Fraction(2, 3) - Fraction(1, 5)) / Fraction(2, 3)


def _coefficients(e):
    return list(e.num.terms.values()) + list(e.den.terms.values())


def test_coefficients_are_int_when_integral_never_float():
    x, y = a(1, 0), a(0, 1)
    half = JetExpr.const(1) / JetExpr.const(2)
    exprs = [
        x + y.scale(2),
        (x * y * y).derive(2, 2),
        x.scale(Fraction(1, 2)) * JetExpr.const(2),
        half * x + half * x,
        x.scale(Fraction(6, 3)),
        x / y.scale(3),
        x.scale(Fraction(2, 3)) / (y.scale(Fraction(4, 9)) + x),
        (x / y.scale(2)).derive(1, 2),
        (x.scale(Fraction(1, 3)) + y) ** -2,
        JetExpr.const(Fraction(8, 4)) - JetExpr.const(Fraction(1, 3)),
    ]
    for e in exprs:
        for c in _coefficients(e):
            assert type(c) in (int, Fraction), (e, c)
            if c.denominator == 1:
                assert type(c) is int, (e, c)
    assert _coefficients(half * x + half * x) == [1, 1]
    assert _coefficients(x.scale(Fraction(1, 2)) * JetExpr.const(2)) == [1, 1]


def test_const_value_is_fraction():
    third = JetExpr.const(1) / JetExpr.const(3)
    assert third.const_value() == Fraction(1, 3)
    assert type(third.const_value()) is Fraction
    assert type(JetExpr.const(6).const_value()) is Fraction
    assert type(ZERO.const_value()) is Fraction


def test_proportional_with_int_leading_coefficients():
    x = a(1, 0)
    assert type(x.scale(3).num.leading()[1]) is int
    assert proportional(x.scale(3), x)
    assert proportional(x, x.scale(3))
    assert not proportional(x, x.scale(3) + ONE)
