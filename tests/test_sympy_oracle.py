"""sympy as an independent oracle for random JetExpr arithmetic.

Each jet variable a_v;[d] becomes the sympy derivative d^d a_v(x, y), so
derive is sympy's own chain rule and substitute is sympy's ``subs``
followed by ``doit``.  Every intermediate expression is compared with
``sympy.cancel`` of the difference.  Test-only: the library itself stays
standard-library only.
"""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gaugeinv.jetalg import JetExpr, Poly, coeff_symbol, param_symbol, substitute

sp = pytest.importorskip("sympy")

DIM = 2
XS = sp.symbols("x1 x2")
BASES = [coeff_symbol((1, 0)), coeff_symbol((0, 1)), coeff_symbol((0, 0)), param_symbol("p")]


def _function(base):
    name = "a_" + "".join(map(str, base.vector)) if base.vector else base.name
    return sp.Function(name)(*XS)


def _derivative(f, deriv):
    pairs = [(x, k) for x, k in zip(XS, deriv) if k]
    return sp.diff(f, *pairs) if pairs else f


def _poly_to_sympy(p: Poly):
    total = sp.Integer(0)
    for mono, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= _derivative(_function(v.base), v.deriv) ** e
        total += term
    return total


def to_sympy(e: JetExpr):
    return _poly_to_sympy(e.num) / _poly_to_sympy(e.den)


def _leaf(rng: random.Random):
    if rng.random() < 0.25:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return JetExpr.const(c), sp.Rational(c.numerator, c.denominator)
    base = rng.choice(BASES)
    return JetExpr.symbol(base, dim=DIM), _function(base)


def _random_pair(rng: random.Random, depth: int):
    """A JetExpr and the same expression built in sympy."""
    if depth == 0:
        return _leaf(rng)
    kind = rng.choice(["+", "-", "*", "/", "d"])
    e, s = _random_pair(rng, depth - 1)
    if kind == "d":
        i = rng.randint(1, DIM)
        return e.derive(i, DIM), sp.diff(s, XS[i - 1])
    f, t = _random_pair(rng, depth - 1)
    if kind == "+":
        return e + f, s + t
    if kind == "-":
        return e - f, s - t
    if kind == "*":
        return e * f, s * t
    if f.is_zero():
        return e, s
    return e / f, s / t


def _agree(e: JetExpr, s) -> bool:
    return sp.cancel(to_sympy(e) - s) == 0


@pytest.mark.parametrize("seed", range(12))
def test_random_arithmetic_derive_substitute_match_sympy(seed):
    rng = random.Random(7100 + seed)
    e, s = _random_pair(rng, 3)
    assert _agree(e, s)
    i = rng.randint(1, DIM)
    e, s = e.derive(i, DIM), sp.diff(s, XS[i - 1])
    assert _agree(e, s)
    base = rng.choice(BASES)
    value, value_s = _random_pair(rng, 2)
    try:
        got = substitute(e, {base: value})
    except ZeroDivisionError:
        # the binding annihilates the denominator; sympy must agree
        den = _poly_to_sympy(e.den).subs(_function(base), value_s).doit()
        assert sp.cancel(den) == 0
        return
    want = s.subs(_function(base), value_s).doit()
    assert _agree(got, want)
