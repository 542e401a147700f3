"""Tests for jet variables, polynomials, and rational jet expressions."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.jetalg import (
    JetExpr,
    JetVariable,
    NotLinearError,
    ONE,
    Poly,
    ZERO,
    coeff_symbol,
    equal,
    gauge_symbol,
    linear_parts,
    map_jets,
    param_symbol,
    substitute,
    symbol_key,
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


def test_cancellation_to_a_constant_denominator_leaves_the_unit_one():
    x, y = a(1, 0), a(0, 1)
    cases = [((x * y) / x, y), ((x.scale(2) * y) / x.scale(3), y.scale(Fraction(2, 3)))]
    for e, value in cases:
        # the shared unit denominator of every polynomial, as for value itself
        assert e.den is ONE.den and e.num == value.num
        assert e.derive(2, 2).den is ONE.den
    assert ((x * y) / (y * x)).is_const()


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


def test_equality_tells_scalar_multiples_apart():
    # The compatibility tests compare each record with the paper's form
    # times its factor, so == must see the factor, not only the ray.
    x, y = a(1, 0), a(0, 1)
    e = x + y.scale(2)
    assert e.scale(Fraction(-3, 7)) == (x.scale(-3) + y.scale(-6)) / JetExpr.const(7)
    assert e.scale(Fraction(-3, 7)) != e
    assert -e != e
    assert e.scale(3) / JetExpr.const(3) == e
    # a functional factor is not a scalar one
    assert x * y != x


def test_scale_by_int_keeps_int_leading_coefficients():
    x = a(1, 0)
    m, c = x.scale(3).num.leading()
    assert type(c) is int and c == 3
    assert m == x.num.leading()[0]
    assert x.scale(3) == x.scale(Fraction(6, 2))
    assert x.scale(3) != x.scale(3) + ONE


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


def test_linear_parts_splits_the_numerator():
    p = param_symbol("p")
    e = parse_expr("(a[1,0]*p + 2*p - a[0,1]^2 + 3)/a[1,1]", 2)
    coeff, rest = linear_parts(e, p)
    assert coeff == parse_expr("(a[1,0] + 2)/a[1,1]", 2)
    assert rest == parse_expr("(3 - a[0,1]^2)/a[1,1]", 2)
    assert coeff * JetExpr.symbol(p, dim=2) + rest == e


def test_linear_parts_drops_derivatives_of_the_symbol():
    # read as p set to a constant: every jet p_x, p_y, ... vanishes
    p = param_symbol("p")
    e = parse_expr("a[1,0]*p + p;[1,0]*a[0,1] + p*p;[0,1] + 1", 2)
    coeff, rest = linear_parts(e, p)
    assert coeff == a(1, 0)
    assert rest == ONE


@pytest.mark.parametrize("text", ["p^2 + a[1,0]", "a[1,0]/(p + 1)", "1/(a[1,0] + p;[1,0])"])
def test_linear_parts_rejects(text):
    with pytest.raises(NotLinearError):
        linear_parts(parse_expr(text, 2), param_symbol("p"))


def test_linear_parts_without_the_symbol():
    coeff, rest = linear_parts(a(1, 0) / a(0, 1), param_symbol("p"))
    assert coeff.is_zero()
    assert rest == a(1, 0) / a(0, 1)


def test_map_jets_is_a_ring_map():
    x, y = coeff_symbol((1, 0)), coeff_symbol((0, 1))
    e = (a(1, 0) * a(1, 0) + a(0, 1).derive(1, 2)) / (a(0, 1) + ONE)
    images = {x: a(0, 0) + ONE, y: a(0, 0) * a(1, 1)}
    got = map_jets(e, {v: images[v.base].derive_multi(v.deriv) for v in e.variables()})
    assert got == substitute(e, images)


def test_symbol_key_orders_by_kind_vector_name():
    symbols = [param_symbol("q"), gauge_symbol(), coeff_symbol((0, 1)),
               param_symbol("p"), coeff_symbol((1, 0))]
    assert sorted(symbols, key=symbol_key) == [
        coeff_symbol((0, 1)), coeff_symbol((1, 0)), gauge_symbol(),
        param_symbol("p"), param_symbol("q"),
    ]


# One expression over coefficient, gauge and parameter symbols and their
# derived jets.  Inside jetalg a monomial keeps its factors in natural tuple
# order, which puts a[1,0];[0,2] before a[1,0];[1,0]; the printers use the
# graded order of _var_key.  The pinned string is what gaugeinv printed when
# monomials were still stored in that graded order.
MIXED_TEXT = ("(a[1,0];[0,2]*a[1,0];[1,0]^2*p + g;[0,1]*p;[1,1]*a[0,1]"
              " - 3*p;[2,0]*a[0,1]*g;[1,0]^2*g + a[1,0]*p;[0,1]^2/2"
              " - a[0,1];[1,1]*a[0,1];[2,0]*a[0,1] + 7)"
              "/(a[1,0];[1,0]*a[1,0];[0,2]^2*p;[0,1])")
MIXED_PRINTED = ("(-3*a[0,1]*g*g;[1,0]^2*p;[2,0] + a[1,0];[1,0]^2*a[1,0];[0,2]*p"
                 " - a[0,1]*a[0,1];[1,1]*a[0,1];[2,0] + a[0,1]*g;[0,1]*p;[1,1]"
                 " + 1/2*a[1,0]*p;[0,1]^2 + 7)/(a[1,0];[1,0]*a[1,0];[0,2]^2*p;[0,1])")


def test_print_order_does_not_depend_on_the_order_of_arithmetic():
    def P(text):
        return parse_expr(text, 2)

    parsed = P(MIXED_TEXT)
    # the same terms, added last first, each multiplied factor by factor
    terms = [P("p") * P("a[1,0];[1,0]") * P("a[1,0];[1,0]") * P("a[1,0];[0,2]"),
             P("a[0,1]") * P("p;[1,1]") * P("g;[0,1]"),
             P("g") * P("g;[1,0]") * P("g;[1,0]") * P("a[0,1]") * P("p;[2,0]").scale(-3),
             P("p;[0,1]") * P("p;[0,1]") * P("a[1,0]").scale(Fraction(1, 2)),
             -(P("a[0,1]") * P("a[0,1];[2,0]") * P("a[0,1];[1,1]")),
             JetExpr.const(7)]
    num = ZERO
    for t in terms:
        num = t + num
    built = num / (P("p;[0,1]") * P("a[1,0];[0,2]") * P("a[1,0];[1,0]") * P("a[1,0];[0,2]"))
    for e in (parsed, built):
        assert print_expr(e) == MIXED_PRINTED
        mono, c = e.num.leading()
        assert ({v.text(): k for v, k in mono}, c) == (
            {"a[0,1]": 1, "g": 1, "g;[1,0]": 2, "p;[2,0]": 1}, -3)
    assert parse_expr(MIXED_PRINTED, 2) == parsed


def _map_jets_by_terms(e, value):
    """The reference ring map: every term mapped to a JetExpr, added in term order."""
    def apply_poly(p):
        total = ZERO
        for mono, c in p.terms.items():
            t = JetExpr.const(c)
            for v, exp in mono:
                t = t * value(v) ** exp
            total = total + t
        return total

    return apply_poly(e.num) / apply_poly(e.den)


def _map_jets_by_products(e, value):
    """The reference for the term order: one chain of Poly products per term,
    over the monomial lcm of the term denominators (monomial image
    denominators only)."""
    images = {v: value(v) for v in e.variables()}

    def apply_poly(p):
        term_dens, lcm = [], {}
        for mono in p.terms:
            d = {}
            for v, k in mono:
                for w, j in next(iter(images[v].den.terms)):
                    d[w] = d.get(w, 0) + j * k
            term_dens.append(d)
            for w, j in d.items():
                lcm[w] = max(j, lcm.get(w, 0))
        out = {}
        for (mono, c), d in zip(p.terms.items(), term_dens):
            shift = tuple(sorted((w, j - d.get(w, 0)) for w, j in lcm.items() if j != d.get(w)))
            t = Poly({shift: c})
            for v, k in mono:
                power = images[v].num
                for _ in range(k - 1):
                    power = power * images[v].num
                t = t * power
            for m, x in t.terms.items():
                out[m] = out.get(m, 0) + x
        return JetExpr(Poly({m: x for m, x in out.items() if x}),
                       Poly({tuple(sorted(lcm.items())): 1}))

    num = apply_poly(e.num)
    return num if e.den.is_const() else num / apply_poly(e.den)


def _assert_normal(got):
    """got is in normal form already: normalising it again changes no term, and
    its denominator is the shared unit exactly when it is 1."""
    again = JetExpr(got.num, got.den)
    assert list(again.num.terms.items()) == list(got.num.terms.items())
    assert list(again.den.terms.items()) == list(got.den.terms.items())
    assert (got.den is ONE.den) == (got.den.terms == {(): 1})


def _assert_same_map(got, e, images):
    """got equals the term-by-term map, with the terms of the chain of products in its order."""
    want = _map_jets_by_terms(e, images.__getitem__)
    assert equal(got, want)
    assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
    chain = _map_jets_by_products(e, images.__getitem__)
    assert list(got.num.terms.items()) == list(chain.num.terms.items())
    assert list(got.den.terms.items()) == list(chain.den.terms.items())


JETS = [JetVariable(coeff_symbol((1, 0)), (0, 0)), JetVariable(coeff_symbol((1, 0)), (1, 0)),
        JetVariable(coeff_symbol((0, 1)), (0, 0)), JetVariable(gauge_symbol(), (0, 1)),
        JetVariable(param_symbol("p"), (0, 0))]


@st.composite
def _monomials(draw, min_degree=0):
    """A product of at most two of JETS."""
    t = ONE
    for v in draw(st.lists(st.sampled_from(JETS), min_size=min_degree, max_size=2)):
        t = t * JetExpr(Poly.var(v))
    return t


@st.composite
def _polys(draw):
    total = ZERO
    for _ in range(draw(st.integers(0, 2))):
        c = Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), draw(st.integers(1, 3)))
        total = total + draw(_monomials()).scale(c)
    return total


@st.composite
def _fractions(draw, kinds=("one", "monomial", "two terms")):
    """num/den with a denominator of 1, a monomial or two terms."""
    num = draw(_polys())
    kind = draw(st.sampled_from(kinds))
    if kind == "one":
        return num
    den = draw(_monomials(min_degree=1))
    if kind == "two terms":
        den = den + JetExpr.const(draw(st.integers(1, 3)))
    return num / den


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_fractions(), _monomials(min_degree=1),
       st.sampled_from([("monomial",), ("one", "monomial"), ("one", "monomial", "two terms")]),
       st.data())
def test_map_jets_matches_the_term_by_term_map(e, extra, kinds, data):
    e = e + extra  # e mentions at least one jet
    images = {v: data.draw(_fractions(kinds)) for v in JETS}  # one draw per jet of JETS
    images = {v: images[v] for v in e.variables()}
    try:
        want = _map_jets_by_terms(e, images.__getitem__)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            map_jets(e, images)
        return
    got = map_jets(e, images)
    _assert_normal(got)
    assert equal(got, want)
    if all(len(images[v].den.terms) == 1 for v in e.variables()):
        _assert_same_map(got, e, images)


def _jet(i, j):
    return JetVariable(coeff_symbol((i, j)), (0, 0))


# Edge cases of the one-pass map.  In natural order a[0,2] < a[1,1] < a[2,0].
X, Y, U, V = _jet(1, 0), _jet(0, 1), _jet(2, 0), _jet(1, 1)
MAP_EDGES = {
    "zero image": (a(1, 0) * a(0, 1) + a(0, 1) * a(0, 1), {X: ZERO, Y: a(1, 1) + ONE}),
    "every image zero": (a(1, 0) + a(0, 1), {X: ZERO, Y: ZERO}),
    "constant expression": (JetExpr.const(Fraction(3, 2)), {}),
    "constant image": (a(1, 0) ** 2 * a(0, 1) - a(0, 1), {X: JetExpr.const(Fraction(5, 3)),
                                                          Y: a(2, 0) / a(1, 1)}),
    # Packed, the heavier term weighs 5 (1 + 4).  The term a[1,0] maps to
    # a[0,2]^4 times a[0,2]^4 from the common denominator: an exponent of 8
    # needs 4 bits, as (2 * 5).bit_length() gives, while (5).bit_length() is 3.
    "exponents up to twice the weight": (a(1, 0) + a(0, 1), {X: a(0, 2) ** 4,
                                                            Y: a(2, 0) / a(0, 2) ** 4}),
    "coprime denominators": (
        a(1, 0).scale(Fraction(1, 3)) + a(0, 1) ** 2 * a(1, 0).scale(Fraction(2, 5)),
        {X: a(2, 0).scale(Fraction(1, 2)) + a(1, 1).scale(Fraction(3, 7)),
         Y: a(0, 2).scale(Fraction(5, 11)) - ONE.scale(Fraction(1, 13))}),
    # x*y comes +1, -1 (deleted), +1 (inserted again, so last): the order of
    # Poly.__mul__, which the merge must keep
    "a product term cancelled and met again": (
        a(1, 0) * a(0, 1), {X: a(1, 1) + a(0, 2) + ONE, Y: a(0, 2) - a(1, 1) + a(1, 1) * a(0, 2)}),
    # the zeroed first term must not place a[0,2] ahead of a[2,2]
    "a zero image before a term of the same image": (
        a(1, 0) * a(0, 1) + a(2, 0) + a(1, 1), {X: ZERO, Y: a(0, 2), U: a(2, 2), V: a(0, 2)}),
    # packed: the monomial content a[2,0] of the numerator is the whole denominator
    "content cancelling the whole denominator": (
        a(1, 0) * a(0, 1), {X: a(1, 1) / a(2, 0), Y: a(2, 0) * a(0, 2) + a(2, 0) * a(1, 1)}),
    "denominator held by another numerator": (
        (a(1, 0) * a(0, 1) + a(1, 0) ** 2) / a(0, 1),
        {X: a(1, 1) / a(2, 0), Y: a(2, 0) ** 2 + a(1, 1)}),
    # every image one term: packed like any other map with monomial denominators
    "one-term images and a constant term": (
        (a(1, 0) ** 2 * a(0, 1) + JetExpr.const(Fraction(1, 2))) / a(2, 0),
        {X: a(1, 1).scale(Fraction(2, 3)), Y: a(0, 2) / a(1, 1), U: a(0, 2)}),
    # a[1,1] comes +1, -1 and +2: the chain keeps it in its first place,
    # ahead of a[3,0], where a sum that drops a cancelled term puts it last
    "one-term images, a sum cancelled and met again": (
        a(1, 0) + a(2, 0) - a(0, 1) + a(0, 2).scale(2),
        {X: a(1, 1), U: a(3, 0), Y: a(1, 1), _jet(0, 2): a(1, 1)}),
}


EXTRA_IMAGES = {
    "as given": None,
    "with a two-term image": a(1, 1) + a(0, 2),  # whose powers are products of several terms
    "with a two-term denominator": a(1, 1) / (a(0, 2) + ONE),  # the term loop
}


@pytest.mark.parametrize("extra", list(EXTRA_IMAGES))
@pytest.mark.parametrize("case", sorted(MAP_EDGES))
def test_map_jets_edge_cases_match_the_term_by_term_map(case, extra):
    e, images = MAP_EDGES[case]
    assert set(images) == e.variables()
    if EXTRA_IMAGES[extra] is not None:
        e, images = e + a(2, 2), {**images, _jet(2, 2): EXTRA_IMAGES[extra]}
    got = map_jets(e, images)
    _assert_normal(got)
    if extra == "with a two-term denominator":  # the terms in the order they are summed
        want = _map_jets_by_terms(e, images.__getitem__)
        assert list(got.num.terms.items()) == list(want.num.terms.items())
        assert list(got.den.terms.items()) == list(want.den.terms.items())
    else:
        _assert_same_map(got, e, images)


def test_map_jets_content_cancels_the_whole_denominator():
    e, images = MAP_EDGES["content cancelling the whole denominator"]
    got = map_jets(e, images)
    assert got.den is ONE.den
    assert got == a(1, 1) * a(0, 2) + a(1, 1) ** 2


def _derive_chain(e: JetExpr, deriv) -> JetExpr:
    """d^deriv as derive_multi once made it: d_1 first, ..., d_n last."""
    for i, k in enumerate(deriv, start=1):
        for _ in range(k):
            e = e.derive(i, len(deriv))
    return e


def test_memoized_derive_multi_is_the_plain_chain():
    # Over a denominator in p the term order fixes the normal form, so the
    # memo must hand back the chain's terms in the chain's order, whatever
    # order the jets are asked for in.
    text = "(a[1,0]*p + p;[0,1]*a[0,0]) / (p + a[0,1]^2)"
    e = parse_expr(text, 2)
    derivs = [(i, j) for i in range(3) for j in range(3)]
    for deriv in derivs[::-1] + derivs:
        got = e.derive_multi(deriv)
        want = _derive_chain(parse_expr(text, 2), deriv)
        assert list(got.num.terms.items()) == list(want.num.terms.items()), deriv
        assert list(got.den.terms.items()) == list(want.den.terms.items()), deriv
    assert e.derive_multi((0, 0)) is e
    assert e.derive_multi((2, 1)) is e.derive_multi((2, 1))
