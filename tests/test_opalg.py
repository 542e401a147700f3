"""Tests for noncommutative operator algebra, gauging, and templates."""
from __future__ import annotations

from itertools import product as cartesian
from math import comb

import pytest

from gaugeinv import invariants
from gaugeinv import opalg
from gaugeinv.classify import ClassSpec, analyze, class_operator
from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.jetalg import JetExpr, ONE, ZERO, gauge_symbol, param_symbol
from gaugeinv.multiindex import DimensionMismatchError
from gaugeinv.opalg import (
    DiffOperator,
    Factor,
    FactorTemplate,
    GaugeSymbolPresentError,
    OperatorSpecError,
    expand_sum,
    expand_template,
    gauge,
    op_mul,
)

import _fixtures as fx


def par(name, dim=2):
    return JetExpr.symbol(param_symbol(name), dim=dim)


def P(text, dim=2):
    return parse_expr(text, dim)


def test_leibniz_first_order():
    # d_x o f = f d_x + f_x
    f = P("a[0,0]")
    L = DiffOperator(2, {(1, 0): ONE})
    R = DiffOperator(2, {(0, 0): f})
    prod = op_mul(L, R)
    assert prod.coefficient((1, 0)) == f
    assert prod.coefficient((0, 0)) == f.derive(1, 2)


def test_leibniz_multinomial():
    # d_xx o f = f d_xx + 2 f_x d_x + f_xx
    f = P("a[0,0]")
    prod = op_mul(DiffOperator(2, {(2, 0): ONE}), DiffOperator(2, {(0, 0): f}))
    assert prod.coefficient((1, 0)) == f.derive(1, 2).scale(2)
    assert prod.coefficient((0, 0)) == f.derive(1, 2).derive(1, 2)


def test_op_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        op_mul(DiffOperator(2, {(1, 0): ONE}), DiffOperator(3, {(1, 0, 0): ONE}))


def test_expansion_of_example_template():
    # (d_x+p)(d_y+q)(d_x+d_y+r) expands as displayed in the paper's Eq form
    p, q, r = par("p"), par("q"), par("r")
    t = FactorTemplate(
        2,
        (
            Factor.single((1, 0), p),
            Factor.single((0, 1), q),
            Factor(((1, 0), (0, 1)), r),
        ),
    )
    L = expand_template(t)
    dx = lambda e: e.derive(1, 2)
    dy = lambda e: e.derive(2, 2)
    assert L.coefficient((2, 1)) == ONE
    assert L.coefficient((1, 2)) == ONE
    assert L.coefficient((2, 0)) == q
    assert L.coefficient((1, 1)) == p + q + r
    assert L.coefficient((0, 2)) == p
    assert L.coefficient((1, 0)) == dx(q) + dy(r) + q * (p + r)
    assert L.coefficient((0, 1)) == dx(q) + dx(r) + p * (q + r)
    assert L.coefficient((0, 0)) == (p * q + dx(q)) * r + q * dx(r) + p * dy(r) + dx(dy(r))


def test_expansion_of_cubed_squared_template():
    # (d_x+q)^3 (d_y+r)^2: submaximal coefficients 3q and 2r
    q, r = par("q"), par("r")
    t = FactorTemplate(2, (Factor.single((1, 0), q),) * 3 + (Factor.single((0, 1), r),) * 2)
    L = expand_template(t)
    assert L.coefficient((3, 2)) == ONE
    assert L.coefficient((2, 2)) == q.scale(3)
    assert L.coefficient((3, 1)) == r.scale(2)


def test_empty_template_expands_to_zero():
    assert expand_template(FactorTemplate(2, ())) == DiffOperator.zero(2)


def test_template_text_of_staged_dxx_templates():
    # a factor with no derivative powers prints as its shift alone
    p = par("p", dim=1)
    templates = [
        FactorTemplate(1, (Factor(((1,),), ZERO), Factor.single((1,), p))),
        FactorTemplate(1, (Factor((), ONE + p),)),
    ]
    assert [t.text() for t in templates] == ["(d[1])(d[1] + p)", "(p + 1)"]


def test_expand_sum():
    q = par("q")
    t1 = FactorTemplate(2, (Factor.single((1, 0), q),))
    t2 = FactorTemplate(2, (Factor.single((0, 1), ZERO),))
    s = expand_sum([t1, t2])
    assert s.coefficient((1, 0)) == ONE
    assert s.coefficient((0, 1)) == ONE
    assert s.coefficient((0, 0)) == q


def test_gauge_classical_operator():
    # d_xy + a d_x + b d_y + c: a' = a + g_y, b' = b + g_x
    L = class_operator(fx.spec_xy())
    Lg = gauge(L)
    gx, gy = P("g;[1,0]"), P("g;[0,1]")
    assert Lg.coefficient((1, 1)) == ONE
    assert Lg.coefficient((1, 0)) == P("a[1,0]") + gy
    assert Lg.coefficient((0, 1)) == P("a[0,1]") + gx
    assert Lg.coefficient((0, 0)) == P("a[0,0]") + P("a[1,0]") * gx + P("a[0,1]") * gy + gx * gy + P("g;[1,1]")


def test_gauge_preserves_maximal_coefficients():
    for make in fx.ALL_CONSTRUCTIVE.values():
        spec = make()
        L = class_operator(spec)
        Lg = gauge(L)
        for m in spec.maximal_vectors():
            assert Lg.coefficient(m) == spec.coefficient(m)


def test_gauge_xxxyy_submaximal():
    # a'_31 = a_31 + 2 g_y  and  a'_22 = a_22 + 3 g_x
    L = class_operator(fx.spec_xxxyy())
    Lg = gauge(L)
    assert Lg.coefficient((3, 1)) == P("a[3,1]") + P("2*g;[0,1]")
    assert Lg.coefficient((2, 2)) == P("a[2,2]") + P("3*g;[1,0]")


def test_gauge_rejects_gauge_symbol():
    L = DiffOperator(2, {(1, 0): JetExpr.symbol(gauge_symbol(), dim=2)})
    with pytest.raises(GaugeSymbolPresentError):
        gauge(L)


def test_operator_arithmetic_and_equality():
    A = DiffOperator(2, {(1, 0): ONE, (0, 0): P("a[0,0]")})
    B = DiffOperator(2, {(1, 0): ONE})
    assert (A - B).support() == {(0, 0)}
    assert A + (-A) == DiffOperator.zero(2)
    assert A != B


def test_json_round_trip():
    L = class_operator(fx.spec_xxy())
    data = L.to_json()
    back = DiffOperator.from_json(data)
    assert back == L
    assert back.to_json() == data


def test_from_json_rejects_duplicates():
    with pytest.raises(OperatorSpecError):
        DiffOperator.from_json(
            [
                {"vector": [1, 0], "coeff": "1"},
                {"vector": [1, 0], "coeff": "2"},
            ]
        )


@pytest.mark.parametrize("data", [
    [], [{"vector": [1, 0]}], [{"coeff": "1"}], [{"vector": [1, -1], "coeff": "1"}],
    [{"vector": [1, 0], "coeff": "1"}, {"vector": [1], "coeff": "1"}],
])
def test_from_json_errors_are_typed(data):
    with pytest.raises(OperatorSpecError):
        DiffOperator.from_json(data)


def _op_mul_reference(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """op_mul as it was before zero and unit jets were skipped: every Leibniz
    product formed and added, each jet d^beta h by a plain chain of derive."""
    out = {}
    for u, f in a.terms.items():
        for w, h in b.terms.items():
            for beta in cartesian(*(range(x + 1) for x in u)):
                binom = 1
                for ui, bi in zip(u, beta):
                    binom *= comb(ui, bi)
                jet = h
                for i, k in enumerate(beta, start=1):
                    for _ in range(k):
                        jet = jet.derive(i, len(beta))
                c = f * jet
                if binom != 1:
                    c = c.scale(binom)
                vec = tuple(ui - bi + wi for ui, bi, wi in zip(u, beta, w))
                out[vec] = out[vec] + c if vec in out else c
    return DiffOperator(a.dim, out)


def _layout(op: DiffOperator) -> list:
    return [(v, list(c.num.terms.items()), list(c.den.terms.items()))
            for v, c in op.terms.items()]


def test_op_mul_keeps_the_terms_and_order_of_the_full_leibniz_sum(monkeypatch):
    # Every product the construction forms on a generic, a symbolic and a
    # staged class, the gauge action, and hand-made operators with zero and
    # unit jets, denominators and sums that cancel.
    pairs = []
    real = opalg.op_mul

    def recording(a, b):
        pairs.append((a, b))
        return real(a, b)

    monkeypatch.setattr(opalg, "op_mul", recording)
    invariants.complete_set(ClassSpec(4, (((1, 1, 1, 1), ONE),)))
    invariants.complete_set(ClassSpec(2, (((2, 2), P("p")), ((3, 0), ONE), ((0, 3), P("q")))))
    stages, targets = invariants.hyperbolic_templates_3d()
    invariants.upward_invariants_from_template(analyze(fx.spec_xyz()), stages, targets)
    gauge(class_operator(fx.spec_x3()))
    monkeypatch.undo()
    f = P("a[1,0]/(p + a[0,1])")
    pairs += [
        (DiffOperator(2, {(2, 1): f, (1, 0): ONE, (0, 0): P("q")}),
         DiffOperator(2, {(1, 1): P("(p + 1)/(a[0,0] - q)"), (0, 1): ONE, (0, 0): P("3")})),
        (DiffOperator(2, {(1, 0): ONE, (0, 0): -f.derive(1, 2)}),
         DiffOperator(2, {(0, 0): f, (1, 0): -f})),
        (Factor(((1, 0), (1, 0)), f).as_operator(2), Factor(((0, 1),), f).as_operator(2)),
    ]
    assert len(pairs) > 50
    for a, b in pairs:
        assert _layout(op_mul(a, b)) == _layout(_op_mul_reference(a, b))


def test_factor_operator_holds_the_shared_one():
    op = Factor.single((1, 0), par("p")).as_operator(2)
    assert op.terms[(1, 0)] is ONE
    assert list(op.terms) == [(1, 0), (0, 0)]
    assert Factor(((1, 0), (1, 0)), ZERO).as_operator(2).terms == {(1, 0): JetExpr.const(2)}
