"""Acceptance gate: one test per shipping criterion, all exact symbolic checks.

Each test is a complete end-to-end statement of one guaranteed behaviour;
`pytest -v tests/test_acceptance.py` prints one pass/fail line per criterion.
"""
from __future__ import annotations

import time
from fractions import Fraction

import pytest

from gaugeinv.classify import analyze
from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.invariants import (
    NotApproximatelyFlatError,
    NotFramedError,
    compatibility_invariants,
    complete_set,
    extra_invariants,
    hyperbolic_templates_3d,
    recursive_hyperbolic_bottom,
    solve_gradient,
    upward_invariant_generic,
    upward_invariants_from_template,
)
from gaugeinv.jetalg import JetExpr, ONE, param_symbol
from gaugeinv.opalg import Factor, FactorTemplate
from gaugeinv.verify import DeltaContext, is_invariant

import _fixtures as fx
from _fixtures import symmetric_bottom_invariant_3d, x3_strict_upward


def P(text, dim=2):
    return parse_expr(text, dim)


def par(name, dim=2):
    return JetExpr.symbol(param_symbol(name), dim=dim)


def C(value):
    return JetExpr.const(Fraction(value))


def by_target(records):
    return {tuple(r.target_vector): r for r in records}


def assert_invariant(expr, ctx, label=""):
    ok, residual = is_invariant(expr, ctx)
    assert ok, f"{label}: residual {print_expr(residual)}"


def test_criterion_01_classical_factorizations():
    # d_xy + a10 d_x + a01 d_y + a00: the two incomplete factorizations
    # L = (d_x + b)(d_y + a) + h and L = (d_y + a)(d_x + b) + k
    spec = fx.spec_xy()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    t_h = FactorTemplate(2, (Factor.single((1, 0), par("b")), Factor.single((0, 1), par("a"))))
    t_k = FactorTemplate(2, (Factor.single((0, 1), par("a")), Factor.single((1, 0), par("b"))))
    targets = [[(1, 0), (0, 1)]]
    h = by_target(upward_invariants_from_template(an, [[t_h]], targets))[(0, 0)]
    k = by_target(upward_invariants_from_template(an, [[t_k]], targets))[(0, 0)]
    assert h.expression == P("a[0,0] - a[1,0]*a[0,1] - a[1,0];[1,0]")
    assert k.expression == P("a[0,0] - a[1,0]*a[0,1] - a[0,1];[0,1]")
    assert_invariant(h.expression, ctx, "h")
    assert_invariant(k.expression, ctx, "k")


def test_criterion_02_class_xxy():
    spec = fx.spec_xxy()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    disp_c = P("2*a[2,0];[1,0] - a[1,1];[0,1]")
    (rec_c,) = compatibility_invariants(solve_gradient(an))
    assert rec_c.expression == disp_c * C("-1/2")
    assert_invariant(disp_c, ctx, "I_c")
    i10 = upward_invariant_generic(an, (1, 0))
    i01 = upward_invariant_generic(an, (0, 1))
    assert i10.expression == P("a[1,0] - a[1,1]*a[2,0] - 2*a[2,0];[1,0]")
    assert i01.expression == P("a[0,1] - 1/4*a[1,1]^2 - 1/2*a[1,1];[1,0]")
    # bottom invariant from C' = (d_x+q)^2(d_y+r) + (d_x+s)(d_y+t)
    t1 = FactorTemplate(
        2,
        (Factor.single((1, 0), par("q")), Factor.single((1, 0), par("q")),
         Factor.single((0, 1), par("r"))),
    )
    t2 = FactorTemplate(2, (Factor.single((1, 0), par("s")), Factor.single((0, 1), par("t"))))
    records = by_target(upward_invariants_from_template(
        an, [[t1], [t2]], [[(2, 0), (1, 1)], [(1, 0), (0, 1)]]
    ))
    a20, a11, a10, a01, a00 = map(P, ["a[2,0]", "a[1,1]", "a[1,0]", "a[0,1]", "a[0,0]"])
    q = (a11 - ONE) / C(2)
    r = a20
    s = a01 - (q * q + q.derive(1, 2))
    t = a10 - (q * r.scale(2) + r.derive(1, 2).scale(2))
    disp00 = a00 - (
        (q * q + q.derive(1, 2)) * r + q.scale(2) * r.derive(1, 2)
        + r.derive(1, 2).derive(1, 2) + s * t + t.derive(1, 2)
    )
    assert records[(0, 0)].expression == disp00
    for rec in (i10, i01, records[(0, 0)]):
        assert_invariant(rec.expression, ctx, rec.label)


def test_criterion_03_class_xxy_plus_xyy():
    spec = fx.spec_xxy_xyy()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    sol = solve_gradient(an)
    (rec_e,) = extra_invariants(sol)
    assert rec_e.expression == P("a[1,1] - 2*a[2,0] - 2*a[0,2]")
    disp_c = P("a[2,0];[1,0] - a[0,2];[0,1]")
    (rec_c,) = compatibility_invariants(sol)
    assert rec_c.expression == disp_c * C(-1)
    # C = (d_x+p)(d_y+q)(d_x+d_y+r), then C' = C + (d_x+s)(d_y+t)
    tri = FactorTemplate(
        2,
        (Factor.single((1, 0), par("p")), Factor.single((0, 1), par("q")),
         Factor(((1, 0), (0, 1)), par("r"))),
    )
    st = FactorTemplate(2, (Factor.single((1, 0), par("s")), Factor.single((0, 1), par("t"))))
    records = by_target(upward_invariants_from_template(
        an, [[tri], [st]], [[(2, 0), (1, 1), (0, 2)], [(1, 0), (0, 1)]]
    ))
    a20, a11, a02 = map(P, ["a[2,0]", "a[1,1]", "a[0,2]"])
    a10, a01, a00 = map(P, ["a[1,0]", "a[0,1]", "a[0,0]"])
    q, p = a20, a02
    r = a11 - a20 - a02
    disp10 = a10 - (q * (p + r) + q.derive(1, 2) + r.derive(2, 2))
    disp01 = a01 - (p * (q + r) + q.derive(1, 2) + r.derive(1, 2))
    rp = r - ONE
    s, t = disp01 + p, disp10 + q
    disp00 = a00 - (
        (p * q + q.derive(1, 2)) * rp + q * rp.derive(1, 2) + p * rp.derive(2, 2)
        + rp.derive(1, 2).derive(2, 2) + s * t + t.derive(1, 2)
    )
    assert records[(1, 0)].expression == disp10
    assert records[(0, 1)].expression == disp01
    assert records[(0, 0)].expression == disp00
    for rec in records.values():
        assert_invariant(rec.expression, ctx, rec.label)
    _, audit = complete_set(spec)
    assert audit["counts"]["extra"] == 1
    assert audit["counts"]["compatibility"] == 1
    assert audit["counts"]["upward"] == 3


def test_criterion_04_third_order_degenerate_class():
    spec = fx.spec_x3()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    a20, a11, a02 = map(P, ["a[2,0]", "a[1,1]", "a[0,2]"])
    a10, a01, a00 = map(P, ["a[1,0]", "a[0,1]", "a[0,0]"])
    disp_c = (
        P("2*a[2,0];[0,1]")
        - (P("3*a[0,1]") / a02).derive(1, 2)
        + (P("a[1,1]*a[2,0]") / a02).derive(1, 2)
    )
    (rec_c,) = compatibility_invariants(solve_gradient(an))
    assert rec_c.expression == disp_c * C("1/6")
    assert_invariant(disp_c, ctx, "I_c")
    # upward pair from C = (d_x+p)^3 + a11 (d_x+m)(d_y+q) + a02 (d_y+q)^2
    tC = lambda mid: [
        FactorTemplate(2, (Factor.single((1, 0), par("p")),) * 3),
        FactorTemplate(
            2, (Factor.single((1, 0), mid), Factor.single((0, 1), par("q"))), a11
        ),
        FactorTemplate(2, (Factor.single((0, 1), par("q")),) * 2, a02),
    ]
    p = a20 / C(3)
    q10 = (a01 - a11 * a20 / C(3)) / a02.scale(2)
    disp10 = a10 - (p.derive(1, 2) + p * p).scale(3) - a11 * q10
    i10 = upward_invariant_generic(an, (1, 0))
    assert i10.expression == disp10
    q01 = (a10 - (p.derive(1, 2) + p * p).scale(3)) / a11
    disp01 = a01 - a11 * p - a02.scale(2) * q01
    i01 = by_target(
        upward_invariants_from_template(an, [tC(par("p"))], [[(2, 0), (1, 0)]])
    )[(0, 1)]
    assert i01.expression == disp01
    r00 = (a01 - a02.scale(2) * q01) / a11
    disp00 = a00 - (
        p * p * p + (p * p.derive(1, 2)).scale(3) + p.derive(1, 2).derive(1, 2)
        + a11 * (r00 * q01 + q01.derive(1, 2))
        + a02 * (q01 * q01 + q01.derive(2, 2))
    )
    i00 = by_target(
        upward_invariants_from_template(
            an, [tC(par("r"))], [[(2, 0), (1, 0), (0, 1)]]
        )
    )[(0, 0)]
    assert i00.expression == disp00
    c10, c01 = x3_strict_upward(i10, i01)
    for rec in (i10, i01, i00, c10, c01):
        assert_invariant(rec.expression, ctx, rec.label)
    recorded = []
    for rec in (rec_c, i10, i01, i00, c10, c01):
        for a in rec.assumptions:
            if not any(a == seen for seen in recorded):
                recorded.append(a)
    expected = (a02, a11, ONE - a11 * a02.scale(2))
    assert len(recorded) == 3
    for want in expected:
        assert any(a == want for a in recorded), print_expr(want)


def test_criterion_05_third_order_hyperbolic_3d():
    start = time.monotonic()
    spec = fx.spec_xyz()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    q3 = lambda t: parse_expr(t, 3)
    disp = {
        (1, 0, 0): q3("a[1,0,0] - a[1,0,1]*a[1,1,0] - a[1,1,0];[0,1,0]"),
        (0, 1, 0): q3("a[0,1,0] - a[0,1,1]*a[1,1,0] - a[1,1,0];[1,0,0]"),
        (0, 0, 1): q3("a[0,0,1] - a[0,1,1]*a[1,0,1] - a[1,0,1];[1,0,0]"),
    }
    for v, expected in disp.items():
        assert upward_invariant_generic(an, v).expression == expected
    stages, targets = hyperbolic_templates_3d()
    records = by_target(upward_invariants_from_template(an, stages, targets))
    assert_invariant(records[(0, 0, 0)].expression, ctx, "I_000")
    sym = symmetric_bottom_invariant_3d()
    a = lambda v: q3(f"a[{v[0]},{v[1]},{v[2]}]")
    disp_sym = a((0, 0, 0)) - (
        a((1, 0, 0)) * a((0, 1, 1))
        + a((0, 1, 0)) * a((1, 0, 1))
        + a((0, 0, 1)) * a((1, 1, 0))
        - a((0, 1, 1)) * a((1, 0, 1)) * a((1, 1, 0)).scale(2)
        + (
            a((1, 1, 0)).derive(1, 3).derive(2, 3)
            + a((1, 0, 1)).derive(1, 3).derive(3, 3)
            + a((0, 1, 1)).derive(2, 3).derive(3, 3)
        )
        / C(3)
    )
    assert sym.expression == disp_sym
    assert_invariant(sym.expression, ctx, "I_000 symmetric")
    assert time.monotonic() - start < 60.0


def test_criterion_06_five_term_3d_class():
    sol = solve_gradient(analyze(fx.spec_five_order_3d()))
    q3 = lambda t: parse_expr(t, 3)
    extras = [r.expression for r in extra_invariants(sol)]
    assert len(extras) == 5
    third = q3("a[1,1,2]") / C(3)
    assert any(e == q3("a[2,2,0]") / q3("p") - third for e in extras)
    assert any(e == q3("a[1,3,0]") / q3("q") - third for e in extras)
    compats = compatibility_invariants(sol)
    assert len(compats) == 3
    disp = q3("a[1,0,3];[1,0,0] - a[0,1,3];[0,1,0]")
    assert any(r.expression == disp * C(-1) for r in compats)


def test_criterion_07_inductive_hyperbolic_recursion():
    base = recursive_hyperbolic_bottom(2)
    assert base.expression == P("a[0,0] - a[1,0]*a[0,1] - a[1,0];[1,0]")
    a = lambda v: parse_expr(f"a[{v[0]},{v[1]},{v[2]}]", 3)
    prm = a((1, 1, 0)) - ONE
    lift = lambda i, j: a((i, j, 0)) - prm * a((i, j, 1)) - a((i, j, 1)).derive(3, 3)
    A10, A01, A00 = lift(1, 0), lift(0, 1), lift(0, 0)
    assert recursive_hyperbolic_bottom(3).expression == A00 - (A10 * A01 + A10.derive(1, 3))
    rec4 = recursive_hyperbolic_bottom(4)
    spec4 = fx.ClassSpec(4, (((1, 1, 1, 1), ONE),))
    assert_invariant(rec4.expression, DeltaContext.for_class(spec4), "n=4 bottom")


def test_criterion_08_negative_fixtures():
    with pytest.raises(NotApproximatelyFlatError):
        solve_gradient(analyze(fx.spec_not_flat_a()))
    with pytest.raises(NotApproximatelyFlatError):
        solve_gradient(analyze(fx.spec_not_flat_b()))
    with pytest.raises(NotFramedError) as info:
        solve_gradient(analyze(fx.spec_not_framed()))
    assert "(2, 2)" in str(info.value)


def test_criterion_09_property_suites():
    import test_properties as props

    props.test_delta_is_additive()
    props.test_delta_commutes_with_derivation()
    props.test_gauge_group_action()
    props.test_op_mul_associative()
    props.test_delta_submaximal_matches_phi_all_fixtures()
    props.test_gauge_preserves_maximal_coefficients_random()


def test_criterion_10_completeness_audit():
    for name, make in fx.ALL_CONSTRUCTIVE.items():
        spec = make()
        an = analyze(spec)
        records, audit = complete_set(spec)
        n = spec.dimension
        expected = {
            "maximal": len(an.maximal_set),
            "extra": len(an.submaximal_set) - n,
            "compatibility": n * (n - 1) // 2,
            "upward": len(an.interior_set),
        }
        assert audit["counts"] == expected, name
        assert audit["complete"], name
        got_maximal = {
            tuple(r.target_vector) for r in records if r.kind == "maximal"
        }
        assert got_maximal == an.maximal_set, name
