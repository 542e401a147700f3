"""Tests for the invariant constructions: gradient solve, extras,
compatibility, generic upward, staged templates, and the recursion."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest

from gaugeinv.classify import ClassSpec, analyze, class_operator
from gaugeinv.grammar import parse_expr, print_expr
from gaugeinv.invariants import (
    NotApproximatelyFlatError,
    NotFramedError,
    SolveError,
    TemplateNotClosedError,
    build_Cm,
    compatibility_invariants,
    complete_set,
    extra_invariants,
    hyperbolic_templates_3d,
    maximal_invariants,
    recursive_hyperbolic_bottom,
    solve_gradient,
    upward_invariant_generic,
    upward_invariants_from_template,
    _GenericParts,
    _lift_hyperbolic,
    _solve_param_linear,
    _solve_targets,
)
from gaugeinv import invariants, jetalg, multiindex as mi, opalg
from gaugeinv.jetalg import (
    JetExpr, ONE, ZERO, coeff_symbol, map_jets, param_symbol, substitute,
)
from gaugeinv.opalg import DiffOperator, Factor, FactorTemplate, OperatorSpecError, expand_sum
from gaugeinv.verify import DeltaContext, is_invariant, numeric_spot_check

import _fixtures as fx
from _fixtures import symmetric_bottom_invariant_3d, x3_strict_upward


def P(text, dim=2):
    return parse_expr(text, dim)


def par(name, dim=2):
    return JetExpr.symbol(param_symbol(name), dim=dim)


def by_label(records):
    return {r.label: r for r in records}


def by_target(records):
    return {tuple(r.target_vector): r for r in records}


# ---------------------------------------------------------------------------
# Gradient solve.
# ---------------------------------------------------------------------------


def test_solve_gradient_xxy():
    sol = solve_gradient(analyze(fx.spec_xxy()))
    a11 = JetExpr.symbol(coeff_symbol((1, 1)), dim=2)
    a20 = JetExpr.symbol(coeff_symbol((2, 0)), dim=2)
    assert sol.gradient == (a11 / JetExpr.const(2), a20)
    assert sol.residual_vectors == ()


def test_solve_gradient_five_order_3d():
    an = analyze(fx.spec_five_order_3d())
    sol = solve_gradient(an)
    a = lambda v: JetExpr.symbol(coeff_symbol(v), dim=3)
    assert an.framing_set == ((0, 1, 3), (1, 0, 3), (1, 1, 2))
    assert sol.gradient == (a((0, 1, 3)), a((1, 0, 3)), a((1, 1, 2)) / JetExpr.const(3))
    assert len(sol.residual_vectors) == 5


def test_solve_gradient_assumes_the_pivot_analyze_divides_by():
    # On {p d_xy, d_xx} analyze reduces phi(0,1) = (p, 0), then
    # phi(1,0) = (2, p) to (0, p): both pivots are p, recorded once, and the
    # solve divides by the same ones (not by 2 and then -p^2/2).
    an = analyze(ClassSpec(2, (((1, 1), par("p")), ((2, 0), ONE))))
    assert [print_expr(a) for a in an.framing_assumptions] == ["p"]
    assert [print_expr(a) for a in solve_gradient(an).assumptions] == ["p"]


def test_solve_gradient_raises_on_bad_hypotheses():
    with pytest.raises(NotApproximatelyFlatError):
        solve_gradient(analyze(fx.spec_not_flat_a()))
    with pytest.raises(NotFramedError) as info:
        solve_gradient(analyze(fx.spec_not_framed()))
    assert "(2, 2)" in str(info.value)  # the duplicate phi-vector is reported


# ---------------------------------------------------------------------------
# Extra and compatibility invariants.
# ---------------------------------------------------------------------------


def test_extras_xxy_xyy():
    sol = solve_gradient(analyze(fx.spec_xxy_xyy()))
    records = extra_invariants(sol)
    assert len(records) == 1
    assert records[0].expression == P("a[1,1] - 2*a[2,0] - 2*a[0,2]")


def test_extras_five_order_3d():
    sol = solve_gradient(analyze(fx.spec_five_order_3d()))
    records = extra_invariants(sol)
    assert len(records) == 5
    exprs = [r.expression for r in records]
    q3 = lambda t: parse_expr(t, 3)
    third = lambda t: q3(t) / JetExpr.const(3)
    assert any(e == q3("a[2,2,0]") / q3("p") - third("a[1,1,2]") for e in exprs)
    assert any(e == q3("a[1,3,0]") / q3("q") - third("a[1,1,2]") for e in exprs)
    assert any(e == q3("a[2,1,1]") / q3("2*p") - q3("a[1,0,3]") for e in exprs)
    assert any(e == q3("a[0,3,1]") / q3("q") - q3("a[0,1,3]") for e in exprs)
    assert any(
        e == q3("a[1,2,1]") - q3("2*p*a[0,1,3]") - q3("3*q*a[1,0,3]") for e in exprs
    )


def test_extras_record_symbolic_kappa_assumptions():
    sol = solve_gradient(analyze(fx.spec_five_order_3d()))
    records = by_label(extra_invariants(sol))
    assert [print_expr(a) for a in records["I_e{220}"].assumptions] == ["p"]
    assert [print_expr(a) for a in records["I_e{031}"].assumptions] == ["q"]


def test_compatibility_xxy():
    sol = solve_gradient(analyze(fx.spec_xxy()))
    (rec,) = compatibility_invariants(sol)
    assert rec.label == "I_c(x,y)"
    assert rec.expression == P("2*a[2,0];[1,0] - a[1,1];[0,1]").scale(Fraction(-1, 2))


def test_compatibility_xxy_xyy():
    sol = solve_gradient(analyze(fx.spec_xxy_xyy()))
    (rec,) = compatibility_invariants(sol)
    assert rec.expression == -P("a[2,0];[1,0] - a[0,2];[0,1]")


def test_compatibility_five_order_3d():
    sol = solve_gradient(analyze(fx.spec_five_order_3d()))
    records = compatibility_invariants(sol)
    assert [r.label for r in records] == ["I_c(x,y)", "I_c(x,z)", "I_c(y,z)"]
    disp = parse_expr("a[1,0,3];[1,0,0] - a[0,1,3];[0,1,0]", 3)
    assert by_label(records)["I_c(x,y)"].expression == -disp


def test_compatibility_x3():
    sol = solve_gradient(analyze(fx.spec_x3()))
    (rec,) = compatibility_invariants(sol)
    a02 = P("a[0,2]")
    disp = (
        P("2*a[2,0];[0,1]")
        - (P("3*a[0,1]") / a02).derive(1, 2)
        + (P("a[1,1]*a[2,0]") / a02).derive(1, 2)
    )
    assert rec.expression == disp.scale(Fraction(1, 6))


# ---------------------------------------------------------------------------
# The generic constructions.
# ---------------------------------------------------------------------------


def test_build_Cm_zeroes_maximal_and_submaximal():
    for make in fx.ALL_CONSTRUCTIVE.values():
        if make is fx.spec_five_order_3d:
            continue  # covered by completeness audit; expansion is large
        spec = make()
        an = analyze(spec)
        templates, bindings, _ = build_Cm(an)
        C = expand_sum(templates).substitute(bindings)
        L = class_operator(spec)
        D = L - C
        for v in an.maximal_set | an.submaximal_set:
            assert D.coefficient(v).is_zero(), (make.__name__, v)


def test_build_Cm_solution_is_unique():
    # perturbing any binding breaks the zeroing condition
    spec = fx.spec_xxy()
    an = analyze(spec)
    templates, bindings, _ = build_Cm(an)
    L = class_operator(spec)
    target = an.maximal_set | an.submaximal_set
    for sym in bindings:
        perturbed = dict(bindings)
        perturbed[sym] = perturbed[sym] + ONE
        C = expand_sum(templates).substitute(perturbed)
        D = L - C
        assert not all(D.coefficient(v).is_zero() for v in target), sym.text()


def test_generic_upward_xxy_matches_paper():
    an = analyze(fx.spec_xxy())
    i10 = upward_invariant_generic(an, (1, 0))
    i01 = upward_invariant_generic(an, (0, 1))
    assert i10.expression == P("a[1,0] - a[1,1]*a[2,0] - 2*a[2,0];[1,0]")
    assert i01.expression == P("a[0,1] - 1/4*a[1,1]^2 - 1/2*a[1,1];[1,0]")


def test_generic_upward_solves_are_unique():
    # perturbing any solved parameter breaks the zeroing of L - C
    spec = fx.spec_xxy()
    an = analyze(spec)
    rec = upward_invariant_generic(an, (0, 0))
    L = class_operator(spec)
    bindings = rec.representation.bindings
    C = expand_sum(rec.representation.templates)
    zero_at = an.maximal_set | an.submaximal_set | {(1, 0), (0, 1)}
    for sym in bindings:
        perturbed = dict(bindings)
        perturbed[sym] = perturbed[sym] + ONE
        resolved = {
            s: substitute(e, perturbed) for s, e in perturbed.items()
        }
        D = (L - C).substitute(resolved)
        assert not all(D.coefficient(v).is_zero() for v in zero_at), sym.text()


def test_generic_upward_rejects_non_interior():
    an = analyze(fx.spec_xxy())
    with pytest.raises(ValueError):
        upward_invariant_generic(an, (2, 0))


def test_generic_upward_xyz_first_level():
    an = analyze(fx.spec_xyz())
    q3 = lambda t: parse_expr(t, 3)
    got = upward_invariant_generic(an, (1, 0, 0))
    assert got.expression == q3("a[1,0,0] - a[1,0,1]*a[1,1,0] - a[1,1,0];[0,1,0]")
    got = upward_invariant_generic(an, (0, 1, 0))
    assert got.expression == q3("a[0,1,0] - a[0,1,1]*a[1,1,0] - a[1,1,0];[1,0,0]")
    got = upward_invariant_generic(an, (0, 0, 1))
    assert got.expression == q3("a[0,0,1] - a[0,1,1]*a[1,0,1] - a[1,0,1];[1,0,0]")


def test_generic_upward_records_are_upward_form():
    for make in (fx.spec_xxy, fx.spec_xxy_xyy, fx.spec_x3, fx.spec_xyz):
        an = analyze(make())
        for v in an.interior_set:
            rec = upward_invariant_generic(an, v)
            assert fx.is_upward_form(rec, an), (make.__name__, v)


def test_generic_upward_all_verified_xxxyy():
    spec = fx.spec_xxxyy()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    for v in an.interior_set:
        rec = upward_invariant_generic(an, v)
        ok, residual = is_invariant(rec.expression, ctx)
        assert ok, (v, print_expr(residual))


def test_complete_set_upward_records_match_single_calls():
    # complete_set shares the generic operators between interior vectors;
    # each record must be the one a call for its vector alone gives.
    specs = [
        ClassSpec(2, (((2, 2), ONE),)),
        ClassSpec(2, (((2, 2), P("p")), ((3, 0), ONE), ((0, 3), P("q")))),
        ClassSpec(4, (((1, 1, 1, 1), ONE),)),
    ]
    for spec in specs:
        an = analyze(spec)
        records, _ = complete_set(spec)
        upward = [r for r in records if r.kind == "upward"]
        assert len(upward) == len(an.interior_set)
        for rec in upward:
            alone = upward_invariant_generic(an, rec.target_vector)
            assert rec.to_json() == alone.to_json(), rec.label


# ---------------------------------------------------------------------------
# The linear parameter solve.
# ---------------------------------------------------------------------------


def test_solve_param_linear_value_zeroes_the_equation():
    p = param_symbol("p")
    eq = P("(a[1,1]*p - a[2,0]*p + a[0,1] - 1)/(a[1,0] + 2)")
    value, pivot = _solve_param_linear(eq, p)
    assert substitute(eq, {p: value}).is_zero()
    assert pivot == P("(a[1,1] - a[2,0])/(a[1,0] + 2)")


def test_solve_param_linear_rejects_square():
    with pytest.raises(SolveError):
        _solve_param_linear(P("p^2 - a[1,0]"), param_symbol("p"))


def test_solve_param_linear_rejects_absent_parameter():
    with pytest.raises(SolveError):
        _solve_param_linear(P("a[1,0] - 1"), param_symbol("p"))


def test_solve_param_linear_rejects_parameter_in_denominator():
    with pytest.raises(SolveError):
        _solve_param_linear(P("a[1,0] - 1/p"), param_symbol("p"))


def test_solve_targets_defers_a_target_with_two_parameters():
    # (1,0) holds p and q; it waits until (0,1) has bound q.
    p, q = param_symbol("p"), param_symbol("q")
    D = DiffOperator(2, {(1, 0): P("p + q"), (0, 1): P("q - a[0,1]")})
    bindings = {}
    assumptions = _solve_targets(D.coefficient, [(1, 0), (0, 1)], {p, q}, bindings)
    assert bindings == {q: P("a[0,1]"), p: P("-a[0,1]")}
    assert assumptions == []
    for t in D.terms:
        assert substitute(D.coefficient(t), bindings).is_zero()


def test_solve_targets_rejects_residual_without_parameter():
    D = DiffOperator(2, {(1, 0): P("a[1,0]")})
    with pytest.raises(SolveError, match="cannot be zeroed"):
        _solve_targets(D.coefficient, [(1, 0)], {param_symbol("p")}, {})


def test_solve_targets_rejects_undetermined_parameter():
    p, q = param_symbol("p"), param_symbol("q")
    D = DiffOperator(2, {(1, 0): P("p - a[1,0]")})
    with pytest.raises(SolveError, match="undetermined: q"):
        _solve_targets(D.coefficient, [(1, 0)], {p, q}, {})


def test_generic_constructions_raise_on_bad_hypotheses():
    for make, error in (
        (fx.spec_not_framed, NotFramedError),
        (fx.spec_not_flat_a, NotApproximatelyFlatError),
    ):
        an = analyze(make())
        assert (0, 0) in an.interior_set
        with pytest.raises(error):
            upward_invariant_generic(an, (0, 0))
        with pytest.raises(error):
            build_Cm(an)


# ---------------------------------------------------------------------------
# Staged template engine.
# ---------------------------------------------------------------------------


def test_template_engine_reproduces_generic_on_xyz():
    an = analyze(fx.spec_xyz())
    stages, targets = hyperbolic_templates_3d()
    records = by_target(upward_invariants_from_template(an, stages[:1], targets[:1]))
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        assert records[v].expression == upward_invariant_generic(an, v).expression


def test_template_engine_classical_factorizations():
    an = analyze(fx.spec_xy())
    t_h = FactorTemplate(2, (Factor.single((1, 0), par("b")), Factor.single((0, 1), par("a"))))
    t_k = FactorTemplate(2, (Factor.single((0, 1), par("a")), Factor.single((1, 0), par("b"))))
    h = by_target(upward_invariants_from_template(an, [[t_h]], [[(1, 0), (0, 1)]]))
    k = by_target(upward_invariants_from_template(an, [[t_k]], [[(1, 0), (0, 1)]]))
    assert h[(0, 0)].expression == P("a[0,0] - a[1,0]*a[0,1] - a[1,0];[1,0]")
    assert k[(0, 0)].expression == P("a[0,0] - a[1,0]*a[0,1] - a[0,1];[0,1]")


def test_template_engine_emits_only_new_records():
    an = analyze(fx.spec_xxy())
    q, r, s, t = par("q"), par("r"), par("s"), par("t")
    t1 = FactorTemplate(2, (Factor.single((1, 0), q), Factor.single((1, 0), q), Factor.single((0, 1), r)))
    t2 = FactorTemplate(2, (Factor.single((1, 0), s), Factor.single((0, 1), t)))
    records = upward_invariants_from_template(
        an, [[t1], [t2]], [[(2, 0), (1, 1)], [(1, 0), (0, 1)]]
    )
    labels = [r_.label for r_ in records]
    assert labels.count("I_{10}") == 1
    assert labels.count("I_{01}") == 1
    assert labels.count("I_{00}") == 1


def test_template_engine_unsolvable_target():
    an = analyze(fx.spec_xxy())
    t1 = FactorTemplate(2, (Factor.single((1, 0), par("q")),))
    with pytest.raises(SolveError):
        upward_invariants_from_template(an, [[t1]], [[(2, 0)]])


def test_template_engine_underdetermined_stage():
    an = analyze(fx.spec_xxy())
    q, r = par("q"), par("r")
    t1 = FactorTemplate(2, (Factor.single((1, 0), q), Factor.single((1, 0), q), Factor.single((0, 1), r)))
    with pytest.raises(SolveError):
        # only one target for two parameters
        upward_invariants_from_template(an, [[t1]], [[(2, 0)]])


@pytest.mark.xfail(
    strict=True,
    reason="open fault (ROADMAP items 3a and 1a): the solve reads p_x as zero, "
    "binds p = a[0] - 1 and emits a[1] - a[0] + 1, which is not invariant",
)
def test_template_engine_rejects_derivative_of_parameter():
    # class d_xx, templates d_x(d_x + p) and (1 + p), target (0,): the
    # equation at (0,) holds p_x, so p cannot be solved for exactly.
    an = analyze(ClassSpec(1, (((2,), ONE),)))
    p = par("p", dim=1)
    templates = [
        FactorTemplate(1, (Factor(((1,),), ZERO), Factor.single((1,), p))),
        FactorTemplate(1, (Factor((), ONE + p),)),
    ]
    with pytest.raises(SolveError):
        upward_invariants_from_template(an, [templates], [[(0,)]])


def _xy_family(*extra):
    """(d_x + p)(d_y + q) on the class d_xy, then the first-order factors in extra."""
    first = FactorTemplate(2, (Factor.single((1, 0), par("p")), Factor.single((0, 1), par("q"))))
    return [first, *(FactorTemplate(2, (f,)) for f in extra)]


# family -> (templates, targets, the record Delta refutes, its expression):
# the structural closure check that Delta replaced let the first two through.
NOT_CLOSED = {
    "coefficient_in_shift": (_xy_family(Factor.single((1, 0), P("a[0,1]") + par("p"))),
                             [(1, 0), (0, 1)], "I_{00}",
                             "-a[0,1]*a[1,0] + a[0,0] - a[0,1] - a[1,0];[1,0]"),
    "target_below_a_non_target": (_xy_family(Factor.single((1, 0), par("p"))),
                                  [(1, 0), (0, 0)], "I_{01}",
                                  "(a[0,1]*a[1,0] - a[0,0] + a[1,0];[1,0])/(a[1,0])"),
    # one parameter shared by the directions x and y
    "shared_parameter_across_directions": (
        [FactorTemplate(2, (Factor.single((1, 0), par("p")), Factor.single((0, 1), par("p"))))],
        [(1, 0)], "I_{01}", "a[0,1] - a[1,0]"),
}


@pytest.mark.parametrize("family", sorted(NOT_CLOSED))
def test_closure_check_refuses_a_record_delta_refutes(family):
    templates, targets, label, text = NOT_CLOSED[family]
    an = analyze(fx.spec_xy())
    message = re.escape(f"record {label} is not gauge invariant: Delta = ")
    with pytest.raises(TemplateNotClosedError, match=message):
        upward_invariants_from_template(an, [templates], [targets], check_closure=True)
    # Unchecked, the engine emits the record as before, and Delta refutes it.
    records = by_label(upward_invariants_from_template(an, [templates], [targets]))
    assert print_expr(records[label].expression) == text
    assert not is_invariant(records[label].expression, DeltaContext.for_class(an.spec))[0]


@pytest.mark.parametrize("shift", ["2*p", "a[0,1]"])
def test_closure_check_accepts_a_family_whose_record_is_invariant(shift):
    # check_gauge_closure refused both: a parameter without unit coefficient,
    # and a shift without a solver parameter.  Each gives the Laplace invariant.
    t = FactorTemplate(2, (Factor.single((1, 0), P(shift)), Factor.single((0, 1), par("q"))))
    (record,) = upward_invariants_from_template(
        analyze(fx.spec_xy()), [[t]], [[(1, 0), (0, 1)]], check_closure=True
    )
    assert print_expr(record.expression) == "-a[0,1]*a[1,0] + a[0,0] - a[1,0];[1,0]"


def test_closure_check_accepts_a_parameter_reused_in_one_direction():
    # (d_x + p)(d_x + p)(d_y + q) on d_xxy: p twice in x, no parameter shared across directions.
    t = FactorTemplate(2, (Factor.single((1, 0), par("p")),) * 2 + (Factor.single((0, 1), par("q")),))
    records = upward_invariants_from_template(
        analyze(fx.spec_xxy()), [[t]], [[(2, 0), (1, 1)]], check_closure=True
    )
    assert {r.label: print_expr(r.expression) for r in records} == {
        "I_{01}": "-1/4*a[1,1]^2 + a[0,1] - 1/2*a[1,1];[1,0]",
        "I_{10}": "-a[1,1]*a[2,0] + a[1,0] - 2*a[2,0];[1,0]",
    }


# ---------------------------------------------------------------------------
# Named constructions from the worked examples.
# ---------------------------------------------------------------------------


def test_x3_strict_upward_combinations():
    spec = fx.spec_x3()
    an = analyze(spec)
    ctx = DeltaContext.for_class(spec)
    i10 = upward_invariant_generic(an, (1, 0))
    a11, a02 = P("a[1,1]"), P("a[0,2]")
    tC = lambda mid: [
        FactorTemplate(2, (Factor.single((1, 0), par("p")),) * 3),
        FactorTemplate(2, (Factor.single((1, 0), mid), Factor.single((0, 1), par("q"))), a11),
        FactorTemplate(2, (Factor.single((0, 1), par("q")),) * 2, a02),
    ]
    i01 = by_target(
        upward_invariants_from_template(an, [tC(par("p"))], [[(2, 0), (1, 0)]])
    )[(0, 1)]
    # the pair is functionally dependent: I_01 = -(2 a_02 / a_11) I_10
    assert i01.expression == -(a02.scale(2) / a11) * i10.expression
    c10, c01 = x3_strict_upward(i10, i01)
    denom = ONE - a11 * a02.scale(2)
    assert c10.expression == ((ONE - a02.scale(2)) / denom) * i10.expression
    assert any(a == denom for a in c10.assumptions)
    for rec in (c10, c01):
        ok, residual = is_invariant(rec.expression, ctx)
        assert ok, print_expr(residual)


def test_recursive_hyperbolic_base_case():
    rec = recursive_hyperbolic_bottom(2)
    assert rec.expression == P("a[0,0] - a[1,0]*a[0,1] - a[1,0];[1,0]")


def test_recursive_hyperbolic_n3_displayed_form():
    a = lambda v: parse_expr(f"a[{v[0]},{v[1]},{v[2]}]", 3)
    p = a((1, 1, 0)) - ONE
    lift = lambda i, j: a((i, j, 0)) - p * a((i, j, 1)) - a((i, j, 1)).derive(3, 3)
    A10, A01, A00 = lift(1, 0), lift(0, 1), lift(0, 0)
    expected = A00 - (A10 * A01 + A10.derive(1, 3))
    assert recursive_hyperbolic_bottom(3).expression == expected


def test_recursive_hyperbolic_n4_is_invariant():
    rec = recursive_hyperbolic_bottom(4)
    spec = fx.ClassSpec(4, (((1, 1, 1, 1), ONE),))
    ctx = DeltaContext.for_class(spec)
    ok, residual = is_invariant(rec.expression, ctx)
    assert ok, print_expr(residual)


def test_symmetric_bottom_invariant_3d():
    sym = symmetric_bottom_invariant_3d()
    a = lambda v: parse_expr(f"a[{v[0]},{v[1]},{v[2]}]", 3)
    disp = a((0, 0, 0)) - (
        a((1, 0, 0)) * a((0, 1, 1))
        + a((0, 1, 0)) * a((1, 0, 1))
        + a((0, 0, 1)) * a((1, 1, 0))
        - a((0, 1, 1)) * a((1, 0, 1)) * a((1, 1, 0)).scale(2)
        + (
            a((1, 1, 0)).derive(1, 3).derive(2, 3)
            + a((1, 0, 1)).derive(1, 3).derive(3, 3)
            + a((0, 1, 1)).derive(2, 3).derive(3, 3)
        )
        / JetExpr.const(3)
    )
    assert sym.expression == disp


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------


def test_maximal_invariants():
    records = maximal_invariants(fx.spec_x3())
    exprs = {r.label: r.expression for r in records}
    assert exprs["I_max{30}"] == ONE
    assert exprs["I_max{11}"] == P("a[1,1]")
    assert exprs["I_max{02}"] == P("a[0,2]")


def test_complete_set_counts():
    expected = {
        "xy": (1, 0, 1, 1),
        "xxy": (1, 0, 1, 3),
        "xxxyy": (1, 0, 1, 9),
        "xxy_xyy": (2, 1, 1, 3),
        "x3": (3, 0, 1, 2),
        "xyz": (1, 0, 3, 4),
    }
    for name, (n_max, n_extra, n_comp, n_up) in expected.items():
        records, audit = complete_set(fx.ALL_CONSTRUCTIVE[name]())
        assert audit["complete"], name
        assert audit["counts"] == {
            "maximal": n_max,
            "extra": n_extra,
            "compatibility": n_comp,
            "upward": n_up,
        }, name


def test_complete_set_all_verified_small_classes():
    for name in ("xy", "xxy", "xxy_xyy", "x3", "xyz"):
        spec = fx.ALL_CONSTRUCTIVE[name]()
        ctx = DeltaContext.for_class(spec)
        records, _ = complete_set(spec)
        for rec in records:
            ok, residual = is_invariant(rec.expression, ctx)
            assert ok, (name, rec.label, print_expr(residual))
            assert numeric_spot_check(rec.expression, ctx), (name, rec.label)


def test_complete_set_raises_on_hypothesis_failure():
    with pytest.raises(NotApproximatelyFlatError):
        complete_set(fx.spec_not_flat_b())
    with pytest.raises(NotFramedError):
        complete_set(fx.spec_not_framed())


def test_record_json_shape():
    records, _ = complete_set(fx.spec_xxy())
    data = by_label(records)["I_{10}"].to_json()
    assert data["kind"] == "upward"
    assert data["target_vector"] == [1, 0]
    assert "representation" in data
    assert "template" in data["representation"]


# The generic construction reads D = L - C only at the vectors it needs and
# solves once per distinct W.  Records are printed sorted, so value equality
# would not catch a change of term order; these tests compare terms in order.


def _terms(e: JetExpr) -> tuple[list, list]:
    return list(e.num.terms.items()), list(e.den.terms.items())


@pytest.mark.parametrize("spec", [
    ClassSpec(4, (((1, 1, 1, 1), ONE),)),
    ClassSpec(2, (((2, 2), P("p")), ((3, 0), ONE), ((0, 3), P("q")))),
    fx.spec_five_order_3d(),
], ids=["x1x2x3x4", "sym_2d", "five_order_3d"])
def test_coefficient_on_demand_is_that_of_the_operator_sum(spec):
    an = analyze(spec)
    parts = _GenericParts(solve_gradient(an))
    Ws = dict.fromkeys(
        [()] + [tuple(w for w in parts.interior if mi.below(v, w)) for v in parts.interior]
    )
    for W in Ws:
        C = parts.expanded
        for w in W:
            C = C + parts.b_part(w)[1]
        D = parts.L - C
        for t in an.all_vectors | D.support():
            assert _terms(parts.coefficient(W, t)) == _terms(D.coefficient(t)), (W, t)


def test_complete_set_solves_once_per_distinct_W(monkeypatch):
    # x1x2x3x4 has 11 interior vectors and 6 distinct sets W above them.  A
    # fresh process derives 108 times; jets memoized on expressions by earlier
    # tests can only lower the count.
    counts = {"solve": 0, "derive": 0}
    solve, derive = _GenericParts.solve, JetExpr.derive

    def counted_solve(self, W):
        counts["solve"] += 1
        return solve(self, W)

    def counted_derive(self, i, dim):
        counts["derive"] += 1
        return derive(self, i, dim)

    monkeypatch.setattr(_GenericParts, "solve", counted_solve)
    monkeypatch.setattr(JetExpr, "derive", counted_derive)
    records, audit = complete_set(ClassSpec(4, (((1, 1, 1, 1), ONE),)))
    assert audit["counts"]["upward"] == 11
    assert counts["solve"] == 6
    assert counts["derive"] <= 108


def test_complete_set_binds_only_the_framing_coefficients_a_b_w_reaches(monkeypatch):
    # A solve binds a_s only where some B_w of W has a term at s; elsewhere
    # a_s -> a_s is the identity, and with W = () no gradient is mapped.
    calls = []
    map_jets = jetalg.map_jets

    def counted(e, images):
        calls.append(e)
        return map_jets(e, images)

    monkeypatch.setattr(jetalg, "map_jets", counted)
    records, audit = complete_set(ClassSpec(4, (((1, 1, 1, 1), ONE),)))
    assert audit["complete"]
    assert len(calls) == 44


def test_staged_engine_expands_each_template_once(monkeypatch):
    # stage 2 adds its three templates to the running sum of stage 1; the
    # template of stage 1 is not expanded again
    calls = []
    expand_template = opalg.expand_template

    def counted(t):
        calls.append(t)
        return expand_template(t)

    monkeypatch.setattr(opalg, "expand_template", counted)
    monkeypatch.setattr(invariants, "expand_template", counted)
    stages, targets = hyperbolic_templates_3d()
    records = upward_invariants_from_template(analyze(fx.spec_xyz()), stages, targets)
    assert [r.label for r in records]
    assert len(calls) == 4


def test_staged_engine_refuses_an_empty_first_stage():
    stages, targets = hyperbolic_templates_3d()
    with pytest.raises(OperatorSpecError, match="empty template sum"):
        upward_invariants_from_template(analyze(fx.spec_xyz()), [[], *stages], [[], *targets])


def _derive_chain(e: JetExpr, deriv) -> JetExpr:
    for i, k in enumerate(deriv, start=1):
        for _ in range(k):
            e = e.derive(i, len(deriv))
    return e


def test_lift_hyperbolic_matches_a_lift_without_memos():
    # one N_alpha per alpha serves every jet of b_alpha; a fresh N_alpha per
    # jet, derived by a plain chain, gives the same terms in the same order
    m, dim = 3, 4
    expr = recursive_hyperbolic_bottom(m).expression
    p = JetExpr.symbol(coeff_symbol((1,) * m + (0,)), dim=dim) - ONE

    def value(var):
        a1 = JetExpr.symbol(coeff_symbol(var.base.vector + (1,)), dim=dim)
        a0 = JetExpr.symbol(coeff_symbol(var.base.vector + (0,)), dim=dim)
        return _derive_chain(a0 - p * a1 - a1.derive(dim, dim), var.deriv + (0,))

    images = {v: value(v) for v in expr.variables()}
    assert _terms(_lift_hyperbolic(expr, m)) == _terms(map_jets(expr, images))


def _unequal_stages():
    stages, targets = hyperbolic_templates_3d()
    return upward_invariants_from_template(analyze(fx.spec_xyz()), stages, targets[:-1])


# Refusals of arguments that only a caller of the library can pass: the
# command line never builds them.
@pytest.mark.parametrize("call, message", [
    (lambda: recursive_hyperbolic_bottom(1), "dimension must be at least 2"),
    (_unequal_stages, "must have equal length"),
    (lambda: param_symbol("g"), "invalid parameter name 'g'"),
    (lambda: JetExpr.symbol(coeff_symbol((1, 0))), "need deriv or dim"),
    (lambda: mi.add((1, 0), (1, 0, 0)), r"\(1, 0\) vs \(1, 0, 0\)"),
    (lambda: mi.leq((1, 0), (1, 0, 0)), r"\(1, 0\) vs \(1, 0, 0\)"),
    (lambda: mi.common_dim([]), "empty set of multi-indices"),
    (lambda: DiffOperator.identity(2) + DiffOperator.identity(3), "2 vs 3"),
    (lambda: P("a[1,0] + 1").num.const_value(), "not a constant polynomial"),
], ids=["recursion below dimension 2", "stages and targets", "parameter named g",
        "symbol without deriv or dim", "mi.add", "mi.leq", "mi.common_dim",
        "operator sum", "Poly.const_value"])
def test_library_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
