"""Shared fixture classes, the paper's worked examples built on them, the
structural check of an upward record, and the antichains of the corpus.

It imports no test framework, so ``tools/identity.py`` can read it on any
Python."""
from __future__ import annotations

import itertools
from fractions import Fraction

from gaugeinv import multiindex as mi
from gaugeinv.classify import ClassAnalysis, ClassSpec, _dedupe, analyze
from gaugeinv.grammar import parse_expr
from gaugeinv.invariants import (
    InvariantRecord,
    compatibility_invariants,
    hyperbolic_templates_3d,
    solve_gradient,
    upward_invariants_from_template,
)
from gaugeinv.jetalg import JetExpr, KIND_COEFF, ONE, coeff_symbol


def spec_xy() -> ClassSpec:
    """Classical second-order hyperbolic class, generated by d_xy."""
    return ClassSpec(2, (((1, 1), ONE),))


def spec_xxy() -> ClassSpec:
    """Generated by d_xxy."""
    return ClassSpec(2, (((2, 1), ONE),))


def spec_xxxyy() -> ClassSpec:
    """Generated by d_xxxyy."""
    return ClassSpec(2, (((3, 2), ONE),))


def spec_xxy_xyy() -> ClassSpec:
    """Generated by {d_xxy, d_xyy}."""
    return ClassSpec(2, (((2, 1), ONE), ((1, 2), ONE)))


def spec_x3() -> ClassSpec:
    """The X^3 class: {d_xxx, a_11 d_xy, a_02 d_yy}."""
    return ClassSpec(
        2,
        (
            ((3, 0), ONE),
            ((1, 1), parse_expr("a[1,1]", 2)),
            ((0, 2), parse_expr("a[0,2]", 2)),
        ),
    )


def spec_xyz() -> ClassSpec:
    """Totally hyperbolic 3D class, generated by d_xyz."""
    return ClassSpec(3, (((1, 1, 1), ONE),))


def spec_five_order_3d() -> ClassSpec:
    """Five-order 3D class {p d_xxyyz, q d_xyyyz, d_xyzzz} with symbolic p, q."""
    return ClassSpec(
        3,
        (
            ((2, 2, 1), parse_expr("p", 3)),
            ((1, 3, 1), parse_expr("q", 3)),
            ((1, 1, 3), parse_expr("1", 3)),
        ),
    )


def spec_not_flat_a() -> ClassSpec:
    """{d_xx, d_y}: not approximately flat."""
    return ClassSpec(2, (((2, 0), ONE), ((0, 1), ONE)))


def spec_not_flat_b() -> ClassSpec:
    """{d_xz, d_yz}: not approximately flat."""
    return ClassSpec(3, (((1, 0, 1), ONE), ((0, 1, 1), ONE)))


def spec_not_framed() -> ClassSpec:
    """d_xx + 2 d_xy + d_yy: approximately flat but not framed."""
    return ClassSpec(
        2,
        (
            ((2, 0), ONE),
            ((1, 1), parse_expr("2", 2)),
            ((0, 2), ONE),
        ),
    )


ALL_CONSTRUCTIVE = {
    "xy": spec_xy,
    "xxy": spec_xxy,
    "xxxyy": spec_xxxyy,
    "xxy_xyy": spec_xxy_xyy,
    "x3": spec_x3,
    "xyz": spec_xyz,
    "five_order_3d": spec_five_order_3d,
}


def symmetric_bottom_invariant_3d() -> InvariantRecord:
    """The symmetric form of I_000 for the 3D hyperbolic class.

    Combines the template I_000 with compatibility and first-level upward
    invariants:
    I_000 + I_cxz - (1/3)(I_cxz)_y - (1/3)(I_cyz)_x - I_100 - I_010 - I_001 - 1.
    """
    an = analyze(spec_xyz())
    sol = solve_gradient(an)
    compat = {r.label: r.expression for r in compatibility_invariants(sol)}
    stages, targets = hyperbolic_templates_3d()
    ups = {
        tuple(r.target_vector): r.expression
        for r in upward_invariants_from_template(an, stages, targets)
    }
    i_cxz = compat["I_c(x,z)"]
    i_cyz = compat["I_c(y,z)"]
    expr = (
        ups[(0, 0, 0)]
        + i_cxz
        - i_cxz.derive(2, 3).scale(Fraction(1, 3))
        - i_cyz.derive(1, 3).scale(Fraction(1, 3))
        - ups[(1, 0, 0)]
        - ups[(0, 1, 0)]
        - ups[(0, 0, 1)]
        - ONE
    )
    return InvariantRecord("upward", "I_{000}^sym", expr, target_vector=(0, 0, 0))


def x3_strict_upward(
    i_10: InvariantRecord, i_01: InvariantRecord
) -> tuple[InvariantRecord, InvariantRecord]:
    """The manipulated combinations proposed for the X^3 class.

    Given the template invariants I_10 and I_01 for the class generated by
    {d_xxx, a_11 d_xy, a_02 d_yy}, forms
    (I_10 + a_11 I_01)/(1 - 2 a_11 a_02) and
    (I_01 + 2 a_02 I_10)/(1 - 2 a_11 a_02),
    recording 1 - 2 a_11 a_02 as an assumption.  (The two inputs are in
    fact proportional, so these combinations coincide with the inputs.)
    """
    a11 = JetExpr.symbol(coeff_symbol((1, 1)), dim=2)
    a02 = JetExpr.symbol(coeff_symbol((0, 2)), dim=2)
    denom = ONE - a11 * a02.scale(2)
    first = (i_10.expression + a11 * i_01.expression) / denom
    second = (i_01.expression + a02.scale(2) * i_10.expression) / denom
    assumptions = _dedupe(
        list(i_10.assumptions) + list(i_01.assumptions) + [denom]
    )
    return (
        InvariantRecord("upward", "I_{10}*", first, assumptions, target_vector=(1, 0)),
        InvariantRecord("upward", "I_{01}*", second, assumptions, target_vector=(0, 1)),
    )


def is_upward_form(record: InvariantRecord, analysis: ClassAnalysis) -> bool:
    """Check the structural condition on an upward record: the expression
    is a_v - E where E references only coefficients of vectors strictly
    above v, or maximal/submaximal vectors."""
    v = record.target_vector
    if v is None:
        return False
    a_v = JetExpr.symbol(coeff_symbol(v), dim=analysis.dimension)
    E = a_v - record.expression
    allowed = analysis.maximal_set | analysis.submaximal_set | {
        u for u in analysis.all_vectors if mi.below(v, u)
    }
    return all(
        s.vector in allowed
        for s in E.base_symbols()
        if s.kind == KIND_COEFF
    )


# (dimension, highest order) of each part of the corpus of tests/test_corpus.py
PARTS = ((1, 4), (2, 4), (3, 2))


def antichains(n: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every antichain of nonzero vectors of order <= k in dimension n."""
    vectors = sorted(
        v for v in itertools.product(range(k + 1), repeat=n) if 0 < sum(v) <= k
    )
    out = []

    def grow(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(vectors)):
            v = vectors[i]
            if not any(mi.leq(v, c) or mi.leq(c, v) for c in chosen):
                grow(i + 1, chosen + [v])

    grow(0, [])
    return out
