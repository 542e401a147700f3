"""Seeded property suites for the algebraic identities (200 cases each)."""
from __future__ import annotations

import random
from fractions import Fraction

from gaugeinv.classify import analyze, class_operator, phi
from gaugeinv.jetalg import (
    JetExpr,
    ONE,
    ZERO,
    coeff_symbol,
    gauge_symbol,
    param_symbol,
    substitute,
)
from gaugeinv.opalg import DiffOperator, gauge, op_mul
from gaugeinv.verify import DeltaContext, delta

import _fixtures as fx

CASES = 200


def random_coeff_expr(rng, vectors, dim, depth=2):
    """Random JetExpr over the class coefficients (polynomial, no division)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.15:
            return JetExpr.const(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        v = rng.choice(vectors)
        deriv = tuple(rng.randint(0, 1) for _ in range(dim))
        return JetExpr.symbol(coeff_symbol(v), deriv)
    a = random_coeff_expr(rng, vectors, dim, depth - 1)
    b = random_coeff_expr(rng, vectors, dim, depth - 1)
    return a + b if rng.random() < 0.5 else a * b


def random_operator(rng, dim, max_order=3):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        v = tuple(rng.randint(0, max_order) for _ in range(dim))
        if sum(v) > max_order:
            v = tuple(x % 2 for x in v)
        c = JetExpr.symbol(
            coeff_symbol(tuple(rng.randint(0, 1) for _ in range(dim))),
            tuple(rng.randint(0, 1) for _ in range(dim)),
        )
        if rng.random() < 0.3:
            c = c + JetExpr.const(rng.randint(-3, 3))
        terms[v] = c
    return DiffOperator(dim, terms)


def test_delta_is_additive():
    spec = fx.spec_xxy()
    ctx = DeltaContext.for_class(spec)
    vectors = sorted(v for v in class_operator(spec).support())
    rng = random.Random(20240)
    for _ in range(CASES):
        E = random_coeff_expr(rng, vectors, 2)
        F = random_coeff_expr(rng, vectors, 2)
        assert delta(E + F, ctx) == delta(E, ctx) + delta(F, ctx)


def test_delta_commutes_with_derivation():
    spec = fx.spec_xxy()
    ctx = DeltaContext.for_class(spec)
    vectors = sorted(v for v in class_operator(spec).support())
    rng = random.Random(20241)
    for _ in range(CASES):
        E = random_coeff_expr(rng, vectors, 2)
        i = rng.randint(1, 2)
        assert delta(E.derive(i, 2), ctx) == delta(E, ctx).derive(i, 2)


def test_gauge_group_action():
    # gauge by h then by g equals gauge by g + h
    rng = random.Random(20242)
    g, h = gauge_symbol("g"), gauge_symbol("h")
    for case in range(CASES):
        dim = rng.randint(1, 2)
        L = random_operator(rng, dim, max_order=2)
        twice = gauge(gauge(L).substitute({g: JetExpr.symbol(h, dim=dim)}))
        combined = gauge(L).substitute(
            {g: JetExpr.symbol(g, dim=dim) + JetExpr.symbol(h, dim=dim)}
        )
        assert twice == combined, case


def test_op_mul_associative():
    rng = random.Random(20243)
    for case in range(CASES):
        dim = rng.randint(1, 3)
        A = random_operator(rng, dim)
        B = random_operator(rng, dim)
        C = random_operator(rng, dim)
        assert op_mul(op_mul(A, B), C) == op_mul(A, op_mul(B, C)), case


def test_op_mul_left_distributive():
    rng = random.Random(20244)
    for case in range(CASES):
        dim = rng.randint(1, 3)
        A = random_operator(rng, dim)
        B = random_operator(rng, dim)
        C = random_operator(rng, dim)
        assert op_mul(A, B + C) == op_mul(A, B) + op_mul(A, C), case


def test_delta_submaximal_matches_phi_all_fixtures():
    for make in fx.ALL_CONSTRUCTIVE.values():
        spec = make()
        an = analyze(spec)
        ctx = DeltaContext.for_class(spec)
        n = spec.dimension
        grads = [
            JetExpr.symbol(
                gauge_symbol(), tuple(1 if k == i else 0 for k in range(n))
            )
            for i in range(n)
        ]
        for v in an.submaximal_set:
            a_v = JetExpr.symbol(coeff_symbol(v), dim=n)
            want = ZERO
            for entry, gx in zip(phi(an, v), grads):
                want = want + entry * gx
            assert delta(a_v, ctx) == want, (make.__name__, v)


def test_gauge_preserves_maximal_coefficients_random():
    rng = random.Random(20245)
    for case in range(CASES):
        dim = rng.randint(1, 3)
        L = random_operator(rng, dim, max_order=2)
        Lg = gauge(L)
        from gaugeinv import multiindex as mi
        for m in mi.maximal_elements(L.support()):
            assert Lg.coefficient(m) == L.coefficient(m), (case, m)


def test_interior_delta_vanishes_modulo_gradient_for_invariants():
    # spot property: delta of every constructed upward invariant is zero
    # for a random sample of fixture classes (cheap re-verification)
    from gaugeinv.invariants import upward_invariant_generic
    from gaugeinv.verify import is_invariant

    for make in (fx.spec_xy, fx.spec_xxy, fx.spec_xyz):
        spec = make()
        an = analyze(spec)
        ctx = DeltaContext.for_class(spec)
        for v in an.interior_set:
            rec = upward_invariant_generic(an, v)
            ok, _ = is_invariant(rec.expression, ctx)
            assert ok, (make.__name__, v)
