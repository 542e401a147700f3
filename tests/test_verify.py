"""Tests for the Delta-calculus and the numeric oracle."""
from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from gaugeinv import jetalg, verify
from gaugeinv.classify import analyze, phi
from gaugeinv.grammar import parse_expr
from gaugeinv.invariants import complete_set
from gaugeinv.jetalg import (
    JetExpr,
    ONE,
    ZERO,
    coeff_symbol,
    gauge_symbol,
    substitute,
    symbol_key,
)
from gaugeinv.verify import (
    DEFAULT_SEED,
    DeltaContext,
    OracleDraws,
    UnknownCoefficientError,
    delta,
    is_invariant,
    numeric_spot_check,
    report,
)

import _fixtures as fx


def P(text, dim=2):
    return parse_expr(text, dim)


def test_delta_of_submaximal_xxy():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    assert delta(P("a[2,0]"), ctx) == P("g;[0,1]")
    assert delta(P("a[1,1]"), ctx) == P("2*g;[1,0]")


def test_delta_commutes_with_derivation():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    assert delta(P("a[2,0];[1,0]"), ctx) == P("g;[1,1]")
    e = P("a[2,0]*a[1,1]")
    assert delta(e.derive(2, 2), ctx) == delta(e, ctx).derive(2, 2)


def test_delta_of_constant_is_zero():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    assert delta(ONE, ctx) == ZERO
    assert delta(P("5/3"), ctx) == ZERO


def test_delta_of_maximal_is_zero():
    ctx = DeltaContext.for_class(fx.spec_x3())
    assert delta(P("a[1,1]"), ctx) == ZERO
    assert delta(P("a[0,2]"), ctx) == ZERO


def test_delta_rejects_unknown_coefficients():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    with pytest.raises(UnknownCoefficientError):
        delta(P("a[5,5]"), ctx)


def test_delta_rejects_gauge_symbol():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    with pytest.raises(ValueError):
        delta(JetExpr.symbol(gauge_symbol(), dim=2), ctx)


def test_is_invariant_compatibility_xxy():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    ok, residual = is_invariant(P("2*a[2,0];[1,0] - a[1,1];[0,1]"), ctx)
    assert ok and residual == ZERO


def test_is_invariant_negative_with_residual():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    ok, residual = is_invariant(P("a[1,0]"), ctx)
    assert not ok
    assert residual == delta(P("a[1,0]"), ctx)
    assert not residual.is_zero()


def test_is_invariant_extra_xxy_xyy():
    ctx = DeltaContext.for_class(fx.spec_xxy_xyy())
    ok, _ = is_invariant(P("a[1,1] - 2*a[2,0] - 2*a[0,2]"), ctx)
    assert ok


def test_delta_matches_phi_gradient():
    for make in fx.ALL_CONSTRUCTIVE.values():
        spec = make()
        an = analyze(spec)
        ctx = DeltaContext.for_class(spec)
        n = spec.dimension
        grads = [
            JetExpr.symbol(gauge_symbol(), tuple(1 if k == i else 0 for k in range(n)))
            for i in range(n)
        ]
        for v in an.submaximal_set:
            a_v = JetExpr.symbol(coeff_symbol(v), dim=n)
            want = ZERO
            for entry, gx in zip(phi(an, v), grads):
                want = want + entry * gx
            assert delta(a_v, ctx) == want


def test_numeric_spot_check_agrees_with_symbolic():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    good = P("2*a[2,0];[1,0] - a[1,1];[0,1]")
    bad = P("a[2,0]")
    assert numeric_spot_check(good, ctx)
    assert not numeric_spot_check(bad, ctx)


def test_numeric_spot_check_deterministic():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    e = P("a[1,0] - a[1,1]*a[2,0] - 2*a[2,0];[1,0]")
    assert numeric_spot_check(e, ctx, seed=7) == numeric_spot_check(e, ctx, seed=7)


def test_numeric_spot_check_symbolic_maximal():
    ctx = DeltaContext.for_class(fx.spec_five_order_3d())
    assert numeric_spot_check(parse_expr("p", 3), ctx)


def test_report_shape():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    rep = report(P("a[1,0]"), ctx)
    assert rep["invariant"] is False
    assert "residual" in rep
    assert rep["seed"] == DEFAULT_SEED
    rep2 = report(P("2*a[2,0];[1,0] - a[1,1];[0,1]"), ctx)
    assert rep2["invariant"] and rep2["numeric_check"]
    assert "residual" not in rep2


# -- the oracle against a reference -------------------------------------
#
# The reference gauges symbolically: it substitutes E's gauge map, then
# evaluates E and E' exactly over Fractions, on the same random instances
# and points as numeric_spot_check draws.  Its verdicts must be the
# oracle's, which gauges the operator numerically modulo a prime.

ORACLE_CLASSES = ["xy", "xxy", "xxy_xyy", "x3", "xyz", "five_order_3d"]


def _reference_instance(n, rng):
    terms = {}
    for m in itertools.product(range(4), repeat=n):
        if sum(m) <= 3:
            terms[m] = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
    return terms


def _reference_jet(terms, deriv, point):
    total = Fraction(0)
    for m, c in terms.items():
        if all(d <= e for d, e in zip(deriv, m)):
            for x, e, d in zip(point, m, deriv):
                c *= math.perm(e, d) * x ** (e - d)
            total += c
    return total


def _reference_value(p, jet):
    total = Fraction(0)
    for mono, c in p.terms.items():
        for v, e in mono:
            c *= jet(v) ** e
        total += c
    return total


def reference_spot_check(E, ctx, seed=DEFAULT_SEED, points=3, retries=8):
    n = ctx.spec.dimension
    rng = random.Random(seed)
    symbols = sorted(
        ctx.operator.base_symbols()
        | {s for e in ctx.gauge_map.values() for s in e.base_symbols()},
        key=symbol_key,
    )
    instance = {s: _reference_instance(n, rng) for s in symbols}
    Eg = substitute(E, ctx.gauge_map)
    for _ in range(points):
        for attempt in range(retries + 1):
            point = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                          for _ in range(n))
            at = {}

            def jet(v):
                if v not in at:
                    at[v] = _reference_jet(instance[v.base], v.deriv, point)
                return at[v]

            try:
                before = _reference_value(E.num, jet) / _reference_value(E.den, jet)
                after = _reference_value(Eg.num, jet) / _reference_value(Eg.den, jet)
            except ZeroDivisionError:
                if attempt == retries:
                    raise
                continue
            if before != after:
                return False
            break
    return True


@functools.lru_cache(maxsize=None)
def _class_records(name):
    spec = fx.ALL_CONSTRUCTIVE[name]()
    return DeltaContext.for_class(spec), complete_set(spec)[0]


def _upward_five_order_3d():
    ctx, records = _class_records("five_order_3d")
    return ctx, next(r.expression for r in records if r.kind == "upward")


@pytest.mark.parametrize("name", ORACLE_CLASSES)
def test_numeric_spot_check_matches_reference(name):
    """Every record, and every record plus a non-maximal a_w (w in turn)."""
    ctx, records = _class_records(name)
    gauged = sorted(s.vector for s in ctx.gauge_map)
    verdicts = []
    for k, rec in enumerate(records):
        a_w = JetExpr.symbol(coeff_symbol(gauged[k % len(gauged)]), dim=ctx.spec.dimension)
        for E in (rec.expression, rec.expression + a_w):
            got = numeric_spot_check(E, ctx)
            assert got == reference_spot_check(E, ctx), rec.label
            verdicts.append(got)
    # Records are invariant, a record plus a lone a_w is not.
    assert verdicts == [True, False] * len(records)


@pytest.mark.parametrize("name", sorted(fx.ALL_CONSTRUCTIVE))
def test_shared_draws_give_the_verdicts_of_single_checks(name, monkeypatch):
    """Every record, and the last one plus a[0,...,0], with draws shared.

    Each check must also compute the values, at the points, of a check on
    its own: the verdicts alone would hide a change of points.
    """
    values = []
    value = verify._value
    monkeypatch.setattr(verify, "_value", lambda terms, jet: values.append(value(terms, jet))
                        or values[-1])

    def check(E, *args):
        values.clear()
        return numeric_spot_check(E, ctx, seed, *args), list(values)

    ctx, records = _class_records(name)
    seed = 11
    draws = OracleDraws(ctx, seed)
    last = records[-1].expression
    exprs = [r.expression for r in records]
    exprs.append(last + JetExpr.symbol(coeff_symbol((0,) * ctx.spec.dimension),
                                       dim=ctx.spec.dimension))
    shared = [check(E, draws) for E in exprs]
    assert shared == [check(E) for E in exprs]
    assert [verdict for verdict, _ in shared] == [True] * len(records) + [False]


# sha256 of every _value result of the checks in the test below, in order
ORACLE_RESIDUES = "d6faac9f48e50589304d46c8d8910e76d563969ed0b59d54afd2f6ffb5ccad91"


def test_oracle_residues_are_pinned(monkeypatch):
    """Every record, and every record plus a non-maximal a_w, at DEFAULT_SEED.

    The oracle's values at its sample points, not only its verdicts, must
    stay the same: a rewrite of its arithmetic must not move any draw.
    """
    values = []
    value = verify._value
    monkeypatch.setattr(verify, "_value", lambda terms, jet: values.append(value(terms, jet))
                        or values[-1])
    for name in sorted(fx.ALL_CONSTRUCTIVE):
        ctx, records = _class_records(name)
        gauged = sorted(s.vector for s in ctx.gauge_map)
        for k, rec in enumerate(records):
            a_w = JetExpr.symbol(coeff_symbol(gauged[k % len(gauged)]), dim=ctx.spec.dimension)
            for E in (rec.expression, rec.expression + a_w):
                values.append(numeric_spot_check(E, ctx))
    assert hashlib.sha256(repr(values).encode()).hexdigest() == ORACLE_RESIDUES


def test_shared_draws_draw_an_instance_per_symbol_set():
    # a[2,1], the constant maximal coefficient of d_xxy, is in no class
    # coefficient, so an expression holding it needs a second instance.
    ctx = DeltaContext.for_class(fx.spec_xxy())
    draws = OracleDraws(ctx, DEFAULT_SEED)
    exprs = [P("2*a[2,0];[1,0] - a[1,1];[0,1]"), P("a[2,1]"), P("a[2,1] + a[1,0]"),
             P("a[2,0]")]
    shared = [numeric_spot_check(E, ctx, DEFAULT_SEED, draws) for E in exprs]
    assert shared == [numeric_spot_check(E, ctx) for E in exprs] == [True, True, False, False]
    assert len(draws._instances) == 2
    with pytest.raises(ValueError):
        numeric_spot_check(exprs[0], ctx, DEFAULT_SEED + 1, draws)


@pytest.mark.parametrize("alpha", [(0,), (3,), (2, 1), (0, 2), (1, 2, 1)])
def test_splits_list_every_lower_index_once(alpha):
    splits = verify._splits(alpha)
    betas = [beta for beta, _, _ in splits]
    assert sorted(betas) == sorted(itertools.product(*(range(a + 1) for a in alpha)))
    assert all(tuple(b + r for b, r in zip(beta, rest)) == alpha for beta, rest, _ in splits)
    assert sum(k for _, _, k in splits) == 2 ** sum(alpha)
    for i in range(len(alpha)):
        shifted = [(beta[:i] + (beta[i] + 1,) + beta[i + 1:], rest, k)
                   for beta, rest, k in splits]
        assert verify._splits(alpha, i) == tuple(shifted)


@pytest.mark.parametrize("name", ["x3", "five_order_3d"])
def test_leibniz_table_matches_a_direct_scan(name):
    ctx, _ = _class_records(name)
    L = ctx.operator
    table = OracleDraws(ctx, DEFAULT_SEED).leibniz
    assert set(table) == {s.vector for s in ctx.gauge_map}
    for w, terms in table.items():
        want = []
        for v, c in L.terms.items():
            if all(a >= b for a, b in zip(v, w)):
                c = (verify._residue(c.const_value()) if c.is_const()
                     else next(iter(c.variables())))
                want.append((math.prod(math.comb(a, b) for a, b in zip(v, w)),
                             tuple(a - b for a, b in zip(v, w)), c))
        assert sorted(terms, key=repr) == sorted(want, key=repr)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ratpoly_eval_on_monomial_values_is_direct_evaluation(n):
    rng = random.Random(n)
    poly = verify._RatPoly.random(n, rng)
    for _ in range(3):
        point = tuple(verify._draw(rng) for _ in range(n))
        values = verify._monomial_values(point)
        for deriv in [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)]:
            p = poly.derive(deriv)
            direct = sum(c * math.prod(x ** e for x, e in zip(point, m))
                         for m, c in p.terms.items()) % verify._P
            assert p.eval(values) == direct


def test_numeric_spot_check_gauges_the_operator_not_the_map():
    ctx = DeltaContext.for_class(fx.spec_xxy())
    s = coeff_symbol((1, 0))
    a_w = JetExpr.symbol(s, dim=2)
    tampered = DeltaContext(ctx.spec, ctx.operator, ctx.gauged,
                            {**ctx.gauge_map, s: a_w})
    assert is_invariant(a_w, tampered)[0]
    assert not numeric_spot_check(a_w, tampered)


class _KeysOnly(dict):
    """A gauge map whose values cannot be read."""

    def _refuse(self, *args):
        raise AssertionError("the oracle read the gauge map's values")

    __getitem__ = get = values = items = _refuse


def test_numeric_spot_check_runs_without_substitution(monkeypatch):
    ctx, E = _upward_five_order_3d()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called the symbolic path")

    for name in ("substitute", "gauge"):
        monkeypatch.setattr(verify, name, refuse)
    monkeypatch.setattr(jetalg, "substitute", refuse)
    blind = DeltaContext(ctx.spec, ctx.operator, ctx.gauged, _KeysOnly(ctx.gauge_map))
    assert numeric_spot_check(E, blind)
    assert not numeric_spot_check(E + P("a[0,0,0]", 3), blind)


def test_numeric_spot_check_leaves_no_reference_cycle():
    ctx, E = _upward_five_order_3d()
    gc.collect()
    gc.disable()
    try:
        assert numeric_spot_check(E, ctx)
        assert gc.collect() == 0
    finally:
        gc.enable()
