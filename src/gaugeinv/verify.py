"""The Delta-calculus: decide gauge invariance symbolically.

For a class with generic operator L and gauged operator L' = e^{-g} L e^g,
the difference of an expression E in the coefficients is Delta(E) = E' - E,
where E' replaces every coefficient a_v (and its derivatives) by the
corresponding coefficient of L'.  E is invariant iff Delta(E) is
identically zero.  A seeded numeric spot check instantiates all symbols as
random polynomial functions and compares exact evaluations, giving an
oracle independent of the symbolic normalization.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _cartesian

from . import multiindex as mi
from .classify import ClassSpec, class_operator
from .grammar import print_expr
from .jetalg import (
    BaseSymbol,
    JetExpr,
    JetVariable,
    KIND_COEFF,
    KIND_GAUGE,
    coeff_symbol,
    substitute,
    symbol_key,
)
from .opalg import DiffOperator, gauge

DEFAULT_SEED = 1729


class UnknownCoefficientError(ValueError):
    """Expression references a coefficient outside the class lattice."""


@dataclass(frozen=True)
class DeltaContext:
    """Frozen gauge data for one class: L, L', and the a_v -> a'_v map."""

    spec: ClassSpec
    operator: DiffOperator
    gauged: DiffOperator
    gauge_map: dict[BaseSymbol, JetExpr]

    @staticmethod
    def for_class(spec: ClassSpec) -> "DeltaContext":
        L = class_operator(spec)
        Lg = gauge(L)
        # Maximal coefficients are unchanged; only non-maximal lattice
        # coefficients acquire gauge terms.
        maximal = {v for v, _ in spec.maximal_terms}
        gmap = {
            coeff_symbol(v): Lg.coefficient(v)
            for v in L.support() - maximal
        }
        return DeltaContext(spec, L, Lg, gmap)

    def _check(self, E: JetExpr) -> None:
        lattice = {s.vector for s in self.gauge_map}
        maximal = {v for v, _ in self.spec.maximal_terms}
        for s in E.base_symbols():
            if s.kind == KIND_GAUGE:
                raise ValueError("expression already contains the gauge symbol")
            if s.kind == KIND_COEFF and s.vector not in lattice | maximal:
                raise UnknownCoefficientError(
                    f"coefficient a_{s.vector} is not in the class lattice"
                )


def delta(E: JetExpr, ctx: DeltaContext) -> JetExpr:
    """Delta(E) = E' - E."""
    ctx._check(E)
    return substitute(E, ctx.gauge_map) - E


def is_invariant(E: JetExpr, ctx: DeltaContext) -> tuple[bool, JetExpr]:
    """True iff Delta(E) is identically zero; returns the residual.

    The residual's numerator is polynomial, so denominators arising from
    recorded assumptions are cleared automatically by canonicalization;
    invariance is decided on the locus where the assumptions hold.
    """
    residual = delta(E, ctx)
    return residual.is_zero(), residual


class _RatPoly:
    """Polynomial function of x_1..x_n over Q (numeric oracle plumbing)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], Fraction]):
        self.n = n
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def random(n: int, rng: random.Random, max_degree: int = 3) -> "_RatPoly":
        terms = {}
        for m in _cartesian(*(range(max_degree + 1) for _ in range(n))):
            if sum(m) > max_degree:
                continue
            terms[m] = Fraction(rng.randint(-7, 7), rng.randint(1, 7))
        return _RatPoly(n, terms)

    def derive(self, deriv: tuple[int, ...]) -> "_RatPoly":
        terms = self.terms
        for i, k in enumerate(deriv):
            for _ in range(k):
                new: dict[tuple[int, ...], Fraction] = {}
                for m, c in terms.items():
                    if m[i] > 0:
                        dm = m[:i] + (m[i] - 1,) + m[i + 1:]
                        new[dm] = new.get(dm, Fraction(0)) + c * m[i]
                terms = new
        return _RatPoly(self.n, terms)

    def eval(self, point: tuple[Fraction, ...]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for x, e in zip(point, m):
                t *= x ** e
            total += t
        return total


def numeric_spot_check(
    E: JetExpr,
    ctx: DeltaContext,
    seed: int = DEFAULT_SEED,
    points: int = 3,
    retries: int = 8,
) -> bool:
    """Compare E on random polynomial coefficients before and after gauging.

    Every free symbol of the context (all lattice coefficients, symbolic
    maximal coefficients, and g) becomes a random polynomial of total
    degree <= 3 with small rational coefficients; E and its gauged
    counterpart are evaluated exactly at random rational points.  Points
    that hit a vanishing denominator are resampled (bounded retries).
    """
    ctx._check(E)
    n = ctx.spec.dimension
    rng = random.Random(seed)
    symbols = sorted(
        ctx.operator.base_symbols() | {s for e in ctx.gauge_map.values()
                                       for s in e.base_symbols()},
        key=symbol_key,
    )
    instance = {s: _RatPoly.random(n, rng) for s in symbols}
    Eg = substitute(E, ctx.gauge_map)
    # Each jet variable is derived once per call and evaluated once per
    # point, however often it occurs in E and Eg.
    derived: dict[JetVariable, _RatPoly] = {}
    at: dict[JetVariable, Fraction] = {}

    def value(v: JetVariable) -> Fraction:
        if v not in at:
            if v not in derived:
                derived[v] = instance[v.base].derive(v.deriv)
            at[v] = derived[v].eval(point)
        return at[v]

    for _ in range(points):
        for attempt in range(retries + 1):
            point = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 7))
                          for _ in range(n))
            at.clear()
            try:
                before = E.evaluate(value)
                after = Eg.evaluate(value)
            except ZeroDivisionError:
                if attempt == retries:
                    raise
                continue
            if before != after:
                return False
            break
    return True


def report(E: JetExpr, ctx: DeltaContext, seed: int = DEFAULT_SEED) -> dict:
    """Verification report for one expression."""
    ok, residual = is_invariant(E, ctx)
    out = {
        "expression": print_expr(E),
        "invariant": ok,
        "numeric_check": numeric_spot_check(E, ctx, seed),
        "seed": seed,
    }
    if not ok:
        out["residual"] = print_expr(residual)
    return out
