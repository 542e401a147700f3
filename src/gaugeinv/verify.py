"""The Delta-calculus: decide gauge invariance symbolically.

For a class with generic operator L and gauged operator L' = e^{-g} L e^g,
the difference of an expression E in the coefficients is Delta(E) = E' - E,
where E' replaces every coefficient a_v (and its derivatives) by the
corresponding coefficient of L'.  E is invariant iff Delta(E) is
identically zero.

``numeric_spot_check`` is a second, independent check of that verdict.
It instantiates every symbol as a seeded random polynomial function and
gauges the concrete operator itself, one jet at a time at a sample point,
with its own Leibniz recursion over tables of binomials and index
differences built once per class (``OracleDraws.leibniz``) and once per
multi-index (``_splits``); it shares neither ``substitute`` nor
``gauge`` with Delta.  It computes on residues modulo the prime 2^61 - 1,
so it is a Schwartz-Zippel identity test (Schwartz, J. ACM 1980): a wrong
verdict needs E' - E to vanish at every sample point without vanishing
identically.
"""
from __future__ import annotations

import random
from functools import cache
from itertools import product as _cartesian
from math import comb, prod
from typing import NamedTuple

from . import multiindex as mi
from .classify import ClassSpec, class_operator
from .grammar import InputError, print_expr
from .jetalg import (
    BaseSymbol,
    JetExpr,
    JetVariable,
    KIND_COEFF,
    KIND_GAUGE,
    KIND_PARAM,
    coeff_symbol,
    gauge_symbol,
    substitute,
    symbol_key,
)
from .opalg import DiffOperator, GaugeSymbolPresentError, gauge

DEFAULT_SEED = 1729

# The oracle's draws: sample points per check, resamples per point when a
# denominator vanishes, and the total degree of each random instance.
_POINTS = 3
_RETRIES = 8
_DEGREE = 3


class UnknownCoefficientError(InputError):
    """Expression references a coefficient or a parameter the class lacks."""


class DeltaContext(NamedTuple):
    """The gauge data of one class, an immutable value: L, L' and the
    a_v -> a'_v map."""

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
        gmap = {
            coeff_symbol(v): Lg.coefficient(v)
            for v in L.support() - spec.maximal_set
        }
        return DeltaContext(spec, L, Lg, gmap)

    def _check(self, E: JetExpr) -> None:
        known = {s.vector for s in self.gauge_map} | self.spec.maximal_set
        for s in E.base_symbols():
            if s.kind == KIND_GAUGE:
                raise GaugeSymbolPresentError(
                    "expression already contains the gauge symbol"
                )
            if s.kind == KIND_COEFF and s.vector not in known:
                raise UnknownCoefficientError(
                    f"coefficient a_{s.vector} is not in the class lattice"
                )
            if s.kind == KIND_PARAM and s not in self.spec.parameters:
                raise UnknownCoefficientError(f"parameter {s.text()} is not in the class")


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


_P = 2**61 - 1  # a Mersenne prime; the oracle computes modulo _P


def _residue(c) -> int:
    """An int or Fraction coefficient, its denominator prime to _P, modulo _P."""
    return c % _P if type(c) is int else c.numerator * pow(c.denominator, -1, _P) % _P


def _residues(p) -> list[tuple[int, tuple]]:
    """p's terms as (residue, monomial), p scaled by the power of _P (almost
    always 1) that leaves _P in no coefficient denominator; a constant factor
    of E's numerator or denominator keeps num(E') den(E) = num(E) den(E')."""
    scale = 1
    for c in p.terms.values():
        while not c.denominator % (scale * _P):
            scale *= _P
    residues = [(_residue(c * scale if scale > 1 else c), m) for m, c in p.terms.items()]
    if scale > 1 and not all(r for r, _ in residues):  # such a term would go unchecked
        raise InputError("E's coefficient denominators hold the oracle's prime 2^61 - 1 unevenly")
    return residues


_INVERSE = (0,) + tuple(pow(j, -1, _P) for j in range(1, 8))  # 1/j modulo _P


def _draw(rng: random.Random) -> int:
    """A rational i/j modulo _P, with -7 <= i <= 7 and 1 <= j <= 7."""
    return rng.randint(-7, 7) * _INVERSE[rng.randint(1, 7)] % _P


@cache
def _monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """The exponents of x_1..x_n of total degree <= _DEGREE, in draw order."""
    return tuple(m for m in _cartesian(*(range(_DEGREE + 1) for _ in range(n)))
                 if sum(m) <= _DEGREE)


def _monomial_values(point: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The value at the point of every monomial of total degree <= _DEGREE."""
    powers = [[pow(x, e, _P) for e in range(_DEGREE + 1)] for x in point]
    return {m: prod(p[e] for p, e in zip(powers, m)) % _P for m in _monomials(len(point))}


class _RatPoly:
    """Polynomial function of x_1..x_n with coefficients modulo _P."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[tuple[int, ...], int]):
        self.n = n
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def random(n: int, rng: random.Random) -> "_RatPoly":
        """Total degree <= _DEGREE; coefficients i/j with -7 <= i <= 7 and
        1 <= j <= 7, reduced."""
        return _RatPoly(n, {m: _draw(rng) for m in _monomials(n)})

    def derive(self, deriv: tuple[int, ...]) -> "_RatPoly":
        terms = self.terms
        for i, k in enumerate(deriv):
            for _ in range(k):
                # m -> m - e_i is injective, so no two terms collide.
                terms = {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] % _P
                         for m, c in terms.items() if m[i]}
        return _RatPoly(self.n, terms)

    def eval(self, values: dict[tuple[int, ...], int]) -> int:
        """The value at a point, given there by ``_monomial_values``."""
        return sum(c * values[m] for m, c in self.terms.items()) % _P


def _value(terms, jet) -> int:
    """A polynomial, given as (residue, monomial) pairs, at jet(v) per variable."""
    total = 0
    for c, mono in terms:
        for v, e in mono:
            c = c * pow(jet(v), e, _P) % _P
        total += c
    return total % _P


def _b_jet(u, gamma, g_jet, memo) -> int:
    """d^gamma B_u at the sample point, for B_u = e^{-g} d^u e^g.

    B_0 = 1 and B_{u+e_i} = d_i B_u + g_{x_i} B_u, so by Leibniz
    d^gamma B_{u+e_i} = d^{gamma+e_i} B_u
                        + sum_{delta <= gamma} C(gamma, delta) d^{delta+e_i} g
                                               * d^{gamma-delta} B_u.
    g_jet(d) is d^d g at the point; memo maps (u, gamma) to known values.
    """
    if not any(u):
        return 0 if any(gamma) else 1
    key = (u, gamma)
    r = memo.get(key)
    if r is None:
        i = next(k for k, x in enumerate(u) if x)
        prev = u[:i] + (u[i] - 1,) + u[i + 1:]
        r = _b_jet(prev, gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:], g_jet, memo)
        for delta_i, rest, k in _splits(gamma, i):
            gd = g_jet(delta_i)
            if gd:
                r += k * gd * _b_jet(prev, rest, g_jet, memo)
        r = memo[key] = r % _P
    return r


@cache
def _splits(alpha: tuple[int, ...], i: int | None = None) -> tuple:
    """(beta, alpha - beta, C(alpha, beta)) for every beta <= alpha, where
    C is the multinomial binomial; given i, beta + e_i stands for beta."""
    out = []
    for beta in _cartesian(*(range(a + 1) for a in alpha)):
        rest = tuple(a - b for a, b in zip(alpha, beta))
        k = prod(map(comb, alpha, beta))
        if i is not None:
            beta = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
        out.append((beta, rest, k))
    return tuple(out)


class OracleDraws:
    """The numeric oracle's draws for one class and seed, shared by checks.

    One object serves the checks of one call, such as every record of
    ``invariants --verify``.  Per set of symbols it keeps the random
    instance, the derived jets, the generator positioned after the
    instance, and the sample points it has drawn so far, each as the value
    there of every monomial of total degree <= _DEGREE, with its memos: the
    jets before and after gauging and the B_u values.  ``leibniz`` maps
    each gauged w to its terms (C(v, w), v - w, c_v), v >= w.  A check
    takes the points in the order the generator draws them, so it sees the
    points, and the retries, of a check on its own, and its verdict is the
    same.
    """

    def __init__(self, ctx: DeltaContext, seed: int):
        self.ctx = ctx
        self.seed = seed
        L = ctx.operator
        for v, c in L.terms.items():
            if c.is_const() and not c.const_value().denominator % _P:
                raise InputError(f"the coefficient {print_expr(c)} of d^{v} has the "
                                 "oracle's prime 2^61 - 1 in its denominator")
        # The coefficient c_v of each d^v: a residue when constant, else the
        # jet variable of its single symbol.
        coeff = {v: _residue(c.const_value()) if c.is_const() else next(iter(c.variables()))
                 for v, c in L.terms.items()}
        self.leibniz = {w: [(prod(map(comb, v, w)), tuple(a - b for a, b in zip(v, w)), c)
                            for v, c in coeff.items() if mi.leq(w, v)]
                        for w in L.support() - ctx.spec.maximal_set}
        self._instances: dict[tuple[BaseSymbol, ...], tuple] = {}

    def instance(self, symbols: tuple[BaseSymbol, ...]) -> tuple:
        """(instance, derived jets, generator, points drawn) for the symbols."""
        inst = self._instances.get(symbols)
        if inst is None:
            rng = random.Random(self.seed)
            polys = {s: _RatPoly.random(self.ctx.spec.dimension, rng) for s in symbols}
            inst = self._instances[symbols] = (polys, {}, rng, [])
        return inst


def numeric_spot_check(E: JetExpr, ctx: DeltaContext, seed: int = DEFAULT_SEED,
                       draws: OracleDraws | None = None) -> bool:
    """Compare E on random polynomial coefficients before and after gauging.

    Every free symbol of the class and of E (the non-maximal lattice
    coefficients, the maximal ones that are symbolic or in E, and g)
    becomes a random polynomial in x_1..x_n of total degree <= _DEGREE (3)
    with small rational coefficients.  At each of _POINTS (3) random
    rational points, E is evaluated once on the jets of those polynomials
    and once on the jets of the gauged coefficients.  The gauged jets come
    from the concrete operator itself, by Leibniz:

        d^alpha a'_w = sum_{v >= w} C(v, w) sum_{beta <= alpha} C(alpha, beta)
                                   * d^beta c_v * d^{alpha-beta} B_{v-w},

    with c_v the coefficient of d^v and B_u as in ``_b_jet``; the outer sum
    walks ``draws.leibniz[w]``, the inner one ``_splits(alpha)``.  Neither
    ``substitute`` nor ``gauge`` nor the values of ``ctx.gauge_map`` are
    used, so the check is independent of the symbolic Delta it checks.

    All arithmetic is on residues modulo the prime P = 2^61 - 1; every
    rational (instance coefficient, point coordinate, coefficient of E) is
    reduced as numerator * denominator^-1, once E's numerator and
    denominator are each scaled by the power of P that clears P from their
    coefficient denominators (``_residues``).  A term this scaling sends to
    0, which would go unchecked, and a class constant with P in its
    denominator are InputErrors.  Cleared of denominators, the scaled E' - E
    is a polynomial N in the instance coefficients and the point
    coordinates.  By the Schwartz-Zippel lemma a nonzero N of total degree d
    vanishes at a point drawn uniformly from a sample set S with probability
    at most d/|S|, over Q and modulo P alike; the reduction changes the
    verdict of exact arithmetic at the same draws only when P divides a
    nonzero value of N (as for E = P a_v).  A point at which a denominator
    of E, before or after gauging, vanishes modulo P is resampled, at most
    _RETRIES (8) times per point; then the ZeroDivisionError propagates.

    ``draws``, an ``OracleDraws`` for the same ctx and seed, shares the
    draws between the checks of one call; the verdict is the same as
    without it.
    """
    ctx._check(E)
    if draws is None:
        draws = OracleDraws(ctx, seed)
    elif draws.ctx is not ctx or draws.seed != seed:
        raise ValueError("the oracle draws belong to another class or seed")
    n = ctx.spec.dimension
    leibniz = draws.leibniz
    g = gauge_symbol()
    # The symbols of L, L' and E; g occurs in L' when any coefficient is gauged.
    symbols = ctx.operator.base_symbols() | E.base_symbols() | ({g} if leibniz else set())
    instance, derived, rng, points = draws.instance(tuple(sorted(symbols, key=symbol_key)))
    num, den = _residues(E.num), _residues(E.den)
    # Each jet variable is derived once per instance and evaluated once per
    # point: at, after_at and b_memo are the memos of the current point.

    def jet(v: JetVariable) -> int:
        r = at.get(v)
        if r is None:
            poly = derived.get(v)
            if poly is None:
                poly = derived[v] = instance[v.base].derive(v.deriv)
            r = at[v] = poly.eval(values)
        return r

    def g_jet(d) -> int:
        return jet(JetVariable(g, d))

    def after(var: JetVariable) -> int:
        # Parameters and g have no vector; maximal coefficients are not gauged.
        table = leibniz.get(var.base.vector)
        if table is None:
            return jet(var)
        r = after_at.get(var)
        if r is None:
            alpha = var.deriv
            r = 0
            for k, u, c in table:
                if type(c) is int:
                    r += k * c * _b_jet(u, alpha, g_jet, b_memo)
                    continue
                for beta, gamma, kb in _splits(alpha):
                    cj = jet(JetVariable(c.base, beta))
                    if cj:
                        r += k * kb * cj * _b_jet(u, gamma, g_jet, b_memo)
            r = after_at[var] = r % _P
        return r

    drawn = 0
    for _ in range(_POINTS):
        for attempt in range(_RETRIES + 1):
            if drawn == len(points):
                point = tuple(_draw(rng) for _ in range(n))
                points.append((_monomial_values(point), {}, {}, {}))
            values, at, after_at, b_memo = points[drawn]
            drawn += 1
            d0 = _value(den, jet)
            d1 = d0 and _value(den, after)
            if not d1:
                if attempt == _RETRIES:
                    raise ZeroDivisionError("denominator vanished at every sample point")
                continue
            if _value(num, jet) * d1 % _P != _value(num, after) * d0 % _P:
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
