"""Exact commutative differential algebra in jet variables over Q.

Expressions are quotients of sparse multivariate polynomials whose
variables are jet variables: a base symbol (a coefficient a_v, the gauge
symbol g, or a named parameter) together with a multi-index recording which
formal partial derivatives have been applied.  The n derivations d_1..d_n
act by linearity, Leibniz, and the quotient rule; mixed partials commute by
construction because derivative multi-indices are unordered.

Normalization deliberately avoids a full multivariate gcd: quotients cancel
only common monomial content and the denominator's leading coefficient
(made +1, scale moved into the numerator).  Equality is decided exactly by
cross-multiplication.

Coefficients are exact rationals held as a plain ``int`` whenever they are
integral and as a ``Fraction`` only otherwise; every operation hands back
coefficients in that form.  Coefficients are divided only through
``Fraction`` (``int / int`` would give a float).  Since ``int`` and
``Fraction`` compare and hash equal, code outside this module reads a
coefficient through ``.numerator`` and ``.denominator`` alone.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

from .multiindex import MultiIndex, add as mi_add, order as mi_order, unit

KIND_COEFF = "coeff"
KIND_GAUGE = "gauge"
KIND_PARAM = "param"

_KIND_RANK = {KIND_COEFF: 0, KIND_GAUGE: 1, KIND_PARAM: 2}


class CyclicBindingError(ValueError):
    """A bound symbol appears in its own binding after closure."""


class BaseSymbol(NamedTuple):
    kind: str
    vector: MultiIndex | None  # owner vector for coefficients
    name: str | None           # for gauge and parameter symbols

    def text(self) -> str:
        if self.kind == KIND_COEFF:
            return "a[" + ",".join(map(str, self.vector)) + "]"
        return self.name


def coeff_symbol(vector: Iterable[int]) -> BaseSymbol:
    return BaseSymbol(KIND_COEFF, tuple(vector), None)


def gauge_symbol(name: str = "g") -> BaseSymbol:
    return BaseSymbol(KIND_GAUGE, None, name)


def param_symbol(name: str) -> BaseSymbol:
    if not name or name == "g":
        raise ValueError(f"invalid parameter name {name!r}")
    return BaseSymbol(KIND_PARAM, None, name)


class JetVariable(NamedTuple):
    base: BaseSymbol
    deriv: MultiIndex

    def text(self) -> str:
        s = self.base.text()
        if any(self.deriv):
            s += ";[" + ",".join(map(str, self.deriv)) + "]"
        return s


@lru_cache(maxsize=None)
def _var_key(v: JetVariable):
    # Total order: Coefficient < Gauge < Parameter, then owner-vector/name
    # lex, then deriv graded lex.
    base = v.base
    return (
        _KIND_RANK[base.kind],
        base.vector or (),
        base.name or "",
        mi_order(v.deriv),
        v.deriv,
    )


# A monomial is a tuple of (JetVariable, exponent) pairs, sorted by _var_key,
# exponents > 0.  The empty tuple is the constant monomial.
Mono = tuple[tuple[JetVariable, int], ...]

_ONE_MONO: Mono = ()


def _exact(c):
    """An integral Fraction as its int; any other coefficient unchanged."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _settle(terms: dict) -> dict:
    """Apply _exact to every coefficient of a term map, in place."""
    for m, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[m] = c.numerator
    return terms


def _inverse(c) -> Fraction:
    """1/c for a nonzero coefficient, always through Fraction."""
    return Fraction(1, c) if type(c) is int else 1 / c


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out: dict[JetVariable, int] = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items(), key=lambda p: _var_key(p[0])))


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Mono):
    """Canonical monomial order: graded, then by variable keys."""
    return (-_mono_degree(m), tuple((_var_key(v), -e) for v, e in m))


class Poly:
    """Sparse polynomial over Q in jet variables.

    ``terms`` maps monomials to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` otherwise.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Mono, int | Fraction] | None = None):
        self.terms = terms or {}

    @staticmethod
    def const(c) -> "Poly":
        c = c if type(c) is int else _exact(Fraction(c))
        return Poly({_ONE_MONO: c} if c else {})

    @staticmethod
    def var(v: JetVariable) -> "Poly":
        return Poly({((v, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return all(m == _ONE_MONO for m in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get(_ONE_MONO, 0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s if type(s) is int else _exact(s)
            elif m in out:
                del out[m]
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(_settle(out))

    def scale(self, c) -> "Poly":
        if type(c) is not int:
            c = _exact(Fraction(c))
        if c == 0:
            return Poly()
        return Poly(_settle({m: x * c for m, x in self.terms.items()}))

    def leading(self) -> tuple[Mono, int | Fraction]:
        m = min(self.terms, key=_mono_key)
        return m, self.terms[m]

    def derive(self, i: int, dim: int) -> "Poly":
        """Formal partial derivative d_i, 1-based."""
        out = Poly()
        ei = unit(dim, i)
        for mono, c in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                dv = JetVariable(v.base, mi_add(v.deriv, ei))
                rest = list(mono[:idx]) + ([(v, e - 1)] if e > 1 else []) + list(mono[idx + 1:])
                base = tuple(sorted(rest, key=lambda p: _var_key(p[0])))
                out = out + Poly({_mono_mul(base, ((dv, 1),)): _exact(c * e)})
        return out

    def variables(self) -> set[JetVariable]:
        return {v for m in self.terms for v, _ in m}

    def evaluate(self, value: Callable[[JetVariable], Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            t = c
            for v, e in m:
                t *= value(v) ** e
            total += t
        return total

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda p: _mono_key(p[0]))


_ONE_POLY = Poly.const(1)


def _mono_content(polys: list[Poly]) -> Mono:
    """Common monomial factor of every term of every polynomial."""
    common: dict[JetVariable, int] | None = None
    for p in polys:
        for m in p.terms:
            d = dict(m)
            if common is None:
                common = d
            else:
                common = {v: min(e, d[v]) for v, e in common.items() if v in d}
            if not common:
                return _ONE_MONO
    return tuple(sorted((common or {}).items(), key=lambda p: _var_key(p[0])))


def _mono_divide(p: Poly, m: Mono) -> Poly:
    if not m:
        return p
    md = dict(m)
    out = {}
    for mono, c in p.terms.items():
        d = dict(mono)
        for v, e in md.items():
            d[v] -= e
            if d[v] == 0:
                del d[v]
        out[tuple(sorted(d.items(), key=lambda q: _var_key(q[0])))] = c
    return Poly(out)


class JetExpr:
    """Quotient of two jet polynomials, kept in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE_POLY):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), _ONE_POLY
            return
        if den is _ONE_POLY:
            pass
        elif den.is_const():
            c = den.terms[_ONE_MONO]
            if c != 1:
                num = num.scale(_inverse(c))
            den = _ONE_POLY
        else:
            content = _mono_content([num, den])
            if content:
                num = _mono_divide(num, content)
                den = _mono_divide(den, content)
            _, lead = den.leading()
            if lead != 1:
                inv = _inverse(lead)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num, self.den = num, den

    # -- constructors -------------------------------------------------
    @staticmethod
    def const(c) -> "JetExpr":
        return JetExpr(Poly.const(c))

    @staticmethod
    def symbol(base: BaseSymbol, deriv: MultiIndex | None = None, dim: int | None = None) -> "JetExpr":
        if deriv is None:
            if dim is None:
                raise ValueError("need deriv or dim")
            deriv = (0,) * dim
        return JetExpr(Poly.var(JetVariable(base, tuple(deriv))))

    # -- predicates ---------------------------------------------------
    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.den is _ONE_POLY and self.num.is_const() or (self.num.is_const() and self.den.is_const())

    def const_value(self) -> Fraction:
        return self.num.const_value() / self.den.const_value()

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "JetExpr") -> "JetExpr":
        if self.den == other.den:
            return JetExpr(self.num + other.num, self.den)
        return JetExpr(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "JetExpr":
        return JetExpr(-self.num, self.den)

    def __sub__(self, other: "JetExpr") -> "JetExpr":
        return self + (-other)

    def __mul__(self, other: "JetExpr") -> "JetExpr":
        return JetExpr(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "JetExpr") -> "JetExpr":
        if other.is_zero():
            raise ZeroDivisionError("division by identically-zero expression")
        return JetExpr(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "JetExpr":
        if k < 0:
            return JetExpr.const(1) / self ** (-k)
        out = JetExpr.const(1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "JetExpr":
        return JetExpr(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetExpr):
            return NotImplemented
        return equal(self, other)

    __hash__ = None

    # -- calculus -----------------------------------------------------
    def derive(self, i: int, dim: int) -> "JetExpr":
        if self.den is _ONE_POLY:
            return JetExpr(self.num.derive(i, dim))
        dn = self.num.derive(i, dim)
        dd = self.den.derive(i, dim)
        return JetExpr(dn * self.den - self.num * dd, self.den * self.den)

    def derive_multi(self, deriv: MultiIndex) -> "JetExpr":
        out = self
        for i, k in enumerate(deriv, start=1):
            for _ in range(k):
                out = out.derive(i, len(deriv))
        return out

    # -- inspection ---------------------------------------------------
    def variables(self) -> set[JetVariable]:
        return self.num.variables() | self.den.variables()

    def base_symbols(self) -> set[BaseSymbol]:
        return {v.base for v in self.variables()}

    def evaluate(self, value: Callable[[JetVariable], Fraction]) -> Fraction:
        d = self.den.evaluate(value)
        if d == 0:
            raise ZeroDivisionError("denominator vanished at sample point")
        return self.num.evaluate(value) / d

    def __repr__(self):
        from .grammar import print_expr
        return f"JetExpr({print_expr(self)})"


ZERO = JetExpr.const(0)
ONE = JetExpr.const(1)


def equal(a: JetExpr, b: JetExpr) -> bool:
    """Exact equality by cross-multiplication: a*den(b) - b*den(a) == 0."""
    return (a.num * b.den - b.num * a.den).is_zero()


def proportional(a: JetExpr, b: JetExpr) -> bool:
    """True iff a = c*b for some nonzero rational c (or both are zero)."""
    p = a.num * b.den
    q = b.num * a.den
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    mp, cp = p.leading()
    mq, cq = q.leading()
    if mp != mq:
        return False
    return (p - q.scale(Fraction(cp) / cq)).is_zero()


def _toposort_bindings(bindings: Mapping[BaseSymbol, JetExpr]) -> list[BaseSymbol]:
    bound = set(bindings)
    deps = {s: (bindings[s].base_symbols() & bound) - {s} for s in bound}
    out: list[BaseSymbol] = []
    mark: dict[BaseSymbol, int] = {}

    def visit(s: BaseSymbol, stack: list[BaseSymbol]):
        state = mark.get(s)
        if state == 2:
            return
        if state == 1:
            cyc = " -> ".join(x.text() for x in stack + [s])
            raise CyclicBindingError(f"cyclic substitution: {cyc}")
        mark[s] = 1
        for t in sorted(deps[s], key=lambda b: (b.kind, b.vector or (), b.name or "")):
            visit(t, stack + [s])
        mark[s] = 2
        out.append(s)

    for s in sorted(bound, key=lambda b: (b.kind, b.vector or (), b.name or "")):
        visit(s, [])
    return out


def substitute(e: JetExpr, bindings: Mapping[BaseSymbol, JetExpr]) -> JetExpr:
    """Simultaneous one-pass substitution of base symbols by expressions.

    Derived jet variables of a bound symbol are replaced by the matching
    derivatives of the binding, so substitution commutes with derive on
    bound symbols.  Bound symbols occurring in a right-hand side always
    denote the *original* (pre-substitution) symbols; use
    ``resolve_bindings`` first when bindings are meant to reference each
    other's substituted values.
    """
    if not bindings:
        return e
    return _apply_bindings(e, bindings)


def resolve_bindings(
    bindings: Mapping[BaseSymbol, JetExpr],
) -> dict[BaseSymbol, JetExpr]:
    """Close a set of cross-referencing bindings.

    Returns an equivalent map in which no right-hand side mentions a bound
    symbol, suitable for a single ``substitute`` pass.  Raises
    CyclicBindingError when a bound symbol appears in its own binding after
    closure (directly or through a reference cycle).
    """
    resolved: dict[BaseSymbol, JetExpr] = {}
    for s in _toposort_bindings(bindings):
        resolved[s] = _apply_bindings(bindings[s], resolved)
        if s in resolved[s].base_symbols():
            raise CyclicBindingError(f"{s.text()} appears in its own binding")
    return resolved


def _apply_bindings(e: JetExpr, resolved: Mapping[BaseSymbol, JetExpr]) -> JetExpr:
    if not resolved or not (e.base_symbols() & set(resolved)):
        return e
    cache: dict[JetVariable, JetExpr] = {}

    def value(v: JetVariable) -> JetExpr:
        if v.base not in resolved:
            return JetExpr(Poly.var(v))
        if v not in cache:
            cache[v] = resolved[v.base].derive_multi(v.deriv)
        return cache[v]

    def apply_poly(p: Poly) -> JetExpr:
        total = ZERO
        for mono, c in p.terms.items():
            t = JetExpr.const(c)
            for v, exp in mono:
                t = t * value(v) ** exp
            total = total + t
        return total

    return apply_poly(e.num) / apply_poly(e.den)
