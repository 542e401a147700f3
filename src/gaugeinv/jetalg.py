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

A monomial keeps its factors in the natural tuple order, so merging sorts
without a key function; the printed order is defined only by ``_mono_key``
and ``Poly.sorted_terms``, which order the factors by ``_var_key``.
Only ``map_jets`` packs monomials into ints, in an encoding local to one call
(a bit field per variable, too wide to carry) with the coefficients as
integers over one common denominator.  It cancels the monomial content in
that encoding and decodes to ``Mono`` tuples already in normal form, so its
result skips ``JetExpr.__init__``.  It packs in plain loops: under Python 3.11
every comprehension is a function call.  One rule picks its path: an image
whose denominator has several terms, where the order of summation fixes the
normal form, sends the map through a term loop; every other map is packed.

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
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .multiindex import MultiIndex, add as mi_add, order as mi_order, unit

KIND_COEFF = "coeff"
KIND_GAUGE = "gauge"
KIND_PARAM = "param"


class NotLinearError(ValueError):
    """An expression is not of the form A*p + B in a symbol p."""


class _Frozen:
    """Base of the slotted value classes: ``__init__`` sets each slot through
    ``object.__setattr__``, no slot can be assigned or deleted after, and
    two values of one class are equal when their slots are."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


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


def symbol_key(b: BaseSymbol):
    """Sort key of base symbols: kind name, owner vector, then name."""
    return (b.kind, b.vector or (), b.name or "")


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
    # Total order: the base symbol (the kind names sort coeff < gauge <
    # param), then deriv graded lex.
    return symbol_key(v.base) + (mi_order(v.deriv), v.deriv)


# A monomial is a tuple of (JetVariable, exponent) pairs, exponents > 0,
# sorted in natural tuple order.  That order never compares None with a
# tuple: the kind of a symbol fixes which of vector and name is None, and
# the kind is compared first.  The empty tuple is the constant monomial.
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


def _mono_key(m: Mono):
    """Canonical monomial order: graded, then by variable keys."""
    return (-sum(e for _, e in m), tuple(sorted((_var_key(v), -e) for v, e in m)))


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
        return len(self.terms) < 2 and (not self.terms or _ONE_MONO in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get(_ONE_MONO, 0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

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
        if self is _ONE_POLY or other is _ONE_POLY:
            return other if self is _ONE_POLY else self
        out: dict[Mono, int | Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 and m2:
                    d = dict(m1)
                    for v, e in m2:
                        d[v] = d.get(v, 0) + e
                    m = tuple(sorted(d.items()))
                else:
                    m = m1 or m2
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
        out: dict[Mono, int | Fraction] = {}
        ei = unit(dim, i)
        for mono, c in self.terms.items():
            for v, e in mono:
                dv = JetVariable(v.base, mi_add(v.deriv, ei))
                d = dict(mono)
                d[v] -= 1
                d[dv] = d.get(dv, 0) + 1
                m = tuple(sorted(f for f in d.items() if f[1]))
                s = out.get(m, 0) + c * e
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(_settle(out))

    def variables(self) -> set[JetVariable]:
        return {v for m in self.terms for v, _ in m}

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        """The terms in canonical order, each with its factors by _var_key."""
        return [(tuple(sorted(m, key=lambda f: _var_key(f[0]))), c)
                for m, c in sorted(self.terms.items(), key=lambda p: _mono_key(p[0]))]


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
    # the factors of a monomial, filtered in order, stay sorted
    return tuple((common or {}).items())


def _mono_divide(p: Poly, m: Mono) -> Poly:
    if not m:
        return p
    md = dict(m)
    out = {}
    for mono, c in p.terms.items():
        # lowering or dropping factors keeps the rest sorted
        out[tuple((v, e - md.get(v, 0)) for v, e in mono if e != md.get(v))] = c
    return Poly(out)


class JetExpr:
    """Quotient of two jet polynomials in canonical form; ``_jets`` memoizes derive_multi."""

    __slots__ = ("num", "den", "_jets")

    def __init__(self, num: Poly, den: Poly = _ONE_POLY):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Poly(), _ONE_POLY
            return
        if den is not _ONE_POLY and not den.is_const():
            content = _mono_content([num, den])
            if content:
                num = _mono_divide(num, content)
                den = _mono_divide(den, content)
        if den is _ONE_POLY:
            pass
        elif den.is_const():  # given so, or left so by the cancellation
            c = den.terms[_ONE_MONO]
            if c != 1:
                num = num.scale(_inverse(c))
            den = _ONE_POLY
        else:
            _, lead = den.leading()
            if lead != 1:
                inv = _inverse(lead)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num, self.den = num, den

    @staticmethod
    def _canonical(num: Poly, den: Poly) -> "JetExpr":
        """num/den taken as it is: the caller has put it in normal form."""
        e = object.__new__(JetExpr)
        e.num, e.den = num, den
        return e

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
        return self.den is _ONE_POLY and self.num.is_const()

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
            return ONE / self ** (-k)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out if k else ONE

    def scale(self, c) -> "JetExpr":
        return JetExpr(self.num.scale(c), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetExpr):
            return NotImplemented
        return equal(self, other)

    # -- calculus -----------------------------------------------------
    def derive(self, i: int, dim: int) -> "JetExpr":
        if self.den is _ONE_POLY:
            return JetExpr(self.num.derive(i, dim))
        dn = self.num.derive(i, dim)
        dd = self.den.derive(i, dim)
        return JetExpr(dn * self.den - self.num * dd, self.den * self.den)

    def derive_multi(self, deriv: MultiIndex) -> "JetExpr":
        """d^deriv of self, memoized on self: ``derive`` of the derivative with the
        last nonzero index lowered by one, the chain of d_1 first, ..., d_n last."""
        if not any(deriv):
            return self
        try:
            jets = self._jets
        except AttributeError:
            jets = self._jets = {}
        out = jets.get(deriv)
        if out is None:
            j = max(i for i, k in enumerate(deriv) if k)
            lower = self.derive_multi(deriv[:j] + (deriv[j] - 1,) + deriv[j + 1:])
            out = jets[deriv] = lower.derive(j + 1, len(deriv))
        return out

    # -- inspection ---------------------------------------------------
    def variables(self) -> set[JetVariable]:
        return self.num.variables() | self.den.variables()

    def base_symbols(self) -> set[BaseSymbol]:
        return {v.base for v in self.variables()}

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


def substitute(e: JetExpr, bindings: Mapping[BaseSymbol, JetExpr]) -> JetExpr:
    """Simultaneous one-pass substitution of base symbols by expressions.

    Derived jet variables of a bound symbol are replaced by the matching
    derivatives of the binding, so substitution commutes with derive on
    bound symbols.  Bound symbols on a right-hand side denote the original
    symbols, not their bindings: the map is applied once, never iterated.
    e's variables are read once; e itself is returned when none is bound,
    and otherwise each variable's image goes to ``map_jets``.
    """
    variables = e.variables()
    if not any(v.base in bindings for v in variables):
        return e
    images = {}
    for v in variables:
        x = bindings.get(v.base)
        images[v] = JetExpr(Poly.var(v)) if x is None else x.derive_multi(v.deriv)
    return map_jets(e, images)


def map_jets(e: JetExpr, images: Mapping[JetVariable, JetExpr]) -> JetExpr:
    """The ring map sending each jet variable v of e to images[v]; ``images``
    holds exactly the jet variables of e.

    Numerator and denominator are mapped apart and divided, and one rule
    picks the path.  When some image has a denominator of several terms,
    where the order of summation fixes the normal form, the term loop maps
    the terms c * prod v^k one at a time and adds them in order.  Every
    other map, each image denominator 1 or a monomial, takes a polynomial in
    one pass over the monomial lcm M of its term denominators, each term
    adding c * prod num(v)^k * (M / prod den(v)^k) to one numerator over M.
    That pass packs monomials into ints, in an encoding local to this call
    (a bit field per variable of the images, as wide as twice the largest
    sum k * (deg num(v) + deg den(v)) over the terms, so no field can
    carry), sums integer coefficients over one common denominator and keeps
    the term order of the chain of ``Poly.__mul__`` products.  The monomial
    content of numerator over M lies in the fields of M alone: their minimum
    over M and the terms is subtracted before decoding, so the quotient is
    built in normal form without ``JetExpr.__init__``.  Decoding takes the
    highest field first, found by ``int.bit_length``.  The pass runs in
    plain loops, with no Python call per monomial, since in Python 3.11
    each comprehension is one.
    """
    if any(len(x.den.terms) > 1 for x in images.values()):
        def apply(p: Poly) -> JetExpr:
            total = None
            for mono, c in p.terms.items():
                t = None
                for v, k in mono:
                    t = images[v] ** k if t is None else t * images[v] ** k
                if t is None:
                    t = JetExpr.const(c)
                elif c != 1:
                    t = t.scale(c)
                total = t if total is None else total + t
            return ZERO if total is None else total
    else:
        names, under, weight = set(), set(), {}
        for v, x in images.items():
            (den,) = x.den.terms
            names.update(*x.num.terms, den)
            under.update(den)
            most = 0
            for m in x.num.terms:
                k = 0
                for f in m:
                    k += f[1]
                if k > most:
                    most = k
            for f in den:
                most += f[1]
            weight[v] = most
        most = 0
        for m in (*e.num.terms, *e.den.terms):
            k = 0
            for v, j in m:
                k += weight[v] * j
            if k > most:
                most = k
        width = (2 * most).bit_length()
        mask = (1 << width) - 1
        order = sorted({w for w, _ in names})
        shift = {w: i * width for i, w in enumerate(order)}
        code = {f: f[1] << shift[f[0]] for f in names}
        fields = sorted({shift[w] for w, _ in under})
        packed = {}  # v -> (den(v), q, q * num(v)), q the lcm of num(v)'s denominators
        for v, x in images.items():
            q = lcm(*[c.denominator for c in x.num.terms.values()])
            num = {}
            for m, c in x.num.terms.items():
                d = 0
                for f in m:
                    d += code[f]
                num[d] = c if q == 1 else c.numerator * (q // c.denominator)
            d = 0
            for f in next(iter(x.den.terms)):
                d += code[f]
            packed[v] = d, q, num

        def times(a: dict, b: dict) -> dict:  # Poly.__mul__, term order included
            if len(b) == 1:
                (m2, c2), = b.items()
                return {m + m2: c * c2 for m, c in a.items()}
            out = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    s = out.get(m1 + m2, 0) + c1 * c2
                    if s:
                        out[m1 + m2] = s
                    else:
                        del out[m1 + m2]
            return out

        def apply(p: Poly) -> JetExpr:
            rows = []  # per term: its packed and its integer denominator, c, prod num(v)^k
            for mono, c in p.terms.items():
                d, q, t = 0, c.denominator, None
                for f in mono:
                    fd, fq, b = packed[f[0]]
                    for _ in range(f[1] - 1):  # num(v)^k as a chain of products
                        b = times(b, packed[f[0]][2])
                    d += fd * f[1]
                    q *= fq ** f[1]
                    t = b if t is None else times(t, b)
                rows.append((d, q, c, t))
            top = 0
            for s in fields:  # the lcm of the term denominators, field by field
                k = 0
                for d, _, _, _ in rows:
                    if d >> s & mask > k:
                        k = d >> s & mask
                top += k << s
            common = lcm(*[q for _, q, _, _ in rows])
            out: dict[int, int] = {}
            for d, q, c, t in rows:  # c * t * (top / d) over common
                m0, c0 = top - d, c.numerator * (common // q)
                for m, x in ({0: 1} if t is None else t).items():
                    out[m0 + m] = out.get(m0 + m, 0) + c0 * x
            content = 0  # shared by top and every term: Poly has no zero terms
            for s in fields:
                k = top >> s & mask
                for m, x in out.items():
                    if x and m >> s & mask < k:
                        k = m >> s & mask
                content += k << s
            num = {}
            for m, x in out.items():
                if x:  # decode top-down: the highest field first, reversed at the end
                    m -= content
                    mono = []
                    while m:
                        i = (m.bit_length() - 1) // width
                        k = m >> i * width
                        mono.append((order[i], k))
                        m ^= k << i * width
                    mono.reverse()
                    num[tuple(mono)] = x if common == 1 else _exact(Fraction(x, common))
            top -= content
            den = tuple((order[s // width], top >> s & mask) for s in fields if top >> s & mask)
            return JetExpr._canonical(Poly(num), Poly({den: 1}) if den else _ONE_POLY)

    num = apply(e.num)
    return num if e.den is _ONE_POLY else num / apply(e.den)


def linear_parts(e: JetExpr, base: BaseSymbol) -> tuple[JetExpr, JetExpr]:
    """(A, B) with e = A*p + B, where p is the underived jet of ``base``.

    The numerator is split by the degree of p in each term; A and B keep
    the denominator of e.  A term holding a derivative of p (such as p_x)
    is dropped: it is read as p set to a constant, under which such jets
    vanish.  Raises NotLinearError when any jet of p occurs in the
    denominator or p occurs to a power above 1.
    """
    name = base.text()
    if any(v.base == base for v in e.den.variables()):
        raise NotLinearError(f"{name} occurs in the denominator")
    coeff: dict[Mono, int | Fraction] = {}
    rest: dict[Mono, int | Fraction] = {}
    for mono, c in e.num.terms.items():
        power = 0
        for v, k in mono:
            if v.base == base:
                if any(v.deriv):
                    break
                power = k
        else:
            if power > 1:
                raise NotLinearError(f"{name} occurs to the power {power}")
            if power:
                coeff[tuple(vk for vk in mono if vk[0].base != base)] = c
            else:
                rest[mono] = c
    return JetExpr(Poly(coeff), e.den), JetExpr(Poly(rest), e.den)
