"""Noncommutative algebra of linear differential operators.

An operator is a finite sum sum_v c_v * d^v with JetExpr coefficients c_v.
Multiplication uses the Leibniz expansion

    d^u o f = sum_{b <= u} C(u, b) (d^b f) d^(u-b),

with multinomial binomials C(u, b) = prod binom(u_i, b_i).  The gauge action
L -> e^{-g} L e^g is realized by substituting d_i -> d_i + g_{x_i} in every
monomial and expanding.
"""
from __future__ import annotations

import json
from itertools import product as _cartesian
from math import comb
from typing import Iterable, Mapping, NamedTuple

from . import multiindex as mi
from .grammar import InputError, parse_expr, print_expr
from .jetalg import (
    BaseSymbol,
    JetExpr,
    JetVariable,
    ONE,
    Poly,
    _Frozen,
    gauge_symbol,
    substitute,
)
from .multiindex import DimensionMismatchError, MultiIndex


class GaugeSymbolPresentError(InputError):
    """An input operator, template or expression already contains g."""


class OperatorSpecError(InputError):
    """A malformed operator or template input."""


def _clean(terms: Mapping[MultiIndex, JetExpr]) -> dict[MultiIndex, JetExpr]:
    return {v: c for v, c in terms.items() if not c.is_zero()}


class DiffOperator(_Frozen):
    """Finite map MultiIndex -> JetExpr; zero coefficients are dropped."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, JetExpr] | None = None):
        terms = {} if terms is None else terms
        for v in terms:
            mi.check_index(v, dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", _clean(terms))

    @staticmethod
    def zero(dim: int) -> "DiffOperator":
        return DiffOperator(dim, {})

    @staticmethod
    def identity(dim: int) -> "DiffOperator":
        return DiffOperator(dim, {(0,) * dim: ONE})

    def coefficient(self, v: MultiIndex) -> JetExpr:
        return self.terms.get(tuple(v), JetExpr.const(0))

    def support(self) -> set[MultiIndex]:
        return set(self.terms)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"{self.dim} vs {other.dim}")
        out = dict(self.terms)
        for v, c in other.terms.items():
            out[v] = out[v] + c if v in out else c
        return DiffOperator(self.dim, out)

    def __neg__(self) -> "DiffOperator":
        return DiffOperator(self.dim, {v: -c for v, c in self.terms.items()})

    def __sub__(self, other: "DiffOperator") -> "DiffOperator":
        return self + (-other)

    def left_scale(self, f: JetExpr) -> "DiffOperator":
        """Left multiplication by the function f (coefficient-wise)."""
        return DiffOperator(self.dim, {v: f * c for v, c in self.terms.items()})

    def __mul__(self, other: "DiffOperator") -> "DiffOperator":
        return op_mul(self, other)

    def base_symbols(self) -> set[BaseSymbol]:
        out: set[BaseSymbol] = set()
        for c in self.terms.values():
            out |= c.base_symbols()
        return out

    def substitute(self, bindings: Mapping[BaseSymbol, JetExpr]) -> "DiffOperator":
        return DiffOperator(
            self.dim, {v: substitute(c, bindings) for v, c in self.terms.items()}
        )

    def to_json(self) -> list[dict]:
        return [
            {"vector": list(v), "coeff": print_expr(self.terms[v])}
            for v in mi.sort_canonical(self.terms)
        ]

    @staticmethod
    def from_json(data: list[dict]) -> "DiffOperator":
        if not data:
            raise OperatorSpecError("empty operator serialization")
        try:
            dim = len(data[0]["vector"])
            entries = [(tuple(e["vector"]), str(e["coeff"])) for e in data]
            for v, _ in entries:
                mi.check_index(v, dim)
        except (KeyError, TypeError, ValueError) as exc:
            raise OperatorSpecError(f"malformed operator: {exc}") from exc
        terms = {}
        for v, c in entries:
            if v in terms:
                raise OperatorSpecError(f"duplicate vector {v}")
            terms[v] = parse_expr(c, dim)
        return DiffOperator(dim, terms)

    def __repr__(self):
        return f"DiffOperator({json.dumps(self.to_json())})"


def op_mul(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Noncommutative product of differential operators.  A Leibniz term with
    jet d^beta h = 0 only places its key and one with the shared jet ``ONE`` is
    f: x + 0 and f * 1 are x and f term for term, so the sum's order is kept."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{a.dim} vs {b.dim}")
    dim = a.dim
    out: dict[MultiIndex, JetExpr] = {}
    for u, f in a.terms.items():
        for w, h in b.terms.items():
            for beta in _cartesian(*(range(x + 1) for x in u)):
                vec = tuple(ui - bi + wi for ui, bi, wi in zip(u, beta, w))
                jet = h.derive_multi(beta)
                if jet.is_zero():
                    out.setdefault(vec, jet)
                    continue
                binom = 1
                for ui, bi in zip(u, beta):
                    binom *= comb(ui, bi)
                c = f if jet is ONE else f * jet
                if binom != 1:
                    c = c.scale(binom)
                out[vec] = out[vec] + c if vec in out else c
    return DiffOperator(dim, out)


def gauge(L: DiffOperator) -> DiffOperator:
    """The gauge action L -> e^{-g} L e^g.

    Each monomial c d^v becomes c * prod_i (d_i + g_{x_i})^{v_i}; the
    factors commute among themselves, so the order of the product is
    immaterial.  Higher derivatives of g appear automatically through the
    Leibniz rule.
    """
    gsym = gauge_symbol()
    if gsym in L.base_symbols():
        raise GaugeSymbolPresentError("operator already contains 'g'")
    dim = L.dim
    shifted: list[DiffOperator] = []
    for i in range(1, dim + 1):
        gx = JetExpr(Poly.var(JetVariable(gsym, mi.unit(dim, i))))
        shifted.append(DiffOperator(dim, {mi.unit(dim, i): ONE, (0,) * dim: gx}))
    # B_v = prod_i (d_i + g_{x_i})^{v_i}, multiplied left to right; B_v is
    # B_{v-e_j} times the factor of its last nonzero index j.
    products = {(0,) * dim: DiffOperator.identity(dim)}

    def b(v: MultiIndex) -> DiffOperator:
        r = products.get(v)
        if r is None:
            j = max(i for i, k in enumerate(v) if k)
            r = products[v] = op_mul(b(v[:j] + (v[j] - 1,) + v[j + 1:]), shifted[j])
        return r

    total = DiffOperator.zero(dim)
    for v, c in L.terms.items():
        total = total + b(v).left_scale(c)
    return total


class Factor(NamedTuple):
    """One factor (d^w1 + d^w2 + ... + shift) of a template.

    Most factors have a single derivative power (d_x + q), but sums such
    as (d_x + d_y + r) are allowed.
    """

    powers: tuple[MultiIndex, ...]
    shift: JetExpr

    @staticmethod
    def single(power: MultiIndex, shift: JetExpr) -> "Factor":
        return Factor((tuple(power),), shift)

    def as_operator(self, dim: int) -> DiffOperator:
        terms: dict[MultiIndex, JetExpr] = {}
        for w in self.powers:
            mi.check_index(w, dim)
            terms[w] = terms[w] + ONE if w in terms else ONE
        zero = (0,) * dim
        if not self.shift.is_zero():
            terms[zero] = terms[zero] + self.shift if zero in terms else self.shift
        return DiffOperator(dim, terms)


class FactorTemplate(NamedTuple):
    """Ordered product prefactor * (d^w1 + q1) ... (d^wk + qk), an immutable
    value; the prefactor defaults to the shared constant ONE."""

    dim: int
    factors: tuple[Factor, ...]
    prefactor: JetExpr = ONE

    def text(self) -> str:
        parts = []
        if not (self.prefactor.is_const() and not self.prefactor.is_zero()
                and self.prefactor.const_value() == 1):
            parts.append(f"({print_expr(self.prefactor)})")
        for f in self.factors:
            terms = ["d[" + ",".join(map(str, w)) + "]" for w in f.powers]
            if not f.shift.is_zero():
                terms.append(print_expr(f.shift))
            parts.append("(" + " + ".join(terms) + ")")
        return "".join(parts) if parts else "1"


def expand_template(t: FactorTemplate) -> DiffOperator:
    """Full noncommutative expansion of the ordered product.

    A template with no factors expands to the zero operator (an "empty"
    template contributes nothing to a sum of templates).
    """
    if not t.factors:
        return DiffOperator.zero(t.dim)
    out = DiffOperator.identity(t.dim)
    for f in t.factors:
        out = op_mul(out, f.as_operator(t.dim))
    return out.left_scale(t.prefactor)


def expand_sum(templates: Iterable[FactorTemplate]) -> DiffOperator:
    templates = list(templates)
    if not templates:
        raise OperatorSpecError("empty template sum")
    total = DiffOperator.zero(templates[0].dim)
    for t in templates:
        total = total + expand_template(t)
    return total
