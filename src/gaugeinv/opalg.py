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
from dataclasses import dataclass, field
from itertools import product as _cartesian
from math import comb
from typing import Iterable, Mapping

from . import multiindex as mi
from .jetalg import (
    BaseSymbol,
    JetExpr,
    JetVariable,
    KIND_GAUGE,
    ONE,
    Poly,
    gauge_symbol,
)
from .multiindex import DimensionMismatchError, MultiIndex


class GaugeSymbolPresentError(ValueError):
    """The operator already contains the gauge symbol."""


def _clean(terms: Mapping[MultiIndex, JetExpr]) -> dict[MultiIndex, JetExpr]:
    return {v: c for v, c in terms.items() if not c.is_zero()}


@dataclass(frozen=True)
class DiffOperator:
    """Finite map MultiIndex -> JetExpr; zero coefficients are dropped."""

    dim: int
    terms: dict[MultiIndex, JetExpr] = field(default_factory=dict)

    def __post_init__(self):
        for v in self.terms:
            mi.check_index(v, self.dim)
        object.__setattr__(self, "terms", _clean(self.terms))

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

    def order(self) -> int:
        return max((mi.order(v) for v in self.terms), default=0)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.dim != other.dim or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[v] == other.terms[v] for v in self.terms)

    __hash__ = None

    def base_symbols(self) -> set[BaseSymbol]:
        out: set[BaseSymbol] = set()
        for c in self.terms.values():
            out |= c.base_symbols()
        return out

    def substitute(self, bindings: Mapping[BaseSymbol, JetExpr]) -> "DiffOperator":
        from .jetalg import substitute
        return DiffOperator(
            self.dim, {v: substitute(c, bindings) for v, c in self.terms.items()}
        )

    def to_json(self) -> list[dict]:
        from .grammar import print_expr
        return [
            {"vector": list(v), "coeff": print_expr(self.terms[v])}
            for v in mi.sort_canonical(self.terms)
        ]

    @staticmethod
    def from_json(data: list[dict]) -> "DiffOperator":
        from .grammar import parse_expr
        if not data:
            raise ValueError("empty operator serialization")
        dim = len(data[0]["vector"])
        terms = {}
        for entry in data:
            v = tuple(entry["vector"])
            mi.check_index(v, dim)
            if v in terms:
                raise ValueError(f"duplicate vector {v}")
            terms[v] = parse_expr(entry["coeff"], dim)
        return DiffOperator(dim, terms)

    def __repr__(self):
        return f"DiffOperator({json.dumps(self.to_json())})"


def op_mul(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """Noncommutative product of differential operators."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{a.dim} vs {b.dim}")
    dim = a.dim
    out: dict[MultiIndex, JetExpr] = {}
    # d^beta h depends only on (w, beta), not on the left term u.
    jets: dict[tuple[MultiIndex, MultiIndex], JetExpr] = {}
    for u, f in a.terms.items():
        for w, h in b.terms.items():
            for beta in _cartesian(*(range(x + 1) for x in u)):
                binom = 1
                for ui, bi in zip(u, beta):
                    binom *= comb(ui, bi)
                if (w, beta) not in jets:
                    jets[w, beta] = h.derive_multi(beta)
                c = f * jets[w, beta]
                if binom != 1:
                    c = c.scale(binom)
                vec = tuple(ui - bi + wi for ui, bi, wi in zip(u, beta, w))
                out[vec] = out[vec] + c if vec in out else c
    return DiffOperator(dim, out)


def gauge(L: DiffOperator, gauge_name: str = "g") -> DiffOperator:
    """The gauge action L -> e^{-g} L e^g.

    Each monomial c d^v becomes c * prod_i (d_i + g_{x_i})^{v_i}; the
    factors commute among themselves, so the order of the product is
    immaterial.  Higher derivatives of g appear automatically through the
    Leibniz rule.
    """
    gsym = gauge_symbol(gauge_name)
    if any(s.kind == KIND_GAUGE and s.name == gauge_name for s in L.base_symbols()):
        raise GaugeSymbolPresentError(f"operator already contains {gauge_name!r}")
    dim = L.dim
    shifted: list[DiffOperator] = []
    for i in range(1, dim + 1):
        gx = JetExpr(Poly.var(JetVariable(gsym, mi.unit(dim, i))))
        shifted.append(DiffOperator(dim, {mi.unit(dim, i): ONE, (0,) * dim: gx}))
    cache: dict[MultiIndex, DiffOperator] = {}

    def power_product(v: MultiIndex) -> DiffOperator:
        if v not in cache:
            out = DiffOperator.identity(dim)
            for i, k in enumerate(v):
                for _ in range(k):
                    out = op_mul(out, shifted[i])
            cache[v] = out
        return cache[v]

    total = DiffOperator.zero(dim)
    for v, c in L.terms.items():
        total = total + power_product(v).left_scale(c)
    return total


@dataclass(frozen=True)
class Factor:
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
            terms[w] = terms.get(w, JetExpr.const(0)) + ONE
        zero = (0,) * dim
        if not self.shift.is_zero():
            terms[zero] = terms.get(zero, JetExpr.const(0)) + self.shift
        return DiffOperator(dim, terms)


@dataclass(frozen=True)
class FactorTemplate:
    """Ordered product prefactor * (d^w1 + q1) ... (d^wk + qk)."""

    dim: int
    factors: tuple[Factor, ...]
    # JetExpr is unhashable by design, so dataclasses (3.11+) rejects it
    # as a plain default; the factory hands out the shared constant ONE.
    prefactor: JetExpr = field(default_factory=lambda: ONE)

    def text(self) -> str:
        from .grammar import print_expr
        parts = []
        if not (self.prefactor.is_const() and not self.prefactor.is_zero()
                and self.prefactor.const_value() == 1):
            parts.append(f"({print_expr(self.prefactor)})")
        for f in self.factors:
            d = " + ".join("d[" + ",".join(map(str, w)) + "]" for w in f.powers)
            if f.shift.is_zero():
                parts.append(f"({d})")
            else:
                parts.append(f"({d} + {print_expr(f.shift)})")
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
        raise ValueError("empty template sum")
    total = DiffOperator.zero(templates[0].dim)
    for t in templates:
        total = total + expand_template(t)
    return total
