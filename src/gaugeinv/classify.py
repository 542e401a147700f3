"""Analysis of a maximally generated class of operators.

A class is specified by its maximal terms: an antichain of multi-indices
with nonzero coefficients (literal constants or symbols).  The term lattice
is the down set of the maximal vectors; every vector is classified as
maximal, submaximal (covered only by maximal vectors), or interior.  The
module builds the rows phi(s) once, decides the two hypotheses of the main
construction — approximately flat and framed — selects a framing set, and
solves the framing system by the same row reduction (``solve_framing``).
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from . import multiindex as mi
from .grammar import InputError, expr_field, parse_expr, print_expr
from .jetalg import JetExpr, KIND_COEFF, KIND_GAUGE, KIND_PARAM, _Frozen, coeff_symbol
from .multiindex import MultiIndex
from .opalg import DiffOperator


class ClassSpecError(InputError):
    """Invalid class specification."""


def _valid_coefficient(c: JetExpr) -> bool:
    """Literal nonzero constant, or a single underived symbol other than g."""
    if c.is_zero():
        return False
    if c.is_const():
        return True
    vs = c.variables()
    if len(vs) != 1:
        return False
    v = next(iter(vs))
    return (v.base.kind != KIND_GAUGE and not any(v.deriv)
            and c == JetExpr.symbol(v.base, v.deriv))


class ClassSpec(_Frozen):
    """Dimension plus the maximal terms (vector, coefficient) of the class;
    ``maximal_set`` holds the maximal vectors and ``parameters`` the named
    parameters among the maximal coefficients (p, q, ...)."""

    __slots__ = ("dimension", "maximal_terms", "maximal_set", "parameters")

    def __init__(self, dimension: int, maximal_terms: tuple[tuple[MultiIndex, JetExpr], ...]):
        if dimension < 1:
            raise ClassSpecError(f"dimension must be >= 1, got {dimension}")
        if not maximal_terms:
            raise ClassSpecError("at least one maximal term is required")
        for v, _ in maximal_terms:
            try:
                mi.check_index(v, dimension)
            except ValueError as exc:
                raise ClassSpecError(f"invalid maximal vector: {exc}") from exc
        maximal_set = frozenset(v for v, _ in maximal_terms)
        if len(maximal_set) != len(maximal_terms):
            raise ClassSpecError("duplicate maximal vectors")
        if not mi.is_antichain(maximal_set):
            raise ClassSpecError("maximal vectors must form an antichain")
        for v, c in maximal_terms:
            if not _valid_coefficient(c):
                raise ClassSpecError(
                    f"coefficient of {v} must be a nonzero constant or a single "
                    "symbol other than g"
                )
            for s in c.base_symbols():
                if s.kind == KIND_COEFF and s.vector not in maximal_set:
                    raise ClassSpecError(
                        f"coefficient {s.text()} of {v} must name a maximal vector"
                    )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "maximal_terms", maximal_terms)
        object.__setattr__(self, "maximal_set", maximal_set)
        object.__setattr__(self, "parameters", frozenset(
            s for _, c in maximal_terms for s in c.base_symbols() if s.kind == KIND_PARAM
        ))

    def maximal_vectors(self) -> list[MultiIndex]:
        return mi.sort_canonical(v for v, _ in self.maximal_terms)

    def coefficient(self, v: MultiIndex) -> JetExpr:
        for w, c in self.maximal_terms:
            if w == tuple(v):
                return c
        raise KeyError(f"{v} is not a maximal vector")

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "maximal_terms": [
                {"vector": list(v), "coefficient": print_expr(c)}
                for v, c in self.maximal_terms
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "ClassSpec":
        try:
            dim = data["dimension"]
            if type(dim) is not int:
                raise TypeError(f"dimension must be an integer, got {dim!r}")
            raw = [(tuple(t["vector"]), expr_field(t["coefficient"]))
                   for t in data["maximal_terms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ClassSpecError(f"malformed class spec: {exc}") from exc
        return ClassSpec(dim, tuple((v, parse_expr(c, dim)) for v, c in raw))

    @staticmethod
    def load(path: str) -> "ClassSpec":
        with open(path) as fh:
            return ClassSpec.from_json(json.load(fh))


class ClassAnalysis(NamedTuple):
    """Term lattice classification and hypothesis flags for a class."""

    spec: ClassSpec
    all_vectors: frozenset[MultiIndex]
    maximal_set: frozenset[MultiIndex]
    submaximal_set: frozenset[MultiIndex]
    interior_set: frozenset[MultiIndex]
    approximately_flat: bool
    flat_witness: tuple[MultiIndex, ...] | None  # s_i with s_i + e_i maximal
    framed: bool
    framing_set: tuple[MultiIndex, ...] | None
    framing_assumptions: tuple[JetExpr, ...]  # the nonconstant pivots, through _dedupe
    phi_rows: dict[MultiIndex, tuple[JetExpr, ...]]  # phi(s) for each submaximal s

    @property
    def dimension(self) -> int:
        return self.spec.dimension

    def to_json(self) -> dict:
        out = {
            "dimension": self.dimension,
            "all_vectors": [list(v) for v in mi.sort_canonical(self.all_vectors)],
            "maximal": [list(v) for v in mi.sort_canonical(self.maximal_set)],
            "submaximal": [list(v) for v in mi.sort_canonical(self.submaximal_set)],
            "interior": [list(v) for v in mi.sort_canonical(self.interior_set)],
            "approximately_flat": self.approximately_flat,
            "framed": self.framed,
        }
        if self.flat_witness is not None:
            out["flat_witness"] = [list(v) for v in self.flat_witness]
        if self.framing_set is not None:
            out["framing_set"] = [list(v) for v in self.framing_set]
        if self.framing_assumptions:
            out["assumptions"] = [print_expr(e) for e in self.framing_assumptions]
        return out


def phi(analysis: ClassAnalysis, v: MultiIndex) -> tuple[JetExpr, ...]:
    """The row phi(v) = sum over {i : v + e_i maximal} of (v(i)+1) a_{v+e_i} e_i."""
    row = analysis.phi_rows.get(tuple(v))
    if row is None:
        raise ValueError(f"{tuple(v)} is not submaximal")
    return row


def _strip_content(e: JetExpr) -> JetExpr:
    """Divide out the rational content (nonvanishing of 2a is that of a)."""
    coeffs = list(e.num.terms.values())
    if not coeffs:
        return e
    num_gcd = 0
    den_lcm = 1
    for c in coeffs:
        num_gcd = math.gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    content = Fraction(num_gcd, den_lcm)
    # sign convention: positive constant term if there is one, else a
    # positive leading monomial (so 1 - 2ab stays put but -a becomes a)
    anchor = () if () in e.num.terms else e.num.leading()[0]
    if e.num.terms[anchor] < 0:
        content = -content
    return e / JetExpr.const(content)


def _dedupe(exprs: Iterable[JetExpr]) -> tuple[JetExpr, ...]:
    """The nonconstant expressions, their content stripped, each once."""
    out: list[JetExpr] = []
    for e in exprs:
        if e.is_const():
            continue
        e = _strip_content(e)
        if not any(e == o for o in out):
            out.append(e)
    return tuple(out)


def _matching_witness(rows, n) -> tuple[MultiIndex, ...] | None:
    """Distinct s_1..s_n in S with s_i + e_i maximal, via augmenting paths;
    s + e_i is maximal iff entry i of phi(s) is nonzero."""
    candidates = {
        i: [s for s in mi.sort_canonical(rows) if not rows[s][i].is_zero()]
        for i in range(n)
    }
    match: dict[MultiIndex, int] = {}

    def augment(i, seen):
        for s in candidates[i]:
            if s in seen:
                continue
            seen.add(s)
            if s not in match or augment(match[s], seen):
                match[s] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return None
    inverse = {i: s for s, i in match.items()}
    return tuple(inverse[i] for i in range(n))


def _framing_order_key(s: MultiIndex, row: tuple[JetExpr, ...]):
    """Prefer rows with a single constant entry, then a single symbolic
    entry, then the rest; canonical vector order within each group.

    This keeps the selected equations as simple as possible (each such row
    determines one g_{x_i} directly) and matches the selections made in
    worked examples.
    """
    nonzero = [e for e in row if not e.is_zero()]
    if len(nonzero) == 1:
        group = 0 if nonzero[0].is_const() else 1
    else:
        group = 2
    return (group, mi.canonical_key(s))


def _reduce_row(row, reduced, assumptions):
    row = list(row)
    for pivot_col, prow in reduced:
        if not row[pivot_col].is_zero():
            factor = row[pivot_col] / prow[pivot_col]
            row = [ri - factor * pi for ri, pi in zip(row, prow)]
    for j, e in enumerate(row):
        if not e.is_zero():
            if not e.is_const():
                assumptions.append(e)
            return j, row
    return None, row


def solve_framing(analysis: ClassAnalysis, rhs: list[JetExpr]) -> list[JetExpr]:
    """Solve phi(s_k) . x = rhs[k] over the framing set s_1..s_n of a
    framed class.

    The rows, extended by rhs, are reduced in the order ``analyze`` chose
    them, so its nonconstant pivots, through ``_dedupe``, are
    ``analysis.framing_assumptions``; x is read off by back substitution."""
    n = analysis.dimension
    reduced: list[tuple[int, list[JetExpr]]] = []
    for s, r in zip(analysis.framing_set, rhs):
        reduced.append(_reduce_row(analysis.phi_rows[s] + (r,), reduced, []))
    x = [None] * n
    for pivot, row in reversed(reduced):
        value = row[n]
        for j in range(n):
            if j != pivot and not row[j].is_zero():
                value = value - row[j] * x[j]
        x[pivot] = value / row[pivot]
    return x


def analyze(spec: ClassSpec) -> ClassAnalysis:
    n = spec.dimension
    maximal = spec.maximal_set
    all_vectors = frozenset(mi.down_set(maximal))
    # a non-maximal vector of a down set has a cover in it
    submaximal = frozenset(
        v for v in all_vectors - maximal
        if all(u in maximal for u in mi.ups(v) if u in all_vectors)
    )
    interior = all_vectors - maximal - submaximal

    rows = {}  # phi(s), kept on the analysis for phi() and solve_framing
    for s in submaximal:
        rows[s] = tuple(spec.coefficient(u).scale(Fraction(k + 1)) if u in maximal
                        else JetExpr.const(0) for k, u in zip(s, mi.ups(s)))
    witness = _matching_witness(rows, n)

    # Greedy framing-set selection: scan S in the preference order, keep a
    # vector iff its phi-row strictly increases the symbolic rank.
    ordered = sorted(submaximal, key=lambda s: _framing_order_key(s, rows[s]))
    reduced: list[tuple[int, list[JetExpr]]] = []
    chosen: list[MultiIndex] = []
    assumptions: list[JetExpr] = []
    for s in ordered:
        if len(chosen) == n:
            break
        trial_assumptions: list[JetExpr] = []
        pivot, row = _reduce_row(rows[s], reduced, trial_assumptions)
        if pivot is not None:
            reduced.append((pivot, row))
            chosen.append(s)
            assumptions.extend(trial_assumptions)
    framed = len(chosen) == n

    return ClassAnalysis(
        spec, all_vectors, maximal, submaximal, interior,
        witness is not None, witness,
        framed, tuple(chosen) if framed else None,
        _dedupe(assumptions) if framed else (), rows,
    )


def class_operator(spec: ClassSpec) -> DiffOperator:
    """The generic operator of the class: maximal coefficients as given,
    one coefficient symbol a_v for every non-maximal lattice vector."""
    n = spec.dimension
    maximal = spec.maximal_set
    terms = {v: spec.coefficient(v) for v in maximal}
    for v in mi.down_set(maximal) - maximal:
        terms[v] = JetExpr.symbol(coeff_symbol(v), dim=n)
    return DiffOperator(n, terms)
