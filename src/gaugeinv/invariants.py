"""Construction of complete sets of gauge invariants.

Four kinds of invariants are produced for a maximally generated,
approximately flat, framed class:

* maximal — the coefficients of the maximal terms themselves;
* extra — one per redundant submaximal gauge equation (s - n of them);
* compatibility — one per variable pair, from equating mixed partials of
  the solved g_{x_i} expressions (n(n-1)/2 of them);
* upward — one per interior vector v, of the form a_v - E, obtained from
  an incomplete factorization L = C + N.

The framing system Delta a_s = phi(s) . grad g is solved by
``classify.solve_framing`` with the a_s on the right, so the gradient is in
the framing coefficients.  Upward invariants come either from the generic
constructor (the C_m sum of shifted-factor products plus B_w correction
operators, whose shifts c_i are the gradient under one simultaneous
substitution of the a_s) or from a user-supplied staged template; every
other parameter is forced one target coefficient at a time.  A recursion
for the bottom invariant of the totally hyperbolic class in any dimension
is also provided.
"""
from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, NamedTuple, Sequence

from . import jetalg
from . import multiindex as mi
from .classify import ClassAnalysis, ClassSpec, ClassSpecError, analyze, class_operator
from .classify import _dedupe, phi, solve_framing
from .grammar import InputError, print_expr
from .jetalg import (
    BaseSymbol,
    JetExpr,
    KIND_GAUGE,
    KIND_PARAM,
    ONE,
    _Frozen,
    coeff_symbol,
    param_symbol,
    substitute,
)
from .multiindex import MultiIndex
from .opalg import (
    DiffOperator,
    Factor,
    FactorTemplate,
    GaugeSymbolPresentError,
    expand_sum,
    expand_template,
)
from .verify import DeltaContext, is_invariant


class HypothesisError(InputError):
    """A hypothesis of the main construction fails for this class."""


class NotApproximatelyFlatError(HypothesisError):
    pass


class NotFramedError(HypothesisError):
    pass


class SolveError(InputError):
    """A parameter solve is not uniquely possible."""


class TemplateNotClosedError(InputError):
    """A staged record proved with check_closure has a nonzero Delta: the
    template family is not closed under gauge transformations for it."""


def _vec_tag(v: MultiIndex) -> str:
    return "".join(map(str, v)) if all(x < 10 for x in v) else ",".join(map(str, v))


def _var_names(n: int) -> list[str]:
    return ["x", "y", "z"][:n] if n <= 3 else [f"x{i}" for i in range(1, n + 1)]


class Representation(NamedTuple):
    """An incomplete factorization L = C + N backing an upward invariant."""

    templates: tuple[FactorTemplate, ...]
    bindings: dict[BaseSymbol, JetExpr]

    def to_json(self) -> dict:
        return {
            "template": " + ".join(t.text() for t in self.templates),
            "bindings": {
                s.text(): print_expr(e)
                for s, e in sorted(self.bindings.items(), key=lambda p: p[0].text())
            },
        }


class InvariantRecord(_Frozen):
    """One invariant: its kind (maximal, extra, compatibility or upward),
    label, expression and the assumptions it holds under."""

    __slots__ = ("kind", "label", "expression", "assumptions", "target_vector",
                 "representation")

    def __init__(self, kind: str, label: str, expression: JetExpr,
                 assumptions: tuple[JetExpr, ...] = (), target_vector: MultiIndex | None = None,
                 representation: Representation | None = None):
        if any(s.kind == KIND_GAUGE for s in expression.base_symbols()):
            raise GaugeSymbolPresentError(f"invariant {label} contains the gauge symbol")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "expression", expression)
        object.__setattr__(self, "assumptions", assumptions)
        object.__setattr__(self, "target_vector", target_vector)
        object.__setattr__(self, "representation", representation)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "label": self.label,
            "expression": print_expr(self.expression),
            "assumptions": [print_expr(a) for a in self.assumptions],
        }
        if self.target_vector is not None:
            out["target_vector"] = list(self.target_vector)
        if self.representation is not None:
            out["representation"] = self.representation.to_json()
        return out


# The parameters of a class (symbolic maximal coefficients such as p, q
# in the five-order 3D class) are legitimate constituents of invariants;
# solver parameters are not, and must never leak into records.


def _solver_params(expr: JetExpr, class_params: frozenset[BaseSymbol]) -> set[BaseSymbol]:
    """The parameters of expr that are not parameters of the class."""
    return {
        s for s in expr.base_symbols()
        if s.kind == KIND_PARAM and s not in class_params
    }


def _upward_record(
    v: MultiIndex,
    expr: JetExpr,
    assumptions: tuple[JetExpr, ...],
    rep: Representation,
    class_params: frozenset[BaseSymbol],
) -> InvariantRecord:
    """The upward record a_v - E at v; raises SolveError when a solver
    parameter is left in expr."""
    label = f"I_{{{_vec_tag(v)}}}"
    bad = _solver_params(expr, class_params)
    if bad:
        raise SolveError(
            f"invariant {label} contains unresolved parameters: "
            + ", ".join(sorted(b.text() for b in bad))
        )
    return InvariantRecord(
        "upward", label, expr, assumptions, target_vector=v, representation=rep
    )


class GradientSolution(NamedTuple):
    """The solved framing system Delta a_s = phi(s) . grad g, a_s for Delta a_s."""

    analysis: ClassAnalysis
    gradient: tuple[JetExpr, ...]  # g_{x_i} in the framing coefficients a_s
    residual_vectors: tuple[MultiIndex, ...]
    assumptions: tuple[JetExpr, ...]


def solve_gradient(analysis: ClassAnalysis) -> GradientSolution:
    """Determine grad g in the framing coefficients a_s by
    ``classify.solve_framing``; the assumptions are the framing assumptions
    of ``analyze``.

    Raises ClassSpecError when a class parameter is named like a parameter
    of the construction (c_i, p_u or q_w), as it would be that symbol."""
    if not analysis.approximately_flat:
        raise NotApproximatelyFlatError("class is not approximately flat")
    if not analysis.framed:
        rows = "; ".join(
            f"phi{s} = ({', '.join(print_expr(e) for e in analysis.phi_rows[s])})"
            for s in mi.sort_canonical(analysis.submaximal_set)
        )
        raise NotFramedError(f"class is not framed; phi-vectors: {rows}")
    chosen = analysis.framing_set
    gradient = solve_framing(
        analysis, [JetExpr.symbol(coeff_symbol(s), dim=analysis.dimension) for s in chosen]
    )
    residual = tuple(
        s for s in mi.sort_canonical(analysis.submaximal_set) if s not in chosen
    )
    own = {_c_param(i) for i in range(1, analysis.dimension + 1)}
    own |= {_p_param(u) for u in residual} | {_q_param(w) for w in analysis.interior_set}
    clash = sorted(s.text() for s in own & analysis.spec.parameters)
    if clash:
        raise ClassSpecError(
            f"class parameter {', '.join(clash)} is also a parameter of the construction"
        )
    return GradientSolution(analysis, tuple(gradient), residual, analysis.framing_assumptions)


def maximal_invariants(spec: ClassSpec) -> list[InvariantRecord]:
    return [
        InvariantRecord(
            "maximal",
            f"I_max{{{_vec_tag(v)}}}",
            spec.coefficient(v),
            target_vector=v,
        )
        for v in spec.maximal_vectors()
    ]


def extra_invariants(sol: GradientSolution) -> list[InvariantRecord]:
    """One invariant per redundant submaximal equation.

    For a residual submaximal vector v, substituting the solved gradient
    into Delta a_v = phi(v) . grad g yields a linear relation among the
    Delta a_u with invariant coefficients, so a_v - phi(v) . grad g is an
    invariant.  When phi(v) has a single nonzero entry kappa the relation
    is divided by kappa, which reproduces the quotient forms used for
    symbolic maximal coefficients (e.g. a_220/p - a_112/3).
    """
    an = sol.analysis
    records = []
    for v in sol.residual_vectors:
        row = phi(an, v)
        raw = JetExpr.symbol(coeff_symbol(v), dim=an.dimension)
        for entry, g in zip(row, sol.gradient):
            raw = raw - entry * g
        nonzero = [e for e in row if not e.is_zero()]
        kappa = nonzero[0] if len(nonzero) == 1 else ONE
        assumptions = _dedupe(list(sol.assumptions) + [kappa])
        records.append(InvariantRecord(
            "extra", f"I_e{{{_vec_tag(v)}}}", raw / kappa, assumptions, target_vector=v
        ))
    return records


def compatibility_invariants(sol: GradientSolution) -> list[InvariantRecord]:
    """d_j(g_{x_i}) - d_i(g_{x_j}) = 0 rearranged, for each pair i < j."""
    dim = sol.analysis.dimension
    names = _var_names(dim)
    records = []
    for i in range(dim):
        for j in range(i + 1, dim):
            records.append(
                InvariantRecord(
                    "compatibility",
                    f"I_c({names[i]},{names[j]})",
                    sol.gradient[i].derive(j + 1, dim) - sol.gradient[j].derive(i + 1, dim),
                    sol.assumptions,
                )
            )
    return records


# ---------------------------------------------------------------------------
# The generic C_m construction (sum of shifted-factor products).
# ---------------------------------------------------------------------------


def _least_cover(
    vectors: Iterable[MultiIndex], above: frozenset[MultiIndex]
) -> dict[MultiIndex, MultiIndex]:
    """Each vector to the lexicographically smallest vector of ``above``
    that covers it: the map f : S' -> M on the residual submaximal vectors,
    and f : V -> lattice on the interior ones with the non-maximal above."""
    return {v: min(u for u in above if mi.covers(u, v)) for v in vectors}


def _c_param(i: int) -> BaseSymbol:
    return param_symbol(f"c{i}")


def _p_param(v: MultiIndex) -> BaseSymbol:
    return param_symbol("p" + "_".join(map(str, v)))


def _q_param(v: MultiIndex) -> BaseSymbol:
    return param_symbol("q" + "_".join(map(str, v)))


def _c_factors(n: int, counts: Sequence[int]) -> list[Factor]:
    """prod_i (d_{x_i} + c_i)^{counts(i)}, as its first-order factors."""
    factors = []
    for i in range(1, n + 1):
        ci = JetExpr.symbol(_c_param(i), dim=n)
        factors.extend([Factor.single(mi.unit(n, i), ci)] * counts[i - 1])
    return factors


def _cm_templates(sol: GradientSolution) -> tuple[FactorTemplate, ...]:
    """The shifted-factor products of C_m, one per maximal vector."""
    analysis = sol.analysis
    n = analysis.dimension
    f = _least_cover(sol.residual_vectors, analysis.maximal_set)
    templates = []
    for m in mi.sort_canonical(analysis.maximal_set):
        lower = {i: tuple(a - b for a, b in zip(m, mi.unit(n, i))) for i in range(1, n + 1)}
        # S_m: the directions i with m - e_i residual and f(m - e_i) = m
        S_m = [i for i, v in lower.items() if f.get(v) == m]
        factors = _c_factors(n, [k - (i in S_m) for i, k in enumerate(m, start=1)])
        factors += [
            Factor.single(mi.unit(n, i), JetExpr.symbol(_p_param(lower[i]), dim=n))
            for i in S_m
        ]
        templates.append(FactorTemplate(n, tuple(factors), analysis.spec.coefficient(m)))
    return tuple(templates)


def build_Cm(
    analysis: ClassAnalysis,
) -> tuple[tuple[FactorTemplate, ...], dict[BaseSymbol, JetExpr], tuple[JetExpr, ...]]:
    """The class C_m zeroing all maximal and submaximal terms.

    Returns (templates, parameter bindings, assumptions).  The c_i are read
    off the gradient solution and each p_v zeroes the coefficient of
    L - C_m at its residual submaximal vector v.  Raises
    NotApproximatelyFlatError / NotFramedError as ``solve_gradient`` does.
    """
    parts = _GenericParts(solve_gradient(analysis))
    bindings, assumptions = parts.solve(())
    return parts.templates, bindings, assumptions


def _solve_param_linear(eq: JetExpr, param: BaseSymbol) -> tuple[JetExpr, JetExpr]:
    """Solve eq == 0 for param, requiring eq to be linear in it.

    The numerator of eq is split as A*param + B (``jetalg.linear_parts``);
    the value is -B/A and A is returned as the pivot coefficient.  Raises
    SolveError when param occurs to a power above 1, in the denominator,
    or not at all.

    Terms holding a derivative of param (param_x, ...) are dropped, as if
    param were a constant.  That is wrong when the derivative matters: on
    the class d_xx with the templates d_x(d_x + p) and (1 + p) it binds
    p = a[0] - 1 and the emitted record is not invariant.  Such equations
    should raise instead; ROADMAP item 3a tracks the fix.
    """
    try:
        coeff, rest = jetalg.linear_parts(eq, param)
    except jetalg.NotLinearError as exc:
        raise SolveError(f"equation is not linear in {param.text()}: {exc}") from None
    if coeff.is_zero():
        raise SolveError(f"parameter {param.text()} does not occur in its equation")
    return -rest / coeff, coeff


def _solve_targets(
    coefficient: Callable[[MultiIndex], JetExpr],
    targets: Iterable[MultiIndex],
    params: set[BaseSymbol],
    bindings: dict[BaseSymbol, JetExpr],
) -> list[JetExpr]:
    """Bind every parameter in params so that an operator D vanishes at
    every target; ``coefficient`` gives D's coefficient at a target.

    The pending targets are swept in order: a target whose coefficient in
    D, under the bindings so far, holds exactly one unbound parameter binds
    it by ``_solve_param_linear``; one holding none must vanish; one
    holding several waits for a later sweep.  A sweep that binds nothing
    leaves the next one the same, so len(pending) sweeps solve whatever can
    be solved.  ``bindings`` grows in place and the non-constant pivots are
    returned as assumptions.  Raises SolveError when a target cannot be
    zeroed, when a target is left after the sweeps, or when a parameter is
    left undetermined.
    """
    assumptions: list[JetExpr] = []
    pending = list(dict.fromkeys(targets))
    for _ in range(len(pending)):
        for t in list(pending):
            eq = substitute(coefficient(t), bindings)
            present = {
                s for s in eq.base_symbols() if s in params and s not in bindings
            }
            if len(present) > 1:
                continue
            if present:
                (param,) = present
                value, pivot = _solve_param_linear(eq, param)
                bindings[param] = value
                if not pivot.is_const():
                    assumptions.append(pivot)
            elif not eq.is_zero():
                raise SolveError(
                    f"target {t} cannot be zeroed: residual {print_expr(eq)}"
                )
            pending.remove(t)
    if pending:
        raise SolveError(
            "stage not uniquely solvable; unresolved targets "
            + ", ".join(map(str, pending))
        )
    unsolved = params - set(bindings)
    if unsolved:
        raise SolveError(
            "stage leaves parameters undetermined: "
            + ", ".join(sorted(s.text() for s in unsolved))
        )
    return assumptions


class _GenericParts:
    """The operators of the generic construction that do not depend on the
    interior vector, built once per call (each B_w on first use) on the
    gradient solution, off which every solve reads the c_i; the solve of
    each distinct W is made once and shared by the vectors below it."""

    def __init__(self, sol: GradientSolution):
        analysis = sol.analysis
        self.sol = sol
        self.analysis = analysis
        self.templates = _cm_templates(sol)
        self.expanded = expand_sum(self.templates)
        self.L = class_operator(analysis.spec)
        self.fint = _least_cover(
            analysis.interior_set, analysis.all_vectors - analysis.maximal_set
        )
        self.interior = mi.sort_canonical(analysis.interior_set)
        self.b_parts: dict[MultiIndex, tuple[FactorTemplate, DiffOperator]] = {}
        self.solves: dict[tuple[MultiIndex, ...], tuple] = {}

    def b_part(self, w: MultiIndex) -> tuple[FactorTemplate, DiffOperator]:
        """B_w = (d_{x_j} + q_w) prod_i (d_{x_i} + c_i)^{w(i)} and its expansion."""
        if w not in self.b_parts:
            n = self.analysis.dimension
            j = next(
                i for i in range(1, n + 1)
                if mi.add(w, mi.unit(n, i)) == self.fint[w]
            )
            qw = Factor.single(mi.unit(n, j), JetExpr.symbol(_q_param(w), dim=n))
            t = FactorTemplate(n, (qw, *_c_factors(n, w)))
            self.b_parts[w] = (t, expand_template(t))
        return self.b_parts[w]

    def coefficient(self, W: Sequence[MultiIndex], t: MultiIndex) -> JetExpr:
        """(L - C)_t, C = C_m + sum of the B_w over W, by the additions of the
        operator sums at t: C_m, each B_w in W's order, then L + (-C); W's
        order fixes every record's terms.  Where a sum cancels, the operator
        drops it and this keeps a 0, but 0 + x and x - 0 are x term for term."""
        c = self.expanded.terms.get(t)
        for b in (self.b_part(w)[1].terms.get(t) for w in W):
            if b is not None:
                c = b if c is None else c + b
        if c is None:
            return self.L.coefficient(t)
        return self.L.terms[t] + (-c) if t in self.L.terms else -c

    def solve(
        self, W: tuple[MultiIndex, ...]
    ) -> tuple[dict[BaseSymbol, JetExpr], tuple[JetExpr, ...]]:
        """Bindings and assumptions making D = L - C_m - sum of the B_w over
        W vanish on the maximal and submaximal vectors and on W.

        The c_i solve the framing system with (L - sum of B_w)_s for a_s,
        so they are the gradient, with its assumptions, under the one
        simultaneous substitution a_s -> (L - sum of B_w)_s, bound only
        where some B_w has a term at s (``substitute`` never iterates, so
        a_s may occur on the right); ``_solve_targets`` then forces the p_v
        of the residual submaximal vectors and the q_w.
        """
        sol = self.sol
        rhs = {}
        for s in self.analysis.framing_set:
            c = a_s = self.L.coefficient(s)
            for b in (self.b_part(w)[1].terms.get(s) for w in W):
                c = c if b is None else c - b  # x - 0 is x
            if c is not a_s:  # no B_w has a term at s: a_s -> a_s is the identity
                rhs[coeff_symbol(s)] = c
        bindings = {
            _c_param(i + 1): substitute(g, rhs) for i, g in enumerate(sol.gradient)
        }
        params = {_p_param(u) for u in sol.residual_vectors}
        params |= {_q_param(w) for w in W}
        targets = sol.residual_vectors + W
        pivots = _solve_targets(lambda t: self.coefficient(W, t), targets, params, bindings)
        return bindings, _dedupe(sol.assumptions + tuple(pivots))

    def upward(self, v: MultiIndex) -> InvariantRecord:
        W = tuple(w for w in self.interior if mi.below(v, w))
        if W not in self.solves:
            self.solves[W] = self.solve(W)
        bindings, assumptions = self.solves[W]
        templates = self.templates + tuple(self.b_part(w)[0] for w in W)
        return _upward_record(
            v,
            substitute(self.coefficient(W, v), bindings),
            assumptions,
            Representation(templates, bindings),
            self.analysis.spec.parameters,
        )


def upward_invariant_generic(
    analysis: ClassAnalysis, v: MultiIndex
) -> InvariantRecord:
    """Upward invariant for the interior vector v by the generic method.

    Forms C = C_m + sum of B_w over interior w strictly above v, where
    B_w = (d_{x_j} + q_w) prod_i (d_{x_i} + c_i)^{w(i)} and f(w) = w + e_j
    is the lexicographically smallest non-maximal cover of w.  The c_i are
    read off the gradient solution; the p_u and then the q_w are forced
    one at a time so that L - C vanishes on the maximal and submaximal
    vectors and on each such w.  Only the solve depends on v, through W;
    ``complete_set`` shares the operators and the solve of each W among all
    interior vectors and gives the same record for each.
    """
    v = tuple(v)
    if v not in analysis.interior_set:
        raise ValueError(f"{v} is not an interior vector")
    return _GenericParts(solve_gradient(analysis)).upward(v)


# ---------------------------------------------------------------------------
# Staged user-template engine.
# ---------------------------------------------------------------------------


def upward_invariants_from_template(
    analysis: ClassAnalysis,
    stages: Sequence[Sequence[FactorTemplate]],
    stage_targets: Sequence[Sequence[MultiIndex]],
    check_closure: bool = False,
) -> list[InvariantRecord]:
    """Run the staged elimination of Examples 4.x style constructions.

    Stage k subtracts the cumulative template sum from the generic class
    operator and re-solves all template parameters so that every
    cumulative target coefficient vanishes; each solve step must find an
    equation that is linear in exactly one undetermined parameter.  The
    coefficients at maximal vectors of the remaining support then become
    upward invariants.

    With check_closure, every record is proved by Delta after the last
    stage (``verify.is_invariant``); the first whose Delta does not vanish
    raises TemplateNotClosedError with its residual.  Without it, nothing is.
    """
    if len(stages) != len(stage_targets):
        raise ValueError("stages and stage_targets must have equal length")
    class_params = analysis.spec.parameters
    L = class_operator(analysis.spec)
    records: list[InvariantRecord] = []
    emitted: set[MultiIndex] = set()
    cumulative: list[FactorTemplate] = []
    targets: list[MultiIndex] = []
    C = None
    for stage_templates, new_targets in zip(stages, stage_targets):
        cumulative.extend(stage_templates)
        targets.extend(tuple(t) for t in new_targets)
        # expand_sum(cumulative) as the same left fold, each template expanded once
        C = expand_sum(cumulative) if C is None else sum(map(expand_template, stage_templates), C)
        D = L - C
        params = {
            s for t in cumulative for f in t.factors
            for s in _solver_params(f.shift, class_params)
        }
        bindings: dict[BaseSymbol, JetExpr] = {}
        assumptions = _dedupe(_solve_targets(D.coefficient, targets, params, bindings))
        N_terms = {
            u: substitute(c, bindings) for u, c in D.terms.items()
        }
        support = {u for u, c in N_terms.items() if not c.is_zero()}
        rep = Representation(tuple(cumulative), dict(bindings))
        for u in mi.sort_canonical(mi.maximal_elements(support)):
            if u not in emitted:
                emitted.add(u)
                records.append(
                    _upward_record(u, N_terms[u], assumptions, rep, class_params)
                )
    if check_closure:
        ctx = DeltaContext.for_class(analysis.spec)
        for r in records:
            ok, residual = is_invariant(r.expression, ctx)
            if not ok:
                raise TemplateNotClosedError(f"record {r.label} is not gauge invariant: "
                                             f"Delta = {print_expr(residual)}")
    return records


# ---------------------------------------------------------------------------
# The inductive totally hyperbolic recursion.
# ---------------------------------------------------------------------------


def _lift_hyperbolic(expr: JetExpr, m: int) -> JetExpr:
    """Rewrite a bottom invariant of L_m as one of L_{m+1}.

    Every coefficient b_alpha of the m-dimensional class is replaced by
    N_alpha = a_{alpha 0} - (a_{1...10} - 1) a_{alpha 1} - d_{m+1} a_{alpha 1},
    with derivative multi-indices extended by a trailing zero.
    """
    dim = m + 1
    p = JetExpr.symbol(coeff_symbol((1,) * m + (0,)), dim=dim) - ONE

    @cache  # one N_alpha per alpha, whose derive_multi memo serves every jet of b_alpha
    def lifted(alpha: MultiIndex) -> JetExpr:
        a1 = JetExpr.symbol(coeff_symbol(alpha + (1,)), dim=dim)
        a0 = JetExpr.symbol(coeff_symbol(alpha + (0,)), dim=dim)
        return a0 - p * a1 - a1.derive(dim, dim)

    return jetalg.map_jets(expr, {
        v: lifted(v.base.vector).derive_multi(v.deriv + (0,)) for v in expr.variables()
    })


def recursive_hyperbolic_bottom(n: int) -> InvariantRecord:
    """Bottom upward invariant of the class generated by d_{x_1...x_n}.

    Built by the recursion C = (d_{x_{n+1}} + p) L_n with b_alpha = a_{alpha 1}
    and p = a_{1...10} - 1, starting from
    I_00 = a_00 - (a_10 a_01 + a_10x1) in dimension 2.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    a = lambda v: JetExpr.symbol(coeff_symbol(v), dim=2)
    expr = a((0, 0)) - (a((1, 0)) * a((0, 1)) + a((1, 0)).derive(1, 2))
    for m in range(2, n):
        expr = _lift_hyperbolic(expr, m)
    return InvariantRecord(
        "upward", f"I_{{{'0' * n}}}", expr, target_vector=(0,) * n
    )


def hyperbolic_templates_3d() -> tuple[list[list[FactorTemplate]], list[list[MultiIndex]]]:
    """The two stages used for the 3D hyperbolic class d_xyz.

    Stage 1 is (d_x+p)(d_y+q)(d_z+r); stage 2 adds the cyclic sum
    (d_x+s)(d_y+q) + (d_y+t)(d_z+r) + (d_z+u)(d_x+p), whose factor order
    is chosen to produce q_x, r_y and p_z rather than s_x, t_y and u_z.
    """
    n = 3
    par = lambda name: JetExpr.symbol(param_symbol(name), dim=n)
    ex, ey, ez = mi.unit(n, 1), mi.unit(n, 2), mi.unit(n, 3)
    f = Factor.single
    stage1 = [
        FactorTemplate(n, (f(ex, par("p")), f(ey, par("q")), f(ez, par("r"))))
    ]
    stage2 = [
        FactorTemplate(n, (f(ex, par("s")), f(ey, par("q")))),
        FactorTemplate(n, (f(ey, par("t")), f(ez, par("r")))),
        FactorTemplate(n, (f(ez, par("u")), f(ex, par("p")))),
    ]
    targets1 = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    targets2 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return [stage1, stage2], [targets1, targets2]


# ---------------------------------------------------------------------------
# Orchestration and the completeness audit.
# ---------------------------------------------------------------------------


def complete_set(spec: ClassSpec) -> tuple[list[InvariantRecord], dict]:
    """Assemble a complete set of invariants with its completeness audit.

    The upward records are those of ``upward_invariant_generic`` for each
    interior vector, but the operators that do not depend on the vector
    (the C_m templates and their expansion, each B_w and its expansion,
    the class operator and the map f) are built once for this call and
    shared, and so is the parameter solve of each distinct set W of
    interior vectors above a vector.

    Raises NotApproximatelyFlatError / NotFramedError (with diagnostics)
    when the hypotheses of the main construction fail.
    """
    an = analyze(spec)
    sol = solve_gradient(an)  # raises on hypothesis failure
    records = maximal_invariants(spec)
    records += extra_invariants(sol)
    records += compatibility_invariants(sol)
    if an.interior_set:
        parts = _GenericParts(sol)
        records += [parts.upward(v) for v in parts.interior]
    n = spec.dimension
    s = len(an.submaximal_set)
    counts = {k: sum(1 for r in records if r.kind == k)
              for k in ("maximal", "extra", "compatibility", "upward")}
    expected = {
        "maximal": len(an.maximal_set),
        "extra": s - n,
        "compatibility": n * (n - 1) // 2,
        "upward": len(an.interior_set),
    }
    audit = {
        "counts": counts,
        "expected": expected,
        "complete": counts == expected,
    }
    return records, audit

