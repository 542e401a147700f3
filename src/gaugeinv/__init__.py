"""Gauge invariants of maximally generated classes of linear PDE operators.

The package constructs, for a class of linear partial differential
operators specified by its maximal terms, a complete set of gauge
(Laplace) invariants — maximal, extra, compatibility, and upward — and
verifies each one symbolically via the Delta-calculus.
"""

from .classify import ClassAnalysis, ClassSpec, analyze, class_operator, phi
from .grammar import ExprParseError, InputError, parse_expr, print_expr
from .invariants import (
    GradientSolution,
    HypothesisError,
    InvariantRecord,
    NotApproximatelyFlatError,
    NotFramedError,
    Representation,
    SolveError,
    TemplateNotClosedError,
    compatibility_invariants,
    complete_set,
    extra_invariants,
    maximal_invariants,
    recursive_hyperbolic_bottom,
    solve_gradient,
    upward_invariant_generic,
    upward_invariants_from_template,
)
from .jetalg import (
    BaseSymbol,
    JetExpr,
    JetVariable,
    Poly,
    coeff_symbol,
    equal,
    gauge_symbol,
    param_symbol,
    proportional,
    substitute,
)
from .opalg import DiffOperator, Factor, FactorTemplate, expand_sum, expand_template, gauge, op_mul
from .verify import DEFAULT_SEED, DeltaContext, delta, is_invariant, numeric_spot_check

__version__ = "1.0.0"
