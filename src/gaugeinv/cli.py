"""Command-line interface: analysis, invariant construction, gauging, verification.

Commands
--------
analyze <spec.json>
    Print the term-lattice classification and hypothesis flags.
invariants <spec.json> [--templates <file>] [--verify] [--seed K] [--format F]
    Construct the complete set of invariants (or run the staged template
    engine) and print the records with the completeness audit.
gauge <operator.json> --g <expr>
    Print the gauged operator e^{-g} L e^{g}.
verify <spec.json> --expr <expr> [--seed K]
    Print the verification report for one expression over the class.

Exit codes: 0 success, 1 parse error, 2 any other invalid input (an
InputError: a hypothesis failure, a malformed spec, operator or template,
an unsolvable stage, ...), 3 verification failure, 4 internal error (any
other exception, reported as one line on stderr instead of a traceback),
141 (128 + SIGPIPE) when stdout is closed before the output is written, as
under ``| head -1``; that prints nothing.

Template files are JSON of the form::

    {"check_closure": false,
     "stages": [
       {"templates": [
          {"prefactor": "a[1,1]",
           "factors": [{"powers": [[1, 0]], "shift": "p"},
                       {"powers": [[1, 0], [0, 1]], "shift": "r"}]}],
        "targets": [[2, 0], [1, 1], [0, 2]]}]}

Stages are cumulative: each adds its templates and targets, and the whole
parameter set is re-solved; ``prefactor`` defaults to "1", and shifts and
prefactors use the expression grammar.  ``check_closure`` true proves each
record by Delta (exit 2 if one fails); ``--verify`` then adds the oracle.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from . import multiindex as mi
from .classify import ClassAnalysis, ClassSpec, analyze
from .grammar import ExprParseError, InputError, parse_expr, print_expr, write_poly
from .invariants import complete_set, upward_invariants_from_template
from .jetalg import JetExpr, JetVariable, KIND_COEFF, Poly, gauge_symbol
from .opalg import DiffOperator, Factor, FactorTemplate, OperatorSpecError, gauge
from .verify import (
    DEFAULT_SEED,
    DeltaContext,
    OracleDraws,
    is_invariant,
    numeric_spot_check,
    report,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_HYPOTHESIS = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141


# ---------------------------------------------------------------------------
# LaTeX emission (paper-style subscripts: a_{20xx}, g_{xy}).
# ---------------------------------------------------------------------------


def _latex_names(n: int) -> list[str]:
    return ["x", "y", "z"][:n] if n <= 3 else [f"x_{i}" for i in range(1, n + 1)]


def _latex_var(v: JetVariable, names: list[str]) -> str:
    base = v.base
    if base.kind == KIND_COEFF:
        head = "a"
        sub = "".join(map(str, base.vector))
    else:
        head = base.name
        sub = ""
    sub += "".join(names[i] * k for i, k in enumerate(v.deriv))
    return f"{head}_{{{sub}}}" if sub else head


def _latex_poly(p: Poly, names: list[str]) -> str:
    return write_poly(
        p,
        lambda v, e: _latex_var(v, names) + (f"^{{{e}}}" if e > 1 else ""),
        lambda c: (str(c.numerator) if c.denominator == 1
                   else f"\\frac{{{c.numerator}}}{{{c.denominator}}}"),
        " ",
    )


def latex_expr(e: JetExpr, dim: int) -> str:
    """Paper-style LaTeX for a JetExpr of the given dimension."""
    names = _latex_names(dim)
    num = _latex_poly(e.num, names)
    if e.den.is_const():
        return num
    return f"\\frac{{{num}}}{{{_latex_poly(e.den, names)}}}"


def latex_operator(L: DiffOperator) -> str:
    names = _latex_names(L.dim)
    parts = []
    for v in mi.sort_canonical(L.terms):
        c = L.terms[v]
        d = "".join(names[i] * k for i, k in enumerate(v))
        dtext = f"\\partial_{{{d}}}" if d else ""
        ctext = latex_expr(c, L.dim)
        if dtext and ctext == "1":
            ctext = ""
        elif " " in ctext or "+" in ctext[1:] or "-" in ctext[1:]:
            ctext = f"\\left({ctext}\\right)"
        parts.append((ctext + " " + dtext).strip())
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Template file loading.
# ---------------------------------------------------------------------------


def load_templates(path: str, analysis: ClassAnalysis):
    """Parse a template file into (stages, stage_targets, check_closure).

    Every target must be a vector of the class lattice, every integer and
    boolean must be a JSON one, and no other top-level key is allowed.
    """
    dim = analysis.dimension
    with open(path) as fh:
        data = json.load(fh)
    stages = []
    targets = []
    try:
        unknown = sorted(set(data) - {"stages", "check_closure"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        for stage in data["stages"]:
            templates = []
            for t in stage["templates"]:
                prefactor = parse_expr(str(t.get("prefactor", "1")), dim)
                factors = []
                for f in t["factors"]:
                    powers = tuple(tuple(w) for w in f["powers"])
                    for w in powers:
                        mi.check_index(w, dim)
                    shift = parse_expr(str(f.get("shift", "0")), dim)
                    factors.append(Factor(powers, shift))
                templates.append(FactorTemplate(dim, tuple(factors), prefactor))
            stages.append(templates)
            targets.append([tuple(v) for v in stage["targets"]])
            for v in targets[-1]:
                mi.check_index(v, dim)
                if v not in analysis.all_vectors:
                    raise OperatorSpecError(f"target {v} is not in the class lattice")
        closure = data.get("check_closure", False)
        if type(closure) is not bool:
            raise TypeError(f"check_closure must be true or false, got {closure!r}")
    except ExprParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise OperatorSpecError(f"malformed template file: {exc}") from exc
    return stages, targets, closure


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _emit(payload: dict, fmt: str, latex_lines: Callable[[], list[str]]) -> None:
    """Print payload in fmt; latex_lines builds the LaTeX lines, only when printed."""
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "latex":
        for line in latex_lines():
            print(line)
    else:
        _emit_text(payload)


def _emit_text(payload: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


def cmd_analyze(args) -> int:
    spec = ClassSpec.load(args.spec)
    an = analyze(spec)
    payload = an.to_json()
    _emit(payload, args.format, lambda: [json.dumps(payload)])
    if not (an.approximately_flat and an.framed):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_invariants(args) -> int:
    spec = ClassSpec.load(args.spec)
    proved = False  # by Delta, in the staged engine
    if args.templates:
        an = analyze(spec)
        stages, targets, proved = load_templates(args.templates, an)
        records = upward_invariants_from_template(an, stages, targets, proved)
        audit = {"upward": len(records)}
    else:
        records, audit = complete_set(spec)
    if args.verify:
        # One set of oracle draws serves every record; each check sees the
        # points that ``verify --expr`` with the same seed would see.
        ctx = DeltaContext.for_class(spec)
        draws = OracleDraws(ctx, args.seed)
        for r in records:
            ok, residual = (True, None) if proved else is_invariant(r.expression, ctx)
            checked = numeric_spot_check(r.expression, ctx, args.seed, draws)
            if not (ok and checked):
                residual = print_expr(residual) if not ok else "?"
                print(f"verification failed for {r.label}: residual {residual}", file=sys.stderr)
                return EXIT_VERIFY
    payload = {"invariants": [r.to_json() for r in records], "audit": audit}
    _emit(payload, args.format, lambda: [
        f"{r.label} &= {latex_expr(r.expression, spec.dimension)} \\\\"
        for r in records
    ])
    return EXIT_OK


def cmd_gauge(args) -> int:
    with open(args.operator) as fh:
        L = DiffOperator.from_json(json.load(fh))
    gauged = gauge(L)
    if args.g is not None and args.g.strip() not in ("g", ""):
        g_expr = parse_expr(args.g, L.dim)
        gauged = gauged.substitute({gauge_symbol(): g_expr})
    payload = {"operator": gauged.to_json()}
    _emit(payload, args.format, lambda: [latex_operator(gauged)])
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = ClassSpec.load(args.spec)
    E = parse_expr(args.expr, spec.dimension)
    ctx = DeltaContext.for_class(spec)
    rep = report(E, ctx, seed=args.seed)
    _emit(rep, args.format, lambda: [latex_expr(E, spec.dimension)])
    if not (rep["invariant"] and rep["numeric_check"]):
        return EXIT_VERIFY
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (a fixed-size constant)."""
    parser = argparse.ArgumentParser(
        prog="gaugeinv",
        description="Gauge (Laplace) invariants of linear PDE operator classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format", choices=("json", "latex", "text"), default="json"
        )

    p = sub.add_parser("analyze", help="classify a class spec")
    p.add_argument("spec")
    common(p)

    p = sub.add_parser("invariants", help="construct invariants")
    p.add_argument("spec")
    p.add_argument("--templates", help="staged template JSON file")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)

    p = sub.add_parser("gauge", help="gauge-transform an operator")
    p.add_argument("operator")
    p.add_argument("--g", default=None, help="gauge function expression")
    common(p)

    p = sub.add_parser("verify", help="verify an expression over a class")
    p.add_argument("spec")
    p.add_argument("--expr", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up per call, so a replaced command function is the one that runs.
    command = {"analyze": cmd_analyze, "invariants": cmd_invariants,
               "gauge": cmd_gauge, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except (json.JSONDecodeError, UnicodeDecodeError, ExprParseError,
            FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except BrokenPipeError:  # nobody reads stdout: write the rest, and the final flush, nowhere
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # a fault in gaugeinv, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
