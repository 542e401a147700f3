"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload is built in two steps.  ``generate(seed)`` makes its inputs with
this directory's own code only (no gaugeinv).  ``prepare(inputs, workdir)``
hands them to gaugeinv (parsing, spec objects, DeltaContexts, spec files)
and returns the operations.  Everything up to the end of ``prepare`` is
set-up.  Each operation is timed alone; after the timed part ``canon``
turns its output into JSON (the program's own serialisation) and ``check``
judges that JSON against oracle.py, closed_forms.py and this file's own
lattice code, never against gaugeinv.
"""
from __future__ import annotations

import ast
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import cycle

import closed_forms as CF
import oracle as O

HERE = os.path.dirname(os.path.abspath(__file__))

# Names for the symbolic maximal coefficients of cli_sweep; none can clash
# with the solver's own parameters (c1.., p1_0.., q1_0.., D1_0..).
SYMBOL_NAMES = ["p", "q", "r", "u", "w", "k", "m", "b"]


class Op:
    """One timed operation: a name and a function of no arguments."""

    __slots__ = ("name", "run")

    def __init__(self, name, run):
        self.name = name
        self.run = run


def _expr_terms(e) -> int:
    return len(e.num.terms) + len(e.den.terms)


def _upward_shape_ok(node, v, lattice) -> bool:
    """a_v occurs underived with coefficient 1; every other coefficient is
    of a vector above v or maximal or submaximal."""
    allowed = lattice.above(v) | lattice.maximal | lattice.submaximal
    for var in O.variables(node):
        base = var[1]
        if base[0] != "a":
            continue
        if base[1] == v:
            if any(var[2]):
                return False
        elif base[1] not in allowed:
            return False
    jets = O.random_jets(len(v) * 7919 + sum(v))
    av = ("v", ("a", v), (0,) * len(v))
    shift = lambda k: (lambda var: jets(var) + k if var == av else jets(var))
    e0 = O.evaluate(node, shift(0))
    return O.evaluate(node, shift(1)) - e0 == 1 and O.evaluate(node, shift(2)) - e0 == 2


def _records_ok(records, cls: O.GaugeClass, seed: int, problems: list, where: str) -> bool:
    """Every record passes the independent oracle."""
    ok = True
    for k, rec in enumerate(records):
        node = O.read(rec["expression"], cls.n)
        if not cls.check(node, seed + k):
            problems.append(f"{where}: {rec['label']} fails the gauge oracle")
            ok = False
    return ok


# ---------------------------------------------------------------------------
# construct: complete sets, the staged template engine, the recursion.
# ---------------------------------------------------------------------------

# Every construction takes under half a second, so that a round is short
# and each operation is timed in many rounds (see run.fastest).
GENERIC = [
    ("x2y2", 2, {(2, 2): "1"}),
    ("x2yz", 3, {(2, 1, 1): "1"}),
    ("x1x2x3x4", 4, {(1, 1, 1, 1): "1"}),
]

# The staged-template fault: the class d_xx, templates d_x(d_x + p) and
# (1 + p), target (0,).  The engine binds p = a0 - 1 from a probe that
# also zeroes p_x and emits a1 - a0 + 1, which is not invariant.
FAULT = "staged_dxx_fault"
CLASSES = dict(CF.CLASSES, dxx=(1, {(2,): "1"}), hyperbolic_4=(4, {(1, 1, 1, 1): "1"}))

# staged run -> its class
STAGED = {"staged_xy_h": "xy", "staged_xy_k": "xy", "staged_xxy": "xxy",
          "staged_xxy_xyy": "xxy_xyy", "staged_x3_i01": "x3", "staged_x3_i00": "x3",
          "staged_xyz_3d": "xyz", FAULT: "dxx"}


def generate_construct(seed: int) -> dict:
    # The classes are fixed: the names of the symbolic coefficients alone move
    # a construction's time by up to 20 %.  The seed sets the order and the
    # oracle's points.
    rng = random.Random(seed)
    classes = {f"complete_{name}": (n, terms) for name, n, terms in GENERIC}
    classes["complete_sym_2d"] = (2, {(2, 2): "p", (3, 0): "1", (0, 3): "q"})
    classes["complete_sym_3d"] = (3, {(1, 1, 1): "p", (2, 0, 0): "q"})
    for name in ("xxy", "xxy_xyy", "x3", "xyz"):
        classes[f"complete_{name}"] = CF.CLASSES[name]
    names = list(classes) + list(STAGED) + ["recursive_hyperbolic_4"]
    rng.shuffle(names)
    return {"classes": classes, "order": names, "seed": seed}


def _spec(n, terms):
    from gaugeinv import ClassSpec, parse_expr
    return ClassSpec(n, tuple((v, parse_expr(c, n)) for v, c in terms.items()))


def _staged_inputs():
    """(stages, stage targets) of each staged run."""
    from gaugeinv import Factor, FactorTemplate, JetExpr, parse_expr
    from gaugeinv.invariants import hyperbolic_templates_3d
    P = lambda text, n=2: parse_expr(text, n)
    F = lambda w, shift: Factor.single(w, P(shift, len(w)))
    x, y = (1, 0), (0, 1)
    tri = FactorTemplate(2, (F(x, "p"), F(y, "q"), Factor((x, y), P("r"))))
    st = FactorTemplate(2, (F(x, "s"), F(y, "t")))

    def x3(mid):
        return [FactorTemplate(2, (F(x, "p"),) * 3),
                FactorTemplate(2, (F(x, mid), F(y, "q")), P("a[1,1]")),
                FactorTemplate(2, (F(y, "q"),) * 2, P("a[0,2]"))]

    h3d_stages, h3d_targets = hyperbolic_templates_3d()
    return {
        "staged_xy_h": ([[FactorTemplate(2, (F(x, "b"), F(y, "a")))]], [[x, y]]),
        "staged_xy_k": ([[FactorTemplate(2, (F(y, "a"), F(x, "b")))]], [[x, y]]),
        "staged_xxy": ([[FactorTemplate(2, (F(x, "q"), F(x, "q"), F(y, "r")))], [st]],
                       [[(2, 0), (1, 1)], [x, y]]),
        "staged_xxy_xyy": ([[tri], [st]], [[(2, 0), (1, 1), (0, 2)], [x, y]]),
        "staged_x3_i01": ([x3("p")], [[(2, 0), x]]),
        "staged_x3_i00": ([x3("r")], [[(2, 0), x, y]]),
        "staged_xyz_3d": (h3d_stages, h3d_targets),
        FAULT: ([[FactorTemplate(1, (Factor(((1,),), JetExpr.const(0)),
                                     Factor.single((1,), P("p", 1)))),
                  FactorTemplate(1, (Factor((), P("1 + p", 1)),))]], [[(0,)]]),
    }


def prepare_construct(inputs: dict, workdir: str) -> list[Op]:
    from gaugeinv import (analyze, complete_set, recursive_hyperbolic_bottom,
                          upward_invariants_from_template)
    specs = {name: _spec(n, terms) for name, (n, terms) in inputs["classes"].items()}
    staged = _staged_inputs()
    ops = []
    for name in inputs["order"]:
        if name in specs:
            ops.append(Op(name, lambda s=specs[name]: complete_set(s)))
        elif name == "recursive_hyperbolic_4":
            ops.append(Op(name, lambda: [recursive_hyperbolic_bottom(4)]))
        else:
            stages, targets = staged[name]
            ops.append(Op(name, lambda s=_spec(*CLASSES[STAGED[name]]), st=stages, t=targets:
                          upward_invariants_from_template(analyze(s), st, t)))
    return ops


def canon_construct(name, out):
    records, audit = out if isinstance(out, tuple) else (out, None)
    data = {"invariants": [r.to_json() for r in records]}
    if audit is not None:
        data["audit"] = audit
    return data, len(records), sum(_expr_terms(r.expression) for r in records)


def check_construct(inputs: dict, outputs: dict, problems: list) -> set:
    """Judge one round; returns the names of the operations that failed."""
    failed = set()
    seed = inputs["seed"]
    compared = set()
    for k, (name, out) in enumerate(sorted(outputs.items())):
        if name == FAULT and out == {"error": "SolveError"}:
            continue  # the engine refused the unsolvable target: the fixed behaviour
        if "error" in out:
            problems.append(f"{name}: raised {out['error']}")
            failed.add(name)
            continue
        records = out["invariants"]
        if name in inputs["classes"]:
            n, terms = inputs["classes"][name]
        else:
            n, terms = CLASSES[STAGED.get(name, "hyperbolic_4")]
        cls = O.GaugeClass(n, terms)
        # The fault's rejected record makes its operation fail; it is not a
        # wrong answer of the benchmark's own checks.
        if not _records_ok(records, cls, seed * 7 + k * 1000,
                           [] if name == FAULT else problems, name):
            failed.add(name)
            continue
        if name == FAULT:
            continue
        audit = out.get("audit")
        if audit is not None:
            want = cls.lattice.audit()
            got = {kind: sum(r["kind"] == kind for r in records) for kind in want}
            if audit["counts"] != want or got != want or not audit["complete"]:
                problems.append(f"{name}: audit {audit} but the lattice gives {want}")
                failed.add(name)
        for rec in records:
            if rec["kind"] == "upward" and (audit is not None or name.startswith("recursive")):
                v = tuple(rec["target_vector"])
                if not _upward_shape_ok(O.read(rec["expression"], n), v, cls.lattice):
                    problems.append(f"{name}: {rec['label']} is not of the form a_v - E")
                    failed.add(name)
            key = (name, tuple(rec.get("target_vector") or ()) if audit is None else rec["label"])
            if key in CF.EXPECTED:
                compared.add(key)
                form_class, form, factor = CF.EXPECTED[key]
                want = (CF.FORMS[form_class][form] * factor).node
                if not O.same_function(O.read(rec["expression"], n), want, seed + len(key)):
                    problems.append(f"{name}: {rec['label']} differs from the closed form {form}")
                    failed.add(name)
    for name, target in set(CF.EXPECTED) - compared:
        if name not in failed:
            problems.append(f"{name}: no record {target} to compare with its closed form")
            failed.add(name)
    return failed


# ---------------------------------------------------------------------------
# verify: Delta and the numeric oracle on seeded candidates.
# ---------------------------------------------------------------------------

VERIFY_CLASSES = ["xy", "xxy", "xxy_xyy", "x3", "xyz"]
KNOWN_RECORDS = os.path.join(HERE, "known_records.json")

# Candidate shapes over known invariants A, B, C and directions i, j.
# Every shape is a field expression, hence invariant when A, B, C are.
SHAPES = [
    lambda A, B, C, i, j: A * B,
    lambda A, B, C, i, j: A / B,
    lambda A, B, C, i, j: A.d(i),
    lambda A, B, C, i, j: A * B + C,
    lambda A, B, C, i, j: (A - 3) / (B + 1),
    lambda A, B, C, i, j: A.d(i) * B,
    lambda A, B, C, i, j: A.d(i) / B,
    lambda A, B, C, i, j: A + 2 * B * C,
    lambda A, B, C, i, j: A.d(i) + B.d(j),
    lambda A, B, C, i, j: A / (B * C),
    lambda A, B, C, i, j: (A + B).d(i),
    lambda A, B, C, i, j: 5 * A - B / 7,
]
# Each class gets SHAPES_PER_CLASS shapes in turn (every shape twice or more
# over the five classes) and POISONED_PER_CLASS poisoned candidates, 10 of
# 40, under a third.  Forty candidates keep a round near 1.5 s.
SHAPES_PER_CLASS = 6
POISONED_PER_CLASS = 2
VERIFY_ALGEBRA_SEED = 0


def _known_invariants() -> dict:
    """Per class: the closed forms plus the oracle-checked record pool."""
    with open(KNOWN_RECORDS) as fh:
        pool = json.load(fh)
    out = {}
    for c in VERIFY_CLASSES:
        n = CF.CLASSES[c][0]
        out[c] = [f.node for f in CF.FORMS[c].values()] + [O.read(t, n) for t in pool[c]]
    return out


def generate_verify(seed: int) -> dict:
    # Every seed does the same work: the ingredients, the derivative
    # directions, the poisoning vectors and gaugeinv's numeric seeds are
    # fixed, since one derivative direction can cost five times another and
    # the numeric seed alone moved the median verdict by 12 %.  The seed sets
    # the order and the benchmark's own oracle's points.
    rng = random.Random(seed)
    fixed = random.Random(VERIFY_ALGEBRA_SEED)
    known = _known_invariants()
    candidates = []
    for ci, c in enumerate(VERIFY_CLASSES):
        n, terms = CF.CLASSES[c]
        lattice = O.Lattice(n, terms)
        nonmax = sorted(lattice.vectors - lattice.maximal)
        draw = cycle(known[c])
        shapes = ([(ci * SHAPES_PER_CLASS + j) % len(SHAPES) for j in range(SHAPES_PER_CLASS)]
                  + [(ci * POISONED_PER_CLASS + j) % 4 for j in range(POISONED_PER_CLASS)])
        for k, shape in enumerate(shapes):
            A, B, C = (O.X(next(draw)) for _ in range(3))
            e = SHAPES[shape](A, B, C, fixed.randint(1, n), fixed.randint(1, n))
            poisoned = k >= SHAPES_PER_CLASS
            if poisoned:
                e = e + O.coeff(*fixed.choice(nonmax))
            candidates.append({"class": c, "shape": shape, "text": e.text(),
                               "invariant": not poisoned, "numeric_seed": len(candidates)})
    order = list(range(len(candidates)))
    rng.shuffle(order)
    return {"candidates": [candidates[k] for k in order], "seed": seed}


def prepare_verify(inputs: dict, workdir: str) -> list[Op]:
    from gaugeinv import DeltaContext, parse_expr
    from gaugeinv.verify import report
    contexts = {c: DeltaContext.for_class(_spec(*CF.CLASSES[c])) for c in VERIFY_CLASSES}
    ops = []
    for k, cand in enumerate(inputs["candidates"]):
        c = cand["class"]
        E = parse_expr(cand["text"], CF.CLASSES[c][0])
        ops.append(Op(f"candidate_{k:03d}", lambda E=E, ctx=contexts[c], s=cand["numeric_seed"]:
                      report(E, ctx, seed=s)))
    return ops


def canon_as_is(name, out):
    """The operation's output is already JSON: a report or a CLI call."""
    return out, 0, 0


def check_verify(inputs: dict, outputs: dict, problems: list) -> set:
    failed = set()
    for k, cand in enumerate(inputs["candidates"]):
        name = f"candidate_{k:03d}"
        rep = outputs[name]
        want = cand["invariant"]
        if "error" in rep:
            problems.append(f"{name}: raised {rep['error']}")
            failed.add(name)
            continue
        n, terms = CF.CLASSES[cand["class"]]
        mine = O.GaugeClass(n, terms).check(O.read(cand["text"], n), inputs["seed"] * 31 + k)
        if (rep["invariant"], rep["numeric_check"], mine) != (want, want, want):
            problems.append(f"{name} ({cand['class']}): Delta {rep['invariant']}, numeric "
                            f"{rep['numeric_check']}, independent oracle {mine}, known {want}")
            failed.add(name)
    return failed


# ---------------------------------------------------------------------------
# cli_sweep: small random classes through gaugeinv.cli.main, in process.
# ---------------------------------------------------------------------------

# Classes meeting both hypotheses, by lattice size and by whether a maximal
# coefficient is a symbol (records then carry denominators).
CLI_PASSING = {(size, symbolic): 1 if symbolic else 3
               for size in range(2, 9) for symbolic in (False, True)}  # 28 classes
CLI_FAILING = 10  # classes failing one; 20 of the 76 calls, under a third
FORMATS = ["json", "latex", "text"]
# The classes come from this fixed stream, the same for every seed: with
# classes drawn from the seed, the work of a round moved by 17 % between
# seeds.  The seed sets the order of the calls and the oracle's points.
CLI_POOL_SEED = 0


def _random_class(rng: random.Random):
    n = rng.choices([1, 2, 3, 4], weights=[2, 5, 4, 1])[0]
    vectors = []
    for _ in range(rng.choice([1, 1, 2, 2, 3])):
        for _ in range(20):
            order = rng.randint(1, 4)
            cuts = sorted(rng.randint(0, order) for _ in range(n - 1))
            v = tuple(b - a for a, b in zip([0] + cuts, cuts + [order]))
            if all(not O._leq(v, u) and not O._leq(u, v) for u in vectors):
                vectors.append(v)
                break
    terms = {}
    names = iter(rng.sample(SYMBOL_NAMES, len(SYMBOL_NAMES)))
    for v in vectors:
        r = rng.random()
        if r < 0.6:
            terms[v] = "1"
        elif r < 0.8:
            terms[v] = str(rng.randint(2, 3))
        elif r < 0.9:
            terms[v] = next(names)
        else:
            terms[v] = "a[" + ",".join(map(str, v)) + "]"
    return n, terms


def generate_cli(seed: int) -> dict:
    rng = random.Random(CLI_POOL_SEED)
    passing = {kind: [] for kind in CLI_PASSING}
    failing = []
    while (len(failing) < CLI_FAILING
           or any(len(passing[kind]) < q for kind, q in CLI_PASSING.items())):
        n, terms = _random_class(rng)
        cls = O.GaugeClass(n, terms)
        flat, framed = cls.hypotheses(rng)
        entry = {"n": n, "terms": terms, "flat": flat, "framed": framed,
                 "exit": 0 if flat and framed else 2}
        if not (flat and framed):
            if len(failing) < CLI_FAILING:
                failing.append(entry)
            continue
        kind = (len(cls.lattice.vectors), any(c[0] == "v" for c in cls.coefficients.values()))
        if len(passing.get(kind, ())) < CLI_PASSING.get(kind, 0):
            passing[kind].append(entry)
    classes = [c for bucket in passing.values() for c in bucket] + failing
    for k, c in enumerate(classes):
        c["format"] = FORMATS[k % len(FORMATS)]
    random.Random(seed).shuffle(classes)
    return {"classes": classes, "seed": seed}


def prepare_cli(inputs: dict, workdir: str) -> list[Op]:
    from gaugeinv import cli
    ops = []
    for k, c in enumerate(inputs["classes"]):
        path = os.path.join(workdir, f"class_{k:03d}.json")
        with open(path, "w") as fh:
            json.dump({"dimension": c["n"], "maximal_terms": [
                {"vector": list(v), "coefficient": t} for v, t in c["terms"].items()]}, fh)
        fmt = ["--format", c["format"]]
        for cmd in (["analyze", path] + fmt, ["invariants", path, "--verify"] + fmt):
            ops.append(Op(f"class_{k:03d}_{cmd[0]}", lambda argv=cmd: _call(cli.main, argv)))
    return ops


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue()}


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.strip().partition(": ")
        fields.setdefault(key, []).append(value)
    return fields


def _check_analyze(c, out, lattice) -> bool:
    if c["format"] == "text":
        f = _text_fields(out["stdout"])
        data = {key: ast.literal_eval(f[key][0]) for key in
                ("maximal", "submaximal", "interior", "approximately_flat", "framed")}
    else:
        data = json.loads(out["stdout"])
    groups = {"maximal": lattice.maximal, "submaximal": lattice.submaximal,
              "interior": lattice.interior}
    return (all({tuple(v) for v in data[key]} == want for key, want in groups.items())
            and (data["approximately_flat"], data["framed"]) == (c["flat"], c["framed"]))


def _check_invariants(c, out, cls, seed, problems, where) -> bool:
    if c["exit"] != 0:
        return True
    want = cls.lattice.audit()
    if c["format"] == "latex":
        return sum("&=" in line for line in out["stdout"].splitlines()) == sum(want.values())
    if c["format"] == "json":
        data = json.loads(out["stdout"])
        records = data["invariants"]
        if data["audit"]["counts"] != want:
            return False
    else:
        f = _text_fields(out["stdout"])
        records = [{"label": label, "expression": e, "kind": kind}
                   for label, e, kind in zip(f["label"], f["expression"], f["kind"])]
    got = {kind: sum(r["kind"] == kind for r in records) for kind in want}
    return got == want and _records_ok(records, cls, seed, problems, where)


def check_cli(inputs: dict, outputs: dict, problems: list) -> set:
    failed = set()
    for k, c in enumerate(inputs["classes"]):
        cls = O.GaugeClass(c["n"], c["terms"])
        for cmd in ("analyze", "invariants"):
            name = f"class_{k:03d}_{cmd}"
            out = outputs[name]
            if "error" in out:
                problems.append(f"{name}: raised {out['error']}")
                failed.add(name)
            elif out["exit"] != c["exit"]:
                problems.append(f"{name} {c['terms']}: exit {out['exit']}, expected {c['exit']}")
                failed.add(name)
            elif cmd == "analyze" and not _check_analyze(c, out, cls.lattice):
                problems.append(f"{name} {c['terms']}: wrong lattice or hypotheses")
                failed.add(name)
            elif cmd == "invariants" and not _check_invariants(
                    c, out, cls, inputs["seed"] * 13 + k, problems, name):
                problems.append(f"{name} {c['terms']}: wrong records")
                failed.add(name)
    return failed


WORKLOADS = {
    "construct": (generate_construct, prepare_construct, canon_construct, check_construct),
    "verify": (generate_verify, prepare_verify, canon_as_is, check_verify),
    "cli_sweep": (generate_cli, prepare_cli, canon_as_is, check_cli),
}
