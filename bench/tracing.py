"""Per-layer tracing of gaugeinv, installed from outside the package.

Tracer.install() replaces each entry point below by a wrapper in every
gaugeinv module that bound it (a function imported with ``from .x import f``
is a separate binding, and a call through an unwrapped binding would escape
the trace); uninstall() puts the originals back.  Each wrapper counts calls
and measures its span; a span's self time is its duration minus the time
covered by its child spans, and its total time counts only the outermost
span of a name, so recursion is not counted twice.

Spans (id, name, start, end, parent id) are kept in memory and written out
by write_spans().  The jet-polynomial primitives and the numeric oracle's
polynomial evaluation run millions of times per round, so those layers are
aggregated in place and leave no span record.
"""
from __future__ import annotations

import importlib
import sys
from time import perf_counter

# metric prefix -> entry points ("module:attribute" or "module:Class.attribute")
ENTRY_POINTS = {
    "jetalg.normalize": ["gaugeinv.jetalg:JetExpr.__init__"],
    "jetalg.poly_mul": ["gaugeinv.jetalg:Poly.__mul__"],
    "jetalg.poly_add": ["gaugeinv.jetalg:Poly.__add__"],
    "jetalg.poly_derive": ["gaugeinv.jetalg:Poly.derive"],
    "jetalg.substitute": ["gaugeinv.jetalg:substitute"],
    "opalg.op_mul": ["gaugeinv.opalg:op_mul"],
    "opalg.expand_template": ["gaugeinv.opalg:expand_template"],
    "opalg.gauge": ["gaugeinv.opalg:gauge"],
    "classify.analyze": ["gaugeinv.classify:analyze"],
    "invariants.complete_set": ["gaugeinv.invariants:complete_set"],
    "invariants.build_Cm": ["gaugeinv.invariants:build_Cm"],
    "invariants.upward_invariant_generic": ["gaugeinv.invariants:upward_invariant_generic"],
    "invariants.upward_invariants_from_template":
        ["gaugeinv.invariants:upward_invariants_from_template"],
    "invariants.solve_gradient": ["gaugeinv.invariants:solve_gradient"],
    "verify.for_class": ["gaugeinv.verify:DeltaContext.for_class"],
    "verify.is_invariant": ["gaugeinv.verify:is_invariant"],
    "verify.numeric_spot_check": ["gaugeinv.verify:numeric_spot_check"],
    "verify.spot_value": ["gaugeinv.verify:_RatPoly.derive", "gaugeinv.verify:_RatPoly.eval"],
    "grammar.parse_expr": ["gaugeinv.grammar:parse_expr"],
    "grammar.print_expr": ["gaugeinv.grammar:print_expr"],
    "cli.main": ["gaugeinv.cli:main"],
}
NO_SPANS = {"jetalg.normalize", "jetalg.poly_mul", "jetalg.poly_add", "jetalg.poly_derive",
            "verify.spot_value"}


def _den_calls(args, kwargs, result) -> int:
    den = args[2] if len(args) > 2 else kwargs.get("den")
    return int(den is not None and not den.is_const())


def _terms_out(args, kwargs, result) -> int:
    return len(result.terms)


# metric prefix -> (extra counter name, function of (args, kwargs, result))
EXTRA = {"jetalg.normalize": ("den_calls", _den_calls),
         "jetalg.poly_mul": ("terms_out", _terms_out)}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in ENTRY_POINTS}
        self.stack: list[list] = []
        self.depth: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.next_id = 1
        self.restore: list[tuple] = []

    def _wrap(self, name, fn):
        stats, stack, depth, spans = self.stats[name], self.stack, self.depth, self.spans
        extra = EXTRA.get(name, (None, None))[1]
        log = name not in NO_SPANS
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            if log:
                span_id = tracer.next_id
                tracer.next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            d = depth.get(name, 0)
            depth[name] = d + 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] = d
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur - frame[0]
                if d == 0:
                    stats[2] += dur
                if log:
                    spans.append((span_id, name, t0, t1, parent))
            if extra is not None:
                stats[3] += extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "gaugeinv" or key.startswith("gaugeinv.")]
        for name, targets in ENTRY_POINTS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                owner = importlib.import_module(module_name)
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    new = self._wrap(name, fn)
                    setattr(cls, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
                    self.restore.append((cls, attr, raw))
                    continue
                original = getattr(owner, path)
                new = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, new)
                            self.restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    def snapshot(self) -> dict:
        return {name: list(s) for name, s in self.stats.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for span_id, name, t0, t1, parent in self.spans:
                fh.write(f"{span_id}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def metrics(stats: dict) -> dict:
    """The per-layer metric values of one stats snapshot (or difference)."""
    out = {}
    for name, (calls, self_s, total_s, extra) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
        out[f"{name}.total_s"] = total_s
        if name in EXTRA:
            out[f"{name}.{EXTRA[name][0]}"] = extra
    return out


def difference(after: dict, before: dict) -> dict:
    return {name: [a - b for a, b in zip(after[name], before[name])] for name in after}
