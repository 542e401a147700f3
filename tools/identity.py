"""Byte-identity harness: one sha256 per case of gaugeinv's constructions.

    python3 tools/identity.py > identity.txt

Run from the repository root of any checkout: gaugeinv is imported from
./src and the class generators from ./tests/_fixtures.py, so the same
script can be run on two trees and the outputs compared line by line
(``diff``).  It needs only the standard library, so it also runs on each
supported Python (3.10 and later) with no package installed, e.g.
``python3.10 tools/identity.py``; the output is the same on each.  Each line
is ``<sha256>  <case>``; the last is ``<sha256>  aggregate``, the sha256 of
all the lines before it.  A class case's sha256 covers the canonical JSON
of ``complete_set`` (records and audit) and of ``build_Cm`` (templates,
bindings, assumptions), each replaced by the error's type and message when
it raises, and a second line ``<sha256>  <case> analyze`` covers
``analyze(spec).to_json()`` the same way; the staged and recursive cases
cover their records.

The cases:
  * the corpus of tests/test_corpus.py (every antichain in dimension 1 and 2
    up to order 4 and in dimension 3 up to order 2) with coefficient 1;
  * the same classes with p on the first vector, and with p and q on the
    first two, where a class has at most three maximal terms (larger
    symbolic classes take minutes each);
  * the fixture classes of tests/_fixtures.py;
  * every 25th class of the dimension-3, order-3 sweep, coefficient 1;
  * recursive_hyperbolic_bottom(n) for n = 2..5;
  * the staged template engine on d_xyz with hyperbolic_templates_3d(),
    and with check_closure on, on it and on d_xxy with the README's
    template file.

Not part of the test suite; it takes about 15 s on a 2-core host.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import _fixtures as fx  # noqa: E402
from _fixtures import PARTS, antichains  # noqa: E402
from gaugeinv.classify import ClassSpec, analyze  # noqa: E402
from gaugeinv.grammar import print_expr  # noqa: E402
from gaugeinv.invariants import (  # noqa: E402
    build_Cm, complete_set, hyperbolic_templates_3d, recursive_hyperbolic_bottom,
    upward_invariants_from_template,
)
from gaugeinv.jetalg import ONE, JetExpr, param_symbol  # noqa: E402
from gaugeinv.opalg import Factor, FactorTemplate  # noqa: E402


def outcome(compute):
    try:
        return compute()
    except Exception as exc:  # the error is part of the output
        return {"error": type(exc).__name__, "message": str(exc)}


def class_json(spec: ClassSpec) -> dict:
    def records():
        records, audit = complete_set(spec)
        return {"records": [r.to_json() for r in records], "audit": audit}

    def cm():
        templates, bindings, assumptions = build_Cm(analyze(spec))
        return {"templates": [t.text() for t in templates],
                "bindings": {s.text(): print_expr(e) for s, e in
                             sorted(bindings.items(), key=lambda p: p[0].text())},
                "assumptions": [print_expr(a) for a in assumptions]}

    return {"class": spec.to_json(), "complete_set": outcome(records), "build_Cm": outcome(cm)}


def staged(spec: ClassSpec, stages, targets, check_closure: bool = False) -> list:
    return outcome(lambda: [r.to_json() for r in upward_invariants_from_template(
        analyze(spec), stages, targets, check_closure)])


def xxy_stages():
    """The README's template file: (d_x + q)^2 (d_y + r), then (d_x + s)(d_y + t)."""
    x, y = (1, 0), (0, 1)
    f = lambda w, name: Factor.single(w, JetExpr.symbol(param_symbol(name), dim=2))
    return ([[FactorTemplate(2, (f(x, "q"), f(x, "q"), f(y, "r")))],
             [FactorTemplate(2, (f(x, "s"), f(y, "t")))]],
            [[(2, 0), (1, 1)], [(1, 0), (0, 1)]])


def cases():
    """(name, a ClassSpec or a function giving the case's JSON), in a fixed order."""
    for n, k in PARTS:
        p, q = (JetExpr.symbol(param_symbol(s), dim=n) for s in "pq")
        for vectors in antichains(n, k):
            ones = tuple((v, ONE) for v in vectors)
            yield f"corpus {vectors}", ClassSpec(n, ones)
            if len(vectors) <= 3:
                yield f"corpus p {vectors}", ClassSpec(n, ((vectors[0], p), *ones[1:]))
            if 2 <= len(vectors) <= 3:
                yield f"corpus p q {vectors}", ClassSpec(
                    n, ((vectors[0], p), (vectors[1], q), *ones[2:]))
    for name in sorted(dir(fx)):
        if name.startswith("spec_"):
            yield f"fixture {name}", getattr(fx, name)()
    for vectors in antichains(3, 3)[::25]:
        yield f"sweep {vectors}", ClassSpec(3, tuple((v, ONE) for v in vectors))
    for n in range(2, 6):
        yield f"recursive_hyperbolic_bottom({n})", lambda n=n: outcome(
            lambda: recursive_hyperbolic_bottom(n).to_json())
    yield "staged d_xyz", lambda: staged(fx.spec_xyz(), *hyperbolic_templates_3d())
    yield "staged d_xxy check_closure", lambda: staged(fx.spec_xxy(), *xxy_stages(), True)
    yield "staged d_xyz check_closure", lambda: staged(
        fx.spec_xyz(), *hyperbolic_templates_3d(), True)


def main() -> int:
    lines = []
    for name, case in cases():
        if isinstance(case, ClassSpec):
            outputs = [(name, class_json(case)),
                       (f"{name} analyze", outcome(lambda: analyze(case).to_json()))]
        else:
            outputs = [(name, case())]
        for label, data in outputs:
            blob = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
            lines.append(f"{hashlib.sha256(blob).hexdigest()}  {label}")
            print(lines[-1], flush=True)
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  aggregate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
