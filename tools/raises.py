"""Census of the ``raise`` statements in src/gaugeinv/ that the test suite reaches.

    python3 tools/raises.py [pytest arguments]

Run from the repository root of any checkout.  It finds every ``raise``
statement of src/gaugeinv/*.py with ``ast``, runs pytest in process (the
whole suite unless arguments are given) under a ``sys.settrace`` tracer
that records the lines run in those files, and prints each raise that no
test reached, then ``<reached> of <total> raise statements reached``.  A
raise counts as reached when any of its lines runs.  The exit status is
pytest's.

Not part of the test suite: the tracer slows it about three-fold (70 s on
a 2-core host).
"""
from __future__ import annotations

import ast
import linecache
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "gaugeinv")


def raise_statements() -> dict[str, list[ast.Raise]]:
    """file path -> the raise statements in it, in source order."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            out[path] = sorted((n for n in ast.walk(tree) if isinstance(n, ast.Raise)),
                               key=lambda n: n.lineno)
    return out


def main(argv: list[str]) -> int:
    raises = raise_statements()
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in raises else None

    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
    reached = 0
    for path, nodes in raises.items():
        for n in nodes:
            if any((path, k) in hits for k in range(n.lineno, n.end_lineno + 1)):
                reached += 1
            else:
                print(f"unreached {os.path.relpath(path, ROOT)}:{n.lineno}: "
                      f"{linecache.getline(path, n.lineno).strip()}")
    total = sum(map(len, raises.values()))
    print(f"{reached} of {total} raise statements reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
