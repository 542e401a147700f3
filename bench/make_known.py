"""Regenerate known_records.json, the record pool of the verify workload.

The pool holds the records gaugeinv's complete_set emits for the small
worked classes, kept only when the independent oracle accepts them, so the
verify workload can build invariant candidates from them.  Run from the
repository root:

    python3 bench/make_known.py
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import closed_forms as CF  # noqa: E402
import oracle as O  # noqa: E402
from workloads import KNOWN_RECORDS, VERIFY_CLASSES, _spec  # noqa: E402


def main() -> int:
    from gaugeinv import complete_set
    pool = {}
    for c in VERIFY_CLASSES:
        n, terms = CF.CLASSES[c]
        cls = O.GaugeClass(n, terms)
        records, _ = complete_set(_spec(n, terms))
        texts = [r.to_json()["expression"] for r in records]
        pool[c] = [t for k, t in enumerate(texts)
                   if O.variables(O.read(t, n)) and cls.check(O.read(t, n), 1000 + k)]
    with open(KNOWN_RECORDS, "w") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
