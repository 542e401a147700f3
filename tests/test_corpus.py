"""Every small class, constructed and checked: a correctness gate.

The corpus is every antichain of nonzero multi-indices with coefficient 1
in dimension 1 up to order 4, dimension 2 up to order 4 and dimension 3 up
to order 2: 228 classes.  Each class either raises a typed hypothesis
error or yields a set whose audit is complete, whose every record passes
Delta and whose upward records have the a_v - E form.  The sha256 of the
canonical JSON of all 228 outcomes pins the library's output byte for
byte, so a refactor of the construction that changes any record fails.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

import pytest

from gaugeinv import multiindex as mi
from gaugeinv.classify import ClassSpec, analyze
from gaugeinv.invariants import HypothesisError, complete_set, is_upward_form
from gaugeinv.jetalg import ONE
from gaugeinv.verify import DeltaContext, is_invariant

# (dimension, highest order) of each part of the corpus
PARTS = ((1, 4), (2, 4), (3, 2))

CENSUS = {"constructed": 147, "NotApproximatelyFlatError": 78, "NotFramedError": 3}

# sha256 of the canonical JSON of every outcome, in corpus order
FINGERPRINT = "fa76e0f776cf5a6f2d191970a9583da83730db135f64ea93eaab4ea63a5c58e2"


def antichains(n: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every antichain of nonzero vectors of order <= k in dimension n."""
    vectors = sorted(
        v for v in itertools.product(range(k + 1), repeat=n) if 0 < sum(v) <= k
    )
    out = []

    def grow(start, chosen):
        if chosen:
            out.append(tuple(chosen))
        for i in range(start, len(vectors)):
            v = vectors[i]
            if not any(mi.leq(v, c) or mi.leq(c, v) for c in chosen):
                grow(i + 1, chosen + [v])

    grow(0, [])
    return out


def corpus() -> list[ClassSpec]:
    return [
        ClassSpec(n, tuple((v, ONE) for v in vectors))
        for n, k in PARTS
        for vectors in antichains(n, k)
    ]


@pytest.fixture(scope="module")
def outcomes():
    out = []
    for spec in corpus():
        try:
            out.append((spec, complete_set(spec)))
        except HypothesisError as exc:
            out.append((spec, exc))
    return out


def test_census(outcomes):
    census = Counter(
        type(o).__name__ if isinstance(o, Exception) else "constructed"
        for _, o in outcomes
    )
    assert len(outcomes) == 228
    assert census == CENSUS


def test_every_set_is_complete_and_invariant(outcomes):
    n_records = n_upward = 0
    for spec, o in outcomes:
        if isinstance(o, Exception):
            continue
        records, audit = o
        assert audit["complete"], spec
        an = analyze(spec)
        ctx = DeltaContext.for_class(spec)
        for rec in records:
            assert is_invariant(rec.expression, ctx)[0], (spec, rec.label)
            if rec.kind == "upward":
                assert is_upward_form(rec, an), (spec, rec.label)
                n_upward += 1
        n_records += len(records)
    assert (n_records, n_upward) == (1243, 524)


def test_output_fingerprint(outcomes):
    canon = [
        {"class": spec.to_json(), "error": type(o).__name__}
        if isinstance(o, Exception)
        else {"class": spec.to_json(), "records": [r.to_json() for r in o[0]],
              "audit": o[1]}
        for spec, o in outcomes
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == FINGERPRINT
