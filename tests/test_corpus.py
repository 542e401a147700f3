"""Every small class, constructed and checked: a correctness gate.

The corpus is every antichain of nonzero multi-indices with coefficient 1
in dimension 1 up to order 4, dimension 2 up to order 4 and dimension 3 up
to order 2: 228 classes.  Each class either raises a typed hypothesis
error or yields a set whose audit is complete, whose every record passes
Delta and the independent numeric oracle, and whose upward records have the
a_v - E form.  The sha256 of the canonical JSON of all 228 outcomes pins the
library's output byte for byte, so a refactor of the construction that
changes any record fails.

The symbolic variant takes every corpus class with at most three maximal
terms and makes the parameter p the coefficient of its first vector: 187
classes, held to the same checks and pinned the same way.
"""
from __future__ import annotations

import hashlib
import itertools
import json
from collections import Counter

import pytest

from gaugeinv import multiindex as mi
from gaugeinv.classify import ClassSpec, analyze, phi
from gaugeinv.invariants import HypothesisError, complete_set, solve_gradient
from gaugeinv.jetalg import ONE, ZERO, JetExpr, coeff_symbol, equal, param_symbol
from gaugeinv.verify import (
    DEFAULT_SEED, DeltaContext, OracleDraws, is_invariant, numeric_spot_check,
)

from _fixtures import is_upward_form

# (dimension, highest order) of each part of the corpus
PARTS = ((1, 4), (2, 4), (3, 2))

CENSUS = {"constructed": 147, "NotApproximatelyFlatError": 78, "NotFramedError": 3}

# sha256 of the canonical JSON of every outcome, in corpus order
FINGERPRINT = "fa76e0f776cf5a6f2d191970a9583da83730db135f64ea93eaab4ea63a5c58e2"

SYMBOLIC_CENSUS = {"constructed": 112, "NotApproximatelyFlatError": 75}
SYMBOLIC_FINGERPRINT = "4a7b83c2bca0bd512e3182485375e65e67f32dbf52a025c1c822c7280ab19041"


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


def symbolic_corpus() -> list[ClassSpec]:
    out = []
    for n, k in PARTS:
        p = JetExpr.symbol(param_symbol("p"), dim=n)
        for first, *rest in antichains(n, k):
            if len(rest) < 3:
                out.append(ClassSpec(n, ((first, p), *((v, ONE) for v in rest))))
    return out


def construct(specs):
    out = []
    for spec in specs:
        try:
            out.append((spec, complete_set(spec)))
        except HypothesisError as exc:
            out.append((spec, exc))
    return out


def census(outcomes) -> Counter:
    return Counter(
        type(o).__name__ if isinstance(o, Exception) else "constructed"
        for _, o in outcomes
    )


def audit_records(outcomes) -> tuple[int, int]:
    """Check every constructed set, each record by Delta and by the oracle
    (one set of draws per class); return its (records, upward records)."""
    n_records = n_upward = 0
    for spec, o in outcomes:
        if isinstance(o, Exception):
            continue
        records, audit = o
        assert audit["complete"], spec
        an = analyze(spec)
        ctx = DeltaContext.for_class(spec)
        draws = OracleDraws(ctx, DEFAULT_SEED)
        for rec in records:
            assert is_invariant(rec.expression, ctx)[0], (spec, rec.label)
            assert numeric_spot_check(rec.expression, ctx, DEFAULT_SEED, draws), (spec, rec.label)
            if rec.kind == "upward":
                assert is_upward_form(rec, an), (spec, rec.label)
                n_upward += 1
        n_records += len(records)
    return n_records, n_upward


def check_framing_solves(outcomes) -> int:
    """Check that the gradient of every constructed class satisfies each
    framing row exactly and carries analyze's framing assumptions; return
    the number of classes checked."""
    checked = 0
    for spec, o in outcomes:
        if isinstance(o, Exception):
            continue
        an = analyze(spec)
        sol = solve_gradient(an)
        for s in an.framing_set:
            lhs = sum((e * g for e, g in zip(phi(an, s), sol.gradient)), ZERO)
            assert equal(lhs, JetExpr.symbol(coeff_symbol(s), dim=spec.dimension)), (spec, s)
        assert sol.assumptions == an.framing_assumptions, spec
        checked += 1
    return checked


def fingerprint(outcomes) -> str:
    canon = [
        {"class": spec.to_json(), "error": type(o).__name__}
        if isinstance(o, Exception)
        else {"class": spec.to_json(), "records": [r.to_json() for r in o[0]],
              "audit": o[1]}
        for spec, o in outcomes
    ]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def outcomes():
    return construct(corpus())


@pytest.fixture(scope="module")
def symbolic_outcomes():
    return construct(symbolic_corpus())


def test_census(outcomes):
    assert len(outcomes) == 228
    assert census(outcomes) == CENSUS


def test_every_set_is_complete_and_invariant(outcomes):
    assert audit_records(outcomes) == (1243, 524)


def test_output_fingerprint(outcomes):
    assert fingerprint(outcomes) == FINGERPRINT


def test_framing_solve_is_exact(outcomes, symbolic_outcomes):
    assert check_framing_solves(outcomes) + check_framing_solves(symbolic_outcomes) == 259


def test_symbolic_census(symbolic_outcomes):
    assert len(symbolic_outcomes) == 187
    assert census(symbolic_outcomes) == SYMBOLIC_CENSUS


def test_symbolic_sets_are_complete_and_invariant(symbolic_outcomes):
    assert audit_records(symbolic_outcomes) == (894, 419)


def test_symbolic_output_fingerprint(symbolic_outcomes):
    assert fingerprint(symbolic_outcomes) == SYMBOLIC_FINGERPRINT
