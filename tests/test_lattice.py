"""The lattice walk, against the definitions read off the whole lattice.

``analyze`` and the generic construction step from a vector v only to its
covers v + e_i (``mi.ups``).  The reference here scans every pair of
lattice vectors instead: u covers v iff u - v is a unit vector, and the
cover map f sends v to the smallest vector of a given set that covers it.
Both are compared on every corpus class and on classes drawn by
hypothesis: the submaximal and interior sets, the flat witness, the phi
rows, and the two cover maps of the generic construction (residual
submaximal to maximal, read through the p parameters of the C_m
templates; interior to non-maximal, read through the direction of each
B_w).
"""
from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from gaugeinv import multiindex as mi
from gaugeinv.classify import ClassSpec, analyze
from gaugeinv.invariants import HypothesisError, _GenericParts, _p_param, solve_gradient
from gaugeinv.jetalg import ONE, ZERO, JetExpr, param_symbol

from _fixtures import PARTS, antichains


def covers(u, v) -> bool:
    """u - v is a unit vector."""
    d = [a - b for a, b in zip(u, v)]
    return all(x >= 0 for x in d) and sum(d) == 1


def direction(u, v) -> int:
    """The 0-based i with u = v + e_i, for u covering v."""
    return next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)


def least_cover(vectors, above) -> dict:
    return {v: min(u for u in above if covers(u, v)) for v in vectors}


def check_lattice_walk(spec: ClassSpec) -> None:
    n = spec.dimension
    maximal = spec.maximal_set
    lattice = mi.down_set(maximal)
    an = analyze(spec)

    submaximal = {v for v in lattice - maximal
                  if all(u in maximal for u in lattice if covers(u, v))
                  and any(covers(u, v) for u in lattice)}
    assert an.submaximal_set == submaximal, spec
    assert an.interior_set == lattice - maximal - submaximal, spec

    rows = {}
    for s in submaximal:
        row = [ZERO] * n
        for u in maximal:
            if covers(u, s):
                i = direction(u, s)
                row[i] = spec.coefficient(u).scale(s[i] + 1)
        rows[s] = tuple(row)
    assert an.phi_rows == rows, spec

    # the flat witness: distinct s_i in S with s_i + e_i maximal
    candidates = [
        {s for s in submaximal for u in maximal if covers(u, s) and direction(u, s) == i}
        for i in range(n)
    ]
    exists = any(len(set(c)) == n for c in itertools.product(*candidates))
    assert an.approximately_flat == exists, spec
    if exists:
        assert len(set(an.flat_witness)) == n, spec
        assert all(s in candidates[i] for i, s in enumerate(an.flat_witness)), spec
    else:
        assert an.flat_witness is None, spec

    try:
        sol = solve_gradient(an)
    except HypothesisError:
        return
    parts = _GenericParts(sol)
    f = least_cover(sol.residual_vectors, maximal)
    p_of = {_p_param(v): v for v in sol.residual_vectors}
    for m, t in zip(mi.sort_canonical(maximal), parts.templates):
        shifted = {p_of[s] for factor in t.factors for s in factor.shift.base_symbols()
                   if s in p_of}
        assert shifted == {v for v, u in f.items() if u == m}, (spec, m)
    fint = least_cover(an.interior_set, lattice - maximal)
    assert parts.fint == fint, spec
    for w, u in fint.items():
        (power,), _ = parts.b_part(w)[0].factors[0]
        assert power == mi.unit(n, direction(u, w) + 1), (spec, w)


def test_lattice_walk_on_the_corpus():
    for n, k in PARTS:
        for vectors in antichains(n, k):
            check_lattice_walk(ClassSpec(n, tuple((v, ONE) for v in vectors)))


@st.composite
def classes(draw) -> ClassSpec:
    """An antichain in dimension 1-3, entries at most 3, coefficient 1 or,
    on the first vector, the parameter p."""
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(any),
                            min_size=1, max_size=5))
    top = sorted(mi.maximal_elements(vectors))
    coefficients = [ONE] * len(top)
    if draw(st.booleans()):
        coefficients[0] = JetExpr.symbol(param_symbol("p"), dim=n)
    return ClassSpec(n, tuple(zip(top, coefficients)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(classes())
def test_lattice_walk_on_drawn_classes(spec):
    check_lattice_walk(spec)
