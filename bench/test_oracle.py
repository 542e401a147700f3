"""Tests of the benchmark's independent oracle (no gaugeinv involved).

    python3 -m pytest -q bench/test_oracle.py
"""
from __future__ import annotations

import random
from fractions import Fraction

import closed_forms as CF
import oracle as O

XY = O.GaugeClass(2, {(1, 1): "1"})
XXY = O.GaugeClass(2, {(2, 1): "1"})


def accepts(cls, text, seed=1):
    return cls.check(O.read(text, cls.n), seed)


def test_accepts_the_classical_laplace_invariants():
    assert accepts(XY, "a[0,0] - a[1,0]*a[0,1] - a[1,0];[1,0]")
    assert accepts(XY, "a[0,0] - a[1,0]*a[0,1] - a[0,1];[0,1]")


def test_accepts_the_xxy_compatibility_invariant():
    assert accepts(XXY, "2*a[2,0];[1,0] - a[1,1];[0,1]")


def test_rejects_non_invariants():
    assert not accepts(XY, "a[1,0]")
    assert not accepts(XY, "a[0,0] - a[1,0]*a[0,1]")
    # the staged-engine record for d_xx, templates d_x(d_x + p) and (1 + p)
    assert not accepts(O.GaugeClass(1, {(2,): "1"}), "a[1] - a[0] + 1")


def test_quotients_and_symbolic_maximal_coefficients():
    x3 = O.GaugeClass(2, {(3, 0): "1", (1, 1): "a[1,1]", (0, 2): "a[0,2]"})
    assert accepts(x3, "a[1,1]/a[0,2]")
    assert not accepts(x3, "a[1,0]/a[0,2]")
    sym = O.GaugeClass(2, {(2, 1): "p", (1, 2): "1"})
    assert accepts(sym, "p;[1,0]*p")


def test_every_worked_example_closed_form_is_invariant():
    for name, forms in CF.FORMS.items():
        n, terms = CF.CLASSES[name]
        cls = O.GaugeClass(n, terms)
        for label, form in forms.items():
            assert cls.check(form.node, 3), (name, label)
            assert cls.check(O.read(form.text(), n), 4), (name, label)


def test_reader_printer_and_derivative_agree():
    e = O.read("(a[1,0]^2 - 3/4*a[0,1]) / (1 + a[0,0];[0,1]) - -2", 2)
    assert O.same_function(e, O.read(O.show(e), 2), 7)
    value = O.random_jets(5)
    x = lambda *d: value(("v", ("a", (1, 0)), d))
    product = O.derive(O.read("a[1,0]*a[1,0];[0,1]", 2), 0)
    assert O.evaluate(product, value) == x(1, 0) * x(0, 1) + x(0, 0) * x(1, 1)
    assert O.evaluate(O.read("2^-2", 2), value) == Fraction(1, 4)


def test_lattice_and_hypotheses():
    lat = XXY.lattice
    assert lat.maximal == {(2, 1)}
    assert lat.submaximal == {(1, 1), (2, 0)}
    assert lat.interior == {(1, 0), (0, 1), (0, 0)}
    assert lat.audit() == {"maximal": 1, "extra": 0, "compatibility": 1, "upward": 3}
    rng = random.Random(0)
    assert XXY.hypotheses(rng) == (True, True)
    assert O.GaugeClass(2, {(2, 0): "1", (0, 1): "1"}).hypotheses(rng)[0] is False
    assert O.GaugeClass(2, {(2, 0): "1", (1, 1): "2", (0, 2): "1"}).hypotheses(rng) == (True, False)
