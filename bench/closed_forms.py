"""Closed forms of the paper's worked examples, written in the oracle's terms.

Each form is transcribed from the paper's examples (the same statements
that tests/test_acceptance.py checks) and is built here with oracle.X, so
that it shares no code with gaugeinv.  CLASSES gives each worked class's
maximal terms; FORMS maps a class to its named closed forms; EXPECTED says
which construction of the construct workload must reproduce which form.
"""
from __future__ import annotations

from fractions import Fraction

from oracle import X, coeff

CLASSES = {
    "xy": (2, {(1, 1): "1"}),
    "xxy": (2, {(2, 1): "1"}),
    "xxy_xyy": (2, {(2, 1): "1", (1, 2): "1"}),
    "x3": (2, {(3, 0): "1", (1, 1): "a[1,1]", (0, 2): "a[0,2]"}),
    "xyz": (3, {(1, 1, 1): "1"}),
}


def _xy():
    a10, a01, a00 = coeff(1, 0), coeff(0, 1), coeff(0, 0)
    return {
        "h": a00 - a10 * a01 - a10.d(1),
        "k": a00 - a10 * a01 - a01.d(2),
    }


def _xxy():
    a20, a11, a10, a01, a00 = (coeff(*v) for v in [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)])
    q = (a11 - 1) / 2
    r = a20
    s = a01 - (q * q + q.d(1))
    t = a10 - (2 * q * r + 2 * r.d(1))
    return {
        "compat": 2 * a20.d(1) - a11.d(2),
        "I10": a10 - a11 * a20 - 2 * a20.d(1),
        "I01": a01 - Fraction(1, 4) * a11 * a11 - Fraction(1, 2) * a11.d(1),
        "I00_staged": a00 - ((q * q + q.d(1)) * r + 2 * q * r.d(1) + r.d(1).d(1)
                             + s * t + t.d(1)),
    }


def _xxy_xyy():
    a20, a11, a02 = coeff(2, 0), coeff(1, 1), coeff(0, 2)
    a10, a01, a00 = coeff(1, 0), coeff(0, 1), coeff(0, 0)
    q, p = a20, a02
    r = a11 - a20 - a02
    disp10 = a10 - (q * (p + r) + q.d(1) + r.d(2))
    disp01 = a01 - (p * (q + r) + q.d(1) + r.d(1))
    rp = r - 1
    s, t = disp01 + p, disp10 + q
    return {
        "extra": a11 - 2 * a20 - 2 * a02,
        "compat": a20.d(1) - a02.d(2),
        "I10_staged": disp10,
        "I01_staged": disp01,
        "I00_staged": a00 - ((p * q + q.d(1)) * rp + q * rp.d(1) + p * rp.d(2)
                             + rp.d(1).d(2) + s * t + t.d(1)),
    }


def _x3():
    a20, a11, a02 = coeff(2, 0), coeff(1, 1), coeff(0, 2)
    a10, a01, a00 = coeff(1, 0), coeff(0, 1), coeff(0, 0)
    p = a20 / 3
    q10 = (a01 - a11 * a20 / 3) / (2 * a02)
    q01 = (a10 - 3 * (p.d(1) + p * p)) / a11
    r00 = (a01 - 2 * a02 * q01) / a11
    return {
        "compat": 2 * a20.d(2) - (3 * a01 / a02).d(1) + (a11 * a20 / a02).d(1),
        "I10": a10 - 3 * (p.d(1) + p * p) - a11 * q10,
        "I01_staged": a01 - a11 * p - 2 * a02 * q01,
        "I00_staged": a00 - (p * p * p + 3 * p * p.d(1) + p.d(1).d(1)
                             + a11 * (r00 * q01 + q01.d(1))
                             + a02 * (q01 * q01 + q01.d(2))),
    }


def _xyz():
    a = lambda *v: coeff(*v)
    return {
        "I100": a(1, 0, 0) - a(1, 0, 1) * a(1, 1, 0) - a(1, 1, 0).d(2),
        "I010": a(0, 1, 0) - a(0, 1, 1) * a(1, 1, 0) - a(1, 1, 0).d(1),
        "I001": a(0, 0, 1) - a(0, 1, 1) * a(1, 0, 1) - a(1, 0, 1).d(1),
        "I000_sym": a(0, 0, 0) - (
            a(1, 0, 0) * a(0, 1, 1) + a(0, 1, 0) * a(1, 0, 1) + a(0, 0, 1) * a(1, 1, 0)
            - 2 * a(0, 1, 1) * a(1, 0, 1) * a(1, 1, 0)
            + (a(1, 1, 0).d(1).d(2) + a(1, 0, 1).d(1).d(3) + a(0, 1, 1).d(2).d(3)) / 3),
    }


FORMS: dict[str, dict[str, X]] = {
    "xy": _xy(), "xxy": _xxy(), "xxy_xyy": _xxy_xyy(), "x3": _x3(), "xyz": _xyz(),
}

# (construct operation, target vector or record label) -> (class, form, factor):
# the emitted record must equal factor * form as a function.
EXPECTED = {
    ("staged_xy_h", (0, 0)): ("xy", "h", 1),
    ("staged_xy_k", (0, 0)): ("xy", "k", 1),
    ("staged_xxy", (0, 0)): ("xxy", "I00_staged", 1),
    ("staged_xxy_xyy", (1, 0)): ("xxy_xyy", "I10_staged", 1),
    ("staged_xxy_xyy", (0, 1)): ("xxy_xyy", "I01_staged", 1),
    ("staged_xxy_xyy", (0, 0)): ("xxy_xyy", "I00_staged", 1),
    ("staged_x3_i01", (0, 1)): ("x3", "I01_staged", 1),
    ("staged_x3_i00", (0, 0)): ("x3", "I00_staged", 1),
    ("complete_xxy", "I_c(x,y)"): ("xxy", "compat", Fraction(-1, 2)),
    ("complete_xxy", "I_{10}"): ("xxy", "I10", 1),
    ("complete_xxy", "I_{01}"): ("xxy", "I01", 1),
    ("complete_xxy_xyy", "I_e{11}"): ("xxy_xyy", "extra", 1),
    ("complete_xxy_xyy", "I_c(x,y)"): ("xxy_xyy", "compat", -1),
    ("complete_x3", "I_c(x,y)"): ("x3", "compat", Fraction(1, 6)),
    ("complete_x3", "I_{10}"): ("x3", "I10", 1),
    ("complete_xyz", "I_{100}"): ("xyz", "I100", 1),
    ("complete_xyz", "I_{010}"): ("xyz", "I010", 1),
    ("complete_xyz", "I_{001}"): ("xyz", "I001", 1),
}
