"""Text grammar for jet expressions.

    jetvar := "a[" ints "]" deriv?  |  "g" deriv?  |  name deriv?
    deriv  := ";[" ints "]"
    expr   := +, -, *, / over jetvars, integer literals and parentheses,
              with "^" for integer powers.

Printing uses the canonical monomial order, so output is byte-for-byte
reproducible and ``parse_expr(print_expr(e)) == e`` exactly.
"""
from __future__ import annotations

import re

from .jetalg import (
    JetExpr,
    JetVariable,
    Poly,
    coeff_symbol,
    gauge_symbol,
    param_symbol,
)


class InputError(ValueError):
    """Invalid input, as opposed to a fault in gaugeinv: the CLI reports
    an ExprParseError as a parse error and any other InputError as a
    hypothesis or semantic error."""


class ExprParseError(InputError):
    """Raised on malformed expression text."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>;\[|[][(),+*/^-]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos, end = 0, len(text.rstrip())  # a match takes the whitespace before its token
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str], dim: int | None):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExprParseError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def ints(self, opening: str = "[") -> tuple[int, ...]:
        self.take(opening)
        out = []
        if self.peek() != "]":
            while True:
                tok = self.take()
                if not tok.isdigit():
                    raise ExprParseError(f"expected integer in vector, got {tok!r}")
                out.append(int(tok))
                if self.peek() != ",":
                    break
                self.take(",")
        self.take("]")
        vec = tuple(out)
        if self.dim is None:
            self.dim = len(vec)
        elif len(vec) != self.dim:
            raise ExprParseError(f"vector {vec} has dimension {len(vec)}, expected {self.dim}")
        return vec

    def jetvar(self, name: str) -> JetExpr:
        if name == "a" and self.peek() == "[":
            base = coeff_symbol(self.ints())
        elif name == "g":
            base = gauge_symbol()
        else:
            base = param_symbol(name)
        if self.peek() == ";[":
            deriv = self.ints(";[")
        else:
            if self.dim is None:
                raise ExprParseError(
                    f"cannot infer dimension for bare symbol {name!r}; pass dim explicitly"
                )
            deriv = (0,) * self.dim
        return JetExpr(Poly.var(JetVariable(base, deriv)))

    def atom(self) -> JetExpr:
        tok = self.take()
        if tok == "(":
            e = self.sum()
            self.take(")")
            return e
        if tok == "-":
            return -self.power()
        if tok.isdigit():
            return JetExpr.const(int(tok))
        if tok[0].isalpha() or tok[0] == "_":
            return self.jetvar(tok)
        raise ExprParseError(f"unexpected token {tok!r}")

    def power(self) -> JetExpr:
        e = self.atom()
        while self.peek() == "^":
            self.take("^")
            neg = self.peek() == "-"
            if neg:
                self.take("-")
            tok = self.take()
            if not tok.isdigit():
                raise ExprParseError(f"exponent must be an integer literal, got {tok!r}")
            e = e ** (-int(tok) if neg else int(tok))
        return e

    def product(self) -> JetExpr:
        e = self.power()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                e = e * self.power()
            else:
                e = e / self.power()
        return e

    def sum(self) -> JetExpr:
        e = self.product()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                e = e + self.product()
            else:
                e = e - self.product()
        return e


def parse_expr(text: str, dim: int | None = None) -> JetExpr:
    """Parse an expression string; dim may be inferred from any vector."""
    p = _Parser(_tokenize(text), dim)
    try:
        e = p.sum()
    except ZeroDivisionError:
        # only "/" and negative powers divide; both name a zero divisor
        raise ExprParseError(
            f"division by an identically-zero expression in {text!r}"
        ) from None
    if p.peek() is not None:
        raise ExprParseError(f"trailing input: {' '.join(p.tokens[p.pos:])!r}")
    return e


def write_poly(p: Poly, power, frac, times: str) -> str:
    """p in the canonical term order, with the signs between the terms.

    ``power(v, e)`` spells a variable to a positive power, ``frac(c)`` a
    positive rational, and ``times`` joins the factors of one term; a unit
    coefficient is written only on the constant term.
    """
    if p.is_zero():
        return "0"
    out = ""
    for mono, c in p.sorted_terms():
        size = abs(c)
        factors = [frac(size)] if size != 1 or not mono else []
        term = times.join(factors + [power(v, e) for v, e in mono])
        if out:
            out += (" + " if c > 0 else " - ") + term
        else:
            out = term if c > 0 else "-" + term
    return out


def _text_power(v: JetVariable, e: int) -> str:
    return v.text() if e == 1 else f"{v.text()}^{e}"


def _text_frac(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def print_expr(e: JetExpr) -> str:
    num = write_poly(e.num, _text_power, _text_frac, "*")
    if e.den.is_const():
        return num
    return f"({num})/({write_poly(e.den, _text_power, _text_frac, '*')})"
