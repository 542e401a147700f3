"""An independent gauge oracle for gaugeinv's outputs.

Nothing here imports gaugeinv.  The module has its own reader for the
expression grammar (into a small tree), exact evaluation, differentiation
and printing of that tree, its own term-lattice code, and a numeric gauge
check:

* every coefficient a_w, every symbolic maximal coefficient and g become
  seeded random polynomials in x_1..x_n with integer coefficients;
* the gauged coefficients are L'_w = sum over v >= w of
  c_v * binom(v, w) * B_{v-w}, with B_0 = 1 and
  B_{u+e_i} = d_i B_u + g_{x_i} B_u;
* an expression E is invariant iff E and its gauged counterpart agree,
  evaluated exactly at random rational points.

Tree nodes are tuples:
    ("c", Fraction)                 constant
    ("v", base, deriv)              jet variable; base is ("a", vector),
                                    ("g",) or ("p", name)
    ("+", ((sign, node), ...))      signed sum, sign in {1, -1}
    ("*", ((node, exp), ...))       product of integer powers
"""
from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from math import comb, prod

ZERO_NODE = ("c", Fraction(0))

# ---------------------------------------------------------------------------
# Reader for the expression grammar.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(;\[|[][(),+*/^-]))")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Reader:
    def __init__(self, text: str, dim: int):
        self.toks = _tokens(text)
        self.pos = 0
        self.dim = dim

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None or (want is not None and tok != want):
            raise ValueError(f"expected {want!r} at token {self.pos}, got {tok!r}")
        self.pos += 1
        return tok

    def vector(self):
        out = [int(self.take())]
        while self.peek() == ",":
            self.take(",")
            out.append(int(self.take()))
        self.take("]")
        if len(out) != self.dim:
            raise ValueError(f"vector {out} is not of dimension {self.dim}")
        return tuple(out)

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.sum()
            self.take(")")
            return node
        if tok == "-":
            return ("+", ((-1, self.power()),))
        if tok.isdigit():
            return ("c", Fraction(int(tok)))
        if tok == "a" and self.peek() == "[":
            self.take("[")
            base = ("a", self.vector())
        elif tok == "g":
            base = ("g",)
        else:
            base = ("p", tok)
        deriv = (0,) * self.dim
        if self.peek() == ";[":
            self.take(";[")
            deriv = self.vector()
        return ("v", base, deriv)

    def power(self):
        node = self.atom()
        while self.peek() == "^":
            self.take("^")
            sign = -1 if self.peek() == "-" else 1
            if sign < 0:
                self.take("-")
            node = ("*", ((node, sign * int(self.take())),))
        return node

    def product(self):
        factors = [(self.power(), 1)]
        while self.peek() in ("*", "/"):
            exp = 1 if self.take() == "*" else -1
            factors.append((self.power(), exp))
        return factors[0][0] if len(factors) == 1 else ("*", tuple(factors))

    def sum(self):
        terms = [(1, self.product())]
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            terms.append((sign, self.product()))
        return terms[0][1] if len(terms) == 1 else ("+", tuple(terms))


def read(text: str, dim: int):
    """Read grammar text into a tree; dim fixes bare symbols' jet order."""
    r = _Reader(text, dim)
    node = r.sum()
    if r.peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return node


# ---------------------------------------------------------------------------
# Evaluation, variables, differentiation and printing.
# ---------------------------------------------------------------------------


def evaluate(node, value) -> Fraction:
    """Exact value of node; value(var_node) gives each jet variable."""
    kind = node[0]
    if kind == "c":
        return node[1]
    if kind == "v":
        return value(node)
    if kind == "+":
        total = Fraction(0)
        for sign, sub in node[1]:
            total += evaluate(sub, value) if sign > 0 else -evaluate(sub, value)
        return total
    out = Fraction(1)
    for sub, exp in node[1]:
        out *= evaluate(sub, value) ** exp  # raises ZeroDivisionError
    return out


def variables(node, out=None) -> set:
    out = set() if out is None else out
    if node[0] == "v":
        out.add(node)
    elif node[0] in "+*":
        for item in node[1]:
            variables(item[1] if node[0] == "+" else item[0], out)
    return out


def derive(node, i: int):
    """d/dx_i of node (0-based i), by linearity, Leibniz and powers."""
    kind = node[0]
    if kind == "c":
        return ZERO_NODE
    if kind == "v":
        d = list(node[2])
        d[i] += 1
        return ("v", node[1], tuple(d))
    if kind == "+":
        return ("+", tuple((s, derive(sub, i)) for s, sub in node[1]))
    factors = node[1]
    terms = []
    for k, (f, e) in enumerate(factors):
        if f[0] == "c":
            continue
        rest = [(g, x) for j, (g, x) in enumerate(factors) if j != k]
        if e != 1:
            rest = [(("c", Fraction(e)), 1), (f, e - 1)] + rest
        terms.append((1, ("*", tuple(rest + [(derive(f, i), 1)]))))
    return ("+", tuple(terms)) if terms else ZERO_NODE


def _fmt_const(c: Fraction) -> str:
    if c.denominator == 1 and c >= 0:
        return str(c.numerator)
    return f"({c.numerator}{'' if c.denominator == 1 else '/' + str(c.denominator)})"


def show(node) -> str:
    """Grammar text that reads back to an equal tree (up to bracketing)."""
    kind = node[0]
    if kind == "c":
        return _fmt_const(node[1])
    if kind == "v":
        base = node[1]
        head = "a[" + ",".join(map(str, base[1])) + "]" if base[0] == "a" else (
            "g" if base[0] == "g" else base[1])
        return head + (";[" + ",".join(map(str, node[2])) + "]" if any(node[2]) else "")
    if kind == "+":
        parts = []
        for sign, sub in node[1]:
            parts.append(("-" if sign < 0 else "+" if parts else "") + show(sub))
        return "(" + " ".join(parts) + ")" if parts else "0"
    parts = []
    for sub, e in node[1]:
        text = show(sub) + (f"^{abs(e)}" if abs(e) != 1 else "")
        if e > 0:
            parts.append(("*" if parts else "") + text)
        else:
            parts.append(("/" if parts else "1/") + text)
    return "(" + "".join(parts) + ")" if parts else "1"


class X:
    """Operator sugar over tree nodes, for writing closed forms."""

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node

    @staticmethod
    def lift(x) -> "X":
        return x if isinstance(x, X) else X(("c", Fraction(x)))

    def __add__(self, o):
        return X(("+", ((1, self.node), (1, X.lift(o).node))))

    def __sub__(self, o):
        return X(("+", ((1, self.node), (-1, X.lift(o).node))))

    def __mul__(self, o):
        return X(("*", ((self.node, 1), (X.lift(o).node, 1))))

    def __rmul__(self, o):
        return X.lift(o) * self

    def __truediv__(self, o):
        return X(("*", ((self.node, 1), (X.lift(o).node, -1))))

    def d(self, i: int) -> "X":
        """Derivative d/dx_i, 1-based as in the paper."""
        return X(derive(self.node, i - 1))

    def text(self) -> str:
        return show(self.node)


def coeff(*vector: int) -> X:
    """The coefficient a_v, underived."""
    return X(("v", ("a", tuple(vector)), (0,) * len(vector)))


# ---------------------------------------------------------------------------
# Term lattice and the two hypotheses.
# ---------------------------------------------------------------------------


def _unit(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def _plus(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _leq(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


class Lattice:
    """Down set of the maximal vectors, split into M, S and V."""

    def __init__(self, n: int, maximal):
        self.n = n
        self.maximal = frozenset(tuple(v) for v in maximal)
        self.vectors = frozenset(
            w for v in self.maximal for w in cartesian(*(range(x + 1) for x in v)))
        sub = set()
        for v in self.vectors - self.maximal:
            covers = [_plus(v, _unit(n, i)) for i in range(n)]
            covers = [u for u in covers if u in self.vectors]
            if covers and all(u in self.maximal for u in covers):
                sub.add(v)
        self.submaximal = frozenset(sub)
        self.interior = self.vectors - self.maximal - self.submaximal

    def approximately_flat(self) -> bool:
        """Distinct s_1..s_n in S with s_i + e_i maximal (bipartite matching)."""
        n = self.n
        options = {i: [s for s in sorted(self.submaximal)
                       if _plus(s, _unit(n, i)) in self.maximal] for i in range(n)}
        owner: dict = {}

        def place(i, seen):
            for s in options[i]:
                if s not in seen:
                    seen.add(s)
                    if s not in owner or place(owner[s], seen):
                        owner[s] = i
                        return True
            return False

        return all(place(i, set()) for i in range(n))

    def phi_rank(self, coefficient, rng: random.Random) -> int:
        """Rank of the phi rows over S, symbols at random rational values.

        coefficient(v) is a maximal coefficient's tree (constant or one
        symbol)."""
        values: dict = {}

        def c(v):
            node = coefficient(v)
            if node[0] == "c":
                return node[1]
            if node not in values:
                values[node] = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            return values[node]

        n = self.n
        rows = []
        for s in sorted(self.submaximal):
            rows.append([Fraction(s[i] + 1) * c(_plus(s, _unit(n, i)))
                         if _plus(s, _unit(n, i)) in self.maximal else Fraction(0)
                         for i in range(n)])
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            for r in range(len(rows)):
                if r != rank and rows[r][col]:
                    f = rows[r][col] / rows[rank][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
            rank += 1
        return rank

    def audit(self) -> dict:
        n = self.n
        return {"maximal": len(self.maximal), "extra": len(self.submaximal) - n,
                "compatibility": n * (n - 1) // 2, "upward": len(self.interior)}

    def above(self, v) -> set:
        return {u for u in self.vectors if u != v and _leq(v, u)}


# ---------------------------------------------------------------------------
# The gauge check.
# ---------------------------------------------------------------------------

DEGREE = 4  # of every random instance polynomial


@lru_cache(maxsize=None)
def _monomials(n: int) -> tuple:
    return tuple(m for m in cartesian(*(range(DEGREE + 1) for _ in range(n)))
                 if sum(m) <= DEGREE)


def _random_poly(n: int, rng: random.Random) -> list:
    return [(m, rng.getrandbits(5) - 15) for m in _monomials(n)]


def _falling(m: int, k: int) -> int:
    return prod(range(m - k + 1, m + 1)) if k <= m else 0


class GaugeClass:
    """One class: dimension, maximal terms (vector -> coefficient text)."""

    def __init__(self, n: int, maximal: dict):
        self.n = n
        self.lattice = Lattice(n, maximal)
        self.coefficients = {tuple(v): read(str(t), n) for v, t in maximal.items()}
        for v, node in self.coefficients.items():
            if node[0] not in "cv" or (node[0] == "v" and any(node[2])):
                raise ValueError(f"maximal coefficient of {v} must be a constant or a symbol")

    def coefficient(self, v):
        return self.coefficients[v]

    def hypotheses(self, rng: random.Random) -> tuple[bool, bool]:
        """(approximately flat, framed), decided by this module's own code."""
        lat = self.lattice
        return lat.approximately_flat(), lat.phi_rank(self.coefficient, rng) == self.n

    def _bases(self) -> set:
        out = {("a", w) for w in self.lattice.vectors - self.lattice.maximal}
        out |= {node[1] for node in self.coefficients.values() if node[0] == "v"}
        return out | {("g",)}

    def sample(self, rng: random.Random) -> "_Sample":
        inst = {b: _random_poly(self.n, rng) for b in sorted(self._bases())}
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(self.n))
        return _Sample(self, inst, point)

    def check(self, node, seed: int, points: int = 3, retries: int = 12) -> bool:
        """True iff node agrees with its gauged counterpart at every point."""
        for base in {v[1] for v in variables(node)}:
            if base == ("g",) or (base[0] == "a" and base[1] not in self.lattice.vectors):
                raise ValueError(f"symbol {base} is not a coefficient of the class")
        rng = random.Random(seed)
        for _ in range(points):
            for attempt in range(retries + 1):
                s = self.sample(rng)
                try:
                    before = evaluate(node, s.before)
                    after = evaluate(node, s.after)
                except ZeroDivisionError:
                    if attempt == retries:
                        raise
                    continue
                if before != after:
                    return False
                break
        return True


class _Sample:
    """One instance of every symbol and one point; jets before/after gauging."""

    def __init__(self, cls: GaugeClass, inst: dict, point: tuple):
        self.cls = cls
        self.inst = inst
        # x_i^e * q_i^DEGREE as integers p_i^e q_i^(DEGREE-e), so that every
        # jet is one integer sum over the common denominator prod q_i^DEGREE.
        self.powers = [[x.numerator ** e * x.denominator ** (DEGREE - e)
                        for e in range(DEGREE + 1)] for x in point]
        self.denominator = prod(x.denominator ** DEGREE for x in point)
        self.jets: dict = {}
        self.gauged: dict = {}
        self.b: dict = {}

    def jet(self, base, deriv) -> Fraction:
        key = (base, deriv)
        if key not in self.jets:
            total = 0
            for m, c in self.inst[base]:
                f = c
                for mi, di, pw in zip(m, deriv, self.powers):
                    if di > mi:
                        break
                    f *= _falling(mi, di) * pw[mi - di]
                else:
                    total += f
            self.jets[key] = Fraction(total, self.denominator)
        return self.jets[key]

    def coefficient_jet(self, v, deriv) -> Fraction:
        """d^deriv c_v, the ungauged coefficient of d^v."""
        if v not in self.cls.lattice.maximal:
            return self.jet(("a", v), deriv)
        node = self.cls.coefficients[v]
        if node[0] == "c":
            return node[1] if not any(deriv) else Fraction(0)
        return self.jet(node[1], deriv)

    def before(self, var) -> Fraction:
        return self.jet(var[1], var[2])

    def after(self, var) -> Fraction:
        base, alpha = var[1], var[2]
        if base[0] != "a" or base[1] in self.cls.lattice.maximal:
            return self.jet(base, alpha)
        key = (base[1], alpha)
        if key not in self.gauged:
            w = base[1]
            total = Fraction(0)
            for v in self.cls.lattice.vectors:
                if not _leq(w, v):
                    continue
                u = tuple(a - b for a, b in zip(v, w))
                k = prod(comb(a, b) for a, b in zip(v, w))
                for beta in cartesian(*(range(x + 1) for x in alpha)):
                    gamma = tuple(a - b for a, b in zip(alpha, beta))
                    total += (k * prod(comb(a, b) for a, b in zip(alpha, beta))
                              * self.coefficient_jet(v, beta) * self.B(u, gamma))
            self.gauged[key] = total
        return self.gauged[key]

    def B(self, u, gamma) -> Fraction:
        """d^gamma B_u at the point, B_u = e^{-g} d^u e^g."""
        if not any(u):
            return Fraction(1) if not any(gamma) else Fraction(0)
        key = (u, gamma)
        if key not in self.b:
            i = next(k for k, x in enumerate(u) if x)
            e = _unit(len(u), i)
            prev = tuple(a - b for a, b in zip(u, e))
            total = self.B(prev, _plus(gamma, e))
            for delta in cartesian(*(range(x + 1) for x in gamma)):
                rest = tuple(a - b for a, b in zip(gamma, delta))
                total += (prod(comb(a, b) for a, b in zip(gamma, delta))
                          * self.jet(("g",), _plus(delta, e)) * self.B(prev, rest))
            self.b[key] = total
        return self.b[key]


def random_jets(seed: int):
    """A value function giving each jet variable its own random rational."""
    rng = random.Random(seed)
    memo: dict = {}

    def value(var):
        if var not in memo:
            memo[var] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        return memo[var]

    return value


def same_function(a, b, seed: int, points: int = 2) -> bool:
    """Exact equality of two trees at random values of their jet variables."""
    for k in range(points):
        value = random_jets(seed * 1000 + k)
        if evaluate(a, value) != evaluate(b, value):
            return False
    return True
