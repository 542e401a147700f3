"""Multi-indices over N0^n with the coordinatewise partial order.

A multi-index is a plain tuple of nonnegative ints.  It names both a
derivative monomial (the vector v of d^v) and the derivative orders applied
to a jet variable.  The ambient dimension n is fixed per computation and
validated at every boundary.
"""
from __future__ import annotations

from itertools import product as _cartesian
from typing import Iterable

MultiIndex = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when multi-indices of different dimensions are mixed."""


def check_index(v: MultiIndex, dim: int | None = None) -> None:
    if not all(type(x) is int and x >= 0 for x in v):
        raise ValueError(f"multi-index entries must be nonnegative ints: {v!r}")
    if dim is not None and len(v) != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v!r}")


def common_dim(vs: Iterable[MultiIndex]) -> int:
    vs = list(vs)
    if not vs:
        raise ValueError("empty set of multi-indices")
    dim = len(vs[0])
    for v in vs:
        check_index(v, dim)
    return dim


def order(v: MultiIndex) -> int:
    """Total derivative order |v|."""
    return sum(v)


def unit(dim: int, i: int) -> MultiIndex:
    """Standard basis vector e_i (1-based i)."""
    if not 1 <= i <= dim:
        raise ValueError(f"variable index {i} out of range 1..{dim}")
    return tuple(1 if k == i - 1 else 0 for k in range(dim))


def add(u: MultiIndex, v: MultiIndex) -> MultiIndex:
    if len(u) != len(v):
        raise DimensionMismatchError(f"{u!r} vs {v!r}")
    return tuple(a + b for a, b in zip(u, v))


def leq(u: MultiIndex, v: MultiIndex) -> bool:
    """Coordinatewise u <= v."""
    if len(u) != len(v):
        raise DimensionMismatchError(f"{u!r} vs {v!r}")
    return all(a <= b for a, b in zip(u, v))


def below(u: MultiIndex, v: MultiIndex) -> bool:
    """Strictly below: u <= v coordinatewise and u != v."""
    return leq(u, v) and u != v


def ups(v: MultiIndex) -> list[MultiIndex]:
    """The covers v + e_1, ..., v + e_n of v, in that order."""
    return [v[:i] + (v[i] + 1,) + v[i + 1:] for i in range(len(v))]


def down_set(vs: Iterable[MultiIndex]) -> set[MultiIndex]:
    """Smallest downward-closed superset of vs (union of boxes [0, v])."""
    vs = list(vs)
    common_dim(vs)
    out: set[MultiIndex] = set()
    for v in vs:
        out.update(_cartesian(*(range(x + 1) for x in v)))
    return out


def canonical_key(v: MultiIndex):
    """Sort key for the canonical iteration order: graded, higher total
    order first, ties broken lexicographically."""
    return (-order(v), v)


def sort_canonical(vs: Iterable[MultiIndex]) -> list[MultiIndex]:
    return sorted(vs, key=canonical_key)


def is_antichain(vs: Iterable[MultiIndex]) -> bool:
    vs = list(vs)
    return not any(below(u, v) for u in vs for v in vs if u != v)


def maximal_elements(vs: Iterable[MultiIndex]) -> set[MultiIndex]:
    vs = set(vs)
    return {v for v in vs if not any(below(v, u) for u in vs if u != v)}
