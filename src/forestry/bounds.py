"""Lower-bound expressions for forest counts.

A BoundExpr is 2^(a/s) * 3^(b/s) * 198^(c/s) with integer a, b, c and a
common denominator s.  p_bound covers connected graphs with all degrees
in {2,3}, q_bound covers {2,3,4}; comparisons against an exact count
raise both sides to the s-th power and compare big integers, so no
verdict ever rests on floating point.  The ring construction, its
ceiling and the gadget ratios live in rings.py.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError
from .multigraph import degree_counts, is_connected

LESS = "LT"
EQUAL = "EQ"
GREATER = "GE"


class BoundExpr(NamedTuple):
    """2^(a/s) * 3^(b/s) * 198^(c/s) kept exact."""

    a: int
    b: int
    c: int
    s: int

    def value(self):
        return math.exp(
            (self.a * math.log(2) + self.b * math.log(3) + self.c * math.log(198))
            / self.s
        )

    def __str__(self):
        parts = []
        for base, e in ((2, self.a), (3, self.b), (198, self.c)):
            if e:
                parts.append(f"{base}^{e}")
        if not parts:
            return "1"
        text = " ".join(parts)
        if self.s != 1:
            text += f" / {self.s}"
        return text


def degree_profile(g, degrees=(2, 3, 4)):
    """(n2, n3, n4) of a connected graph whose degrees all lie in `degrees`."""
    counts = degree_counts(g)
    bad = sorted(d for d in counts if d not in degrees)
    if bad:
        allowed = ", ".join(map(str, degrees))
        raise InputError(f"degrees {bad} are outside {{{allowed}}}")
    if not g.n or not is_connected(g):
        raise InputError("the bounds are stated for connected graphs")
    return counts.get(2, 0), counts.get(3, 0), counts.get(4, 0)


def p_bound(g):
    """Lower bound for connected graphs whose degrees all lie in {2, 3}."""
    n2, n3, _ = degree_profile(g, (2, 3))
    return BoundExpr(a=4 * (n2 + n3 - 1), b=n3 + 2, c=0, s=4)


def q_bound(g):
    """Lower bound for connected graphs whose degrees all lie in {2, 3, 4}."""
    n2, n3, n4 = degree_profile(g)
    return BoundExpr(a=10 * n2 + 6 * n3 + 2 * n4 - 18, b=0, c=n3 + 2 * n4 + 2, s=10)


def compare(count, expr):
    """Exact trichotomy of an integer count against a BoundExpr."""
    if type(count) is not int or count < 0:
        raise InputError(f"count {count!r} is not a nonnegative int")
    # 198 = 2 * 3^2 * 11, so fold everything onto prime exponents first
    e2 = expr.a + expr.c
    e3 = expr.b + 2 * expr.c
    e11 = expr.c
    lhs = count**expr.s
    rhs = 1
    for base, e in ((2, e2), (3, e3), (11, e11)):
        if e >= 0:
            rhs *= base**e
        else:
            lhs *= base ** (-e)
    if lhs < rhs:
        return LESS
    if lhs == rhs:
        return EQUAL
    return GREATER
