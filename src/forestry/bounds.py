"""Lower-bound expressions for forest counts and the ring construction.

A BoundExpr is 2^(a/s) * 3^(b/s) * 198^(c/s) with integer a, b, c and a
common denominator s.  p_bound covers connected graphs with all degrees
in {2,3}, q_bound covers {2,3,4}; comparisons against an exact count
raise both sides to the s-th power and compare big integers, so no
verdict ever rests on floating point.

ring_family chains m edited copies of a seed graph into a ring and
checks the closed form 2^m A^m - B^m for the number of spanning
forests, where A counts forests after deleting the chosen edge and B
is A minus the forests of the contraction.  min_ratio_check compares
two gadgets over every partition of their attachment vertices, giving
the worst-case factor by which swapping one gadget for the other can
shrink the forest count of any host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .counting import count_forests, extension_count
from .errors import (
    AttachmentMismatch,
    BridgeEdge,
    CapExceeded,
    DegreeOutOfFamily,
    Disconnected,
)
from .multigraph import (
    MultiGraph,
    _build,
    contract_edge,
    degree_counts,
    delete_edge,
    from_edge_list,
    is_connected,
)

LESS = "LT"
EQUAL = "EQ"
GREATER = "GE"

DEFAULT_FD_CAP = 6
DEFAULT_DIRECT_CAP = 3


@dataclass(frozen=True)
class BoundExpr:
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
        raise DegreeOutOfFamily(f"degrees {bad} are outside {{{allowed}}}")
    if not is_connected(g):
        raise Disconnected("the bounds are stated for connected graphs")
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


def _factorize(x):
    out = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if x > 1:
        out.append((x, 1))
    return tuple(out)


@dataclass(frozen=True)
class RadicalBound:
    """radicand^(1/index), with the largest integer factor pulled out."""

    radicand: int
    index: int
    outer: int
    inner: int
    factors: tuple

    def value(self):
        return self.outer * self.inner ** (1 / self.index)


def upper_bound_fd(d, cap=DEFAULT_FD_CAP):
    """The ring-family ceiling [2 * F(K_{d+1} - e)]^(1/(d+1)) for d-regular graphs."""
    if not 3 <= d <= cap:
        raise CapExceeded(f"d = {d} is outside 3..{cap}")
    n = d + 1
    seed = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    radicand = 2 * count_forests(delete_edge(seed, 0, 1))
    factors = _factorize(radicand)
    outer = 1
    inner = 1
    for p, e in factors:
        outer *= p ** (e // n)
        inner *= p ** (e % n)
    return RadicalBound(radicand, n, outer, inner, factors)


def girth_limit(d):
    """Reference growth constant of high-girth d-regular graphs."""
    if d < 3:
        raise ValueError(f"d = {d} is below 3")
    return (d - 1) ** (d - 1) / (d * d - 2 * d - 1) ** (d / 2 - 1)


@dataclass(frozen=True)
class FamilyRow:
    m: int
    forests: int
    root: float
    direct: object


@dataclass(frozen=True)
class FamilySeries:
    seed: MultiGraph
    edge: tuple
    order: int
    a_value: int
    b_value: int
    rows: tuple
    limit: float


def ring_family(g, u, v, m_list, direct_cap=DEFAULT_DIRECT_CAP):
    """Chain m copies of g, broken at uv, into a ring; count exactly.

    Copy i keeps every edge except one copy of uv, and the ring edges
    run from copy i's v to copy (i+1)'s u.  m = 1 recovers g itself.
    Rows carry the closed-form count, the per-vertex root, and (for
    small m) an independent direct count of the constructed ring.
    """
    if not is_connected(g):
        raise Disconnected("the ring construction needs a connected seed")
    cut = delete_edge(g, u, v)  # raises EdgeAbsent when uv is missing
    if not is_connected(cut):
        raise BridgeEdge(f"edge {u}-{v} is a bridge, the broken ring would fall apart")
    a_value = count_forests(cut)
    b_value = a_value - count_forests(contract_edge(g, u, v))
    if not a_value > b_value >= 0:
        raise ValueError(f"ring invariant broke: A = {a_value}, B = {b_value}")
    r = g.n
    rows = []
    for m in sorted(set(m_list)):
        if m < 1:
            raise ValueError(f"ring size m = {m} must be positive")
        forests = 2**m * a_value**m - b_value**m
        root = math.exp(math.log(forests) / (m * r))
        direct = None
        if m <= direct_cap:
            direct = count_forests(_ring_graph(g, u, v, m))
        rows.append(FamilyRow(m, forests, root, direct))
    limit = math.exp(math.log(2 * a_value) / r)
    return FamilySeries(g, (u, v), r, a_value, b_value, tuple(rows), limit)


def _ring_graph(g, u, v, m):
    """m copies of g less one uv copy, copy i's v joined to copy (i + 1)'s u."""
    n = g.n
    mults = {}
    for i in range(m):
        for x, y, t in g.bundles():
            mults[i * n + x, i * n + y] = t
        mults[i * n + min(u, v), i * n + max(u, v)] -= 1  # _build drops a bundle at 0
    for i in range(m):
        a, b = sorted((i * n + v, (i + 1) % m * n + u))
        mults[a, b] = mults.get((a, b), 0) + 1
    return _build(m * n, mults)


@dataclass(frozen=True)
class Gadget:
    """A standalone piece with an ordered tuple of attachment vertices."""

    graph: MultiGraph
    attachments: tuple


@dataclass(frozen=True)
class RatioRow:
    partition: tuple
    numerator: int
    denominator: int
    ratio: object


@dataclass(frozen=True)
class RatioReport:
    rows: tuple
    min_ratio: object
    argmin: tuple
    zero_rows: tuple


def set_partitions(items):
    """All partitions of items into nonempty blocks, deterministic order."""
    items = list(items)
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        for i in range(len(part)):
            grown = list(part)
            grown[i] = (first,) + part[i]
            out.append(tuple(grown))
        out.append(((first,),) + part)
    return out


def _check_gadget(g):
    att = g.attachments
    if len(set(att)) != len(att):
        raise AttachmentMismatch(f"attachment list {att} repeats a vertex")
    for v in att:
        if not 0 <= v < g.graph.n:
            raise AttachmentMismatch(f"attachment {v} is not a vertex")


def _extensions(gadget, part):
    """The gadget's extension count with each block of attachment positions identified."""
    blocks = [[gadget.attachments[i] for i in block] for block in part]
    return extension_count(gadget.graph, gadget.graph.edge_list(), blocks)


def min_ratio_check(gadget_a, gadget_b):
    """Worst case of (extensions of a) / (extensions of b) over partitions.

    Positions in the two attachment tuples correspond; partitions range
    over the shared index set.  Rows whose denominator vanishes cannot
    constrain the minimum and are reported on the side.
    """
    _check_gadget(gadget_a)
    _check_gadget(gadget_b)
    k = len(gadget_a.attachments)
    if len(gadget_b.attachments) != k:
        raise AttachmentMismatch(
            f"{k} attachments versus {len(gadget_b.attachments)}"
        )
    rows = []
    zero_rows = []
    best = None
    argmin = None
    for part in set_partitions(range(k)):
        num, den = _extensions(gadget_a, part), _extensions(gadget_b, part)
        if den == 0:
            row = RatioRow(part, num, den, None)
            zero_rows.append(row)
            rows.append(row)
            continue
        ratio = Fraction(num, den)
        row = RatioRow(part, num, den, ratio)
        rows.append(row)
        if best is None or ratio < best:
            best = ratio
            argmin = part
    return RatioReport(tuple(rows), best, argmin, tuple(zero_rows))


# Extension table for a degree-4 star center versus its three lift
# matchings, one row per partition of the four outer vertices a,b,c,d
# (encoded 0..3): expected counts for the star and the matchings
# {ab,cd}, {ac,bd}, {ad,bc}.
TABLE2_ROWS = (
    (((0,), (1,), (2,), (3,)), (16, 4, 4, 4)),
    (((0, 1), (2,), (3,)), (12, 2, 4, 4)),
    (((0, 2), (1,), (3,)), (12, 4, 2, 4)),
    (((0, 3), (1,), (2,)), (12, 4, 4, 2)),
    (((1, 2), (0,), (3,)), (12, 4, 4, 2)),
    (((1, 3), (0,), (2,)), (12, 4, 2, 4)),
    (((2, 3), (0,), (1,)), (12, 2, 4, 4)),
    (((0, 1), (2, 3)), (9, 1, 3, 3)),
    (((0, 2), (1, 3)), (9, 3, 1, 3)),
    (((0, 3), (1, 2)), (9, 3, 3, 1)),
    (((0,), (1, 2, 3)), (8, 2, 2, 2)),
    (((1,), (0, 2, 3)), (8, 2, 2, 2)),
    (((2,), (0, 1, 3)), (8, 2, 2, 2)),
    (((3,), (0, 1, 2)), (8, 2, 2, 2)),
    (((0, 1, 2, 3),), (5, 1, 1, 1)),
)


@dataclass(frozen=True)
class Table2Row:
    partition: tuple
    computed: tuple
    expected: tuple
    inequality_ok: bool

    @property
    def ok(self):
        return self.computed == self.expected and self.inequality_ok


@dataclass(frozen=True)
class Table2Report:
    rows: tuple

    @property
    def ok(self):
        return all(row.ok for row in self.rows)


def table2_check():
    """Recompute the star-versus-matchings extension table and check it."""
    star = Gadget(from_edge_list(5, [(0, i) for i in range(1, 5)]), (1, 2, 3, 4))
    matchings = [
        Gadget(from_edge_list(4, [(0, 1), (2, 3)]), (0, 1, 2, 3)),
        Gadget(from_edge_list(4, [(0, 2), (1, 3)]), (0, 1, 2, 3)),
        Gadget(from_edge_list(4, [(0, 3), (1, 2)]), (0, 1, 2, 3)),
    ]
    rows = []
    for part, expected in TABLE2_ROWS:
        computed = tuple(_extensions(gadget, part) for gadget in [star] + matchings)
        lam = computed[0]
        # the shrink factor 6/5 must survive every row: 5 lam >= 6 sum
        inequality_ok = 5 * lam >= 6 * sum(computed[1:])
        rows.append(Table2Row(part, computed, expected, inequality_ok))
    return Table2Report(tuple(rows))
