"""The ring construction, its ceiling, and gadget ratios.

ring_family chains m edited copies of a seed graph into a ring and
checks the closed form 2^m A^m - B^m for the number of spanning
forests, where A counts forests after deleting the chosen edge and B
is A minus the forests of the contraction.  upper_bound_fd is the
ceiling that rings of K_{d+1} - e give d-regular graphs.
min_ratio_check compares two gadgets over every partition of their
attachment vertices, giving the worst-case factor by which swapping one
gadget for the other can shrink the forest count of any host.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .counting import count_forests
from .errors import InputError
from .multigraph import (
    MultiGraph,
    contract_edge,
    delete_edge,
    from_edge_list,
    identify,
    is_connected,
)

DEFAULT_FD_CAP = 6
DEFAULT_DIRECT_CAP = 3


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


class RadicalBound(NamedTuple):
    """radicand^(1/index), with the largest integer factor pulled out."""

    radicand: int
    index: int
    outer: int
    inner: int
    factors: tuple

    def value(self):
        return self.outer * self.inner ** (1 / self.index)


def upper_bound_fd(d):
    """The ring-family ceiling [2 * F(K_{d+1} - e)]^(1/(d+1)) for d-regular graphs."""
    if type(d) is not int:
        raise InputError(f"d = {d!r} is not an int")
    if not 3 <= d <= DEFAULT_FD_CAP:
        raise InputError(f"d = {d} is outside 3..{DEFAULT_FD_CAP}")
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


class FamilyRow(NamedTuple):
    m: int
    forests: int
    root: float
    direct: object


class FamilySeries(NamedTuple):
    seed: MultiGraph
    edge: tuple
    order: int
    a_value: int
    b_value: int
    rows: tuple
    limit: float


def ring_family(g, u, v, m_list):
    """Chain m copies of g, broken at uv, into a ring; count exactly.

    Copy i keeps every edge except one copy of uv, and the ring edges
    run from copy i's v to copy (i+1)'s u.  m = 1 recovers g itself.
    Rows carry the closed-form count, the per-vertex root, and (for
    small m) an independent direct count of the constructed ring.
    """
    try:
        m_list = list(m_list)
    except TypeError:
        raise InputError(f"ring sizes {m_list!r} are not a collection of ints") from None
    for m in m_list:
        if type(m) is not int or m < 1:
            raise InputError(f"ring size m = {m!r} is not a positive int")
    if not is_connected(g):
        raise InputError("the ring construction needs a connected seed")
    cut = delete_edge(g, u, v)  # raises InputError when uv is missing
    if not is_connected(cut):
        raise InputError(f"edge {u}-{v} is a bridge, the broken ring would fall apart")
    a_value = count_forests(cut)
    b_value = a_value - count_forests(contract_edge(g, u, v))
    if not a_value > b_value >= 0:
        raise ValueError(f"ring invariant broke: A = {a_value}, B = {b_value}")
    r = g.n
    rows = []
    for m in sorted(set(m_list)):
        forests = 2**m * a_value**m - b_value**m
        root = math.exp(math.log(forests) / (m * r))
        direct = None
        if m <= DEFAULT_DIRECT_CAP:
            direct = count_forests(_ring_graph(g, u, v, m))
        rows.append(FamilyRow(m, forests, root, direct))
    limit = math.exp(math.log(2 * a_value) / r)
    return FamilySeries(g, (u, v), r, a_value, b_value, tuple(rows), limit)


def _ring_graph(g, u, v, m):
    """m copies of g less one uv copy, copy i's v joined to copy (i + 1)'s u."""
    n = g.n
    cut = delete_edge(g, u, v).edge_list()
    pairs = [(i * n + x, i * n + y) for i in range(m) for x, y in cut]
    pairs += [(i * n + v, (i + 1) % m * n + u) for i in range(m)]
    return from_edge_list(m * n, pairs)


class Gadget(NamedTuple):
    """A standalone piece with an ordered tuple of attachment vertices."""

    graph: MultiGraph
    attachments: tuple


class RatioRow(NamedTuple):
    partition: tuple
    numerator: int
    denominator: int
    ratio: object


class RatioReport(NamedTuple):
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
    # any attachment could meet a host, so each must be a vertex with an edge
    att = g.attachments
    if not isinstance(att, (tuple, list)):
        raise InputError(f"attachments {att!r} are not a tuple of vertices")
    for v in att:
        if type(v) is not int or not 0 <= v < g.graph.n:
            raise InputError(f"attachment {v!r} is not a vertex")
        if not g.graph._adj[v]:
            raise InputError(f"attachment {v} has no edge")
    if len(set(att)) != len(att):
        raise InputError(f"attachment list {att} repeats a vertex")


def _extensions(gadget, part):
    """The gadget's forest count with each block of attachment positions identified."""
    blocks = [[gadget.attachments[i] for i in block] for block in part]
    return count_forests(identify(gadget.graph, blocks))


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
        raise InputError(
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


class Table2Row(NamedTuple):
    partition: tuple
    computed: tuple
    expected: tuple
    inequality_ok: bool

    @property
    def ok(self):
        return self.computed == self.expected and self.inequality_ok


class Table2Report(NamedTuple):
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
