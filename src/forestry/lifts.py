"""Lifting at an even-degree vertex and the lift constants.

A lift at x picks two edges xy1, xy2 with y1 != y2, removes them and
adds the edge y1y2.  A complete lift performs m such lifts at a vertex
of degree 2m and then deletes the (now isolated) vertex.  The result
never has loops, and every other vertex keeps its degree.

lift_constant(m, kind) minimizes prod(d_i + 1) / F(X) over all degree
sequences d_1..d_k summing to 2m and all connected loopless multigraphs
X with those degrees (kind "trees" uses prod(d_i) / tau(X) instead).
The minimum governs how much the forest or tree count can shrink under
a complete lift.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import NamedTuple

from .counting import count_forests, count_trees
from .errors import InputError
from .multigraph import (
    MultiGraph,
    _components,
    _derive,
    canonical_key,
    from_edge_list,
    is_connected,
)

DEFAULT_CONSTANT_CAP = 5


class LiftConstant(NamedTuple):
    m: int
    kind: str
    value: Fraction
    degrees: tuple
    witness: MultiGraph


def _half_degree(g, x):
    d = g.degree(x)
    if d % 2:
        raise InputError(f"vertex {x} has odd degree {d}, lifts need degree 2m")
    return d // 2


def _endpoint_multiset(g, x):
    """The ends of x's edges, sorted: each neighbor once per parallel copy."""
    out = []
    for y, t in g._adj[x].items():  # rows are ascending
        out += [y] * t
    return out


def _pairings(ends):
    """Each pairing of the sorted list ends once, as a sorted tuple of pairs.

    No pair joins two equal ends.  Pairings come out in lexicographic order.
    """

    def rec(rest, acc):
        if not rest:
            yield tuple(acc)
            return
        a = rest[0]
        # a pair repeating the previous first end takes no smaller partner,
        # so every multiset of pairs is built in sorted order only
        low = acc[-1][1] if acc and acc[-1][0] == a else a
        last = None
        for i in range(1, len(rest)):
            b = rest[i]
            if b == a or b == last or b < low:
                continue
            last = b
            acc.append((a, b))
            yield from rec(rest[1:i] + rest[i + 1 :], acc)
            acc.pop()

    return rec(ends, [])


def lift_feasible_multigraph(g, x):
    """Can some complete lift of x leave a connected multigraph?

    True exactly when no neighbor hogs more than half of x's edges and
    g - x has at most m + 1 components.  The components are counted on g
    itself with x left out, and only until there are more than m + 1, so
    no graph is built.
    """
    m = _half_degree(g, x)
    if max(g._adj[x].values(), default=0) > m:
        return False
    return len(_components(g._adj, x, m + 1)) <= m + 1


def enumerate_lifts(g, x):
    """Each distinct pairing of x's edge ends, as (pairs, lifted multigraph).

    pairs is a sorted tuple of pairs of g's ids.  Pairings are multisets of
    pairs (parallel copies of an edge are interchangeable), not isomorphism
    classes of the result, and come out in lexicographic order.
    """
    _half_degree(g, x)
    # x goes, and the ids above it shift down by one
    vmap = [v - (v > x) if v != x else None for v in range(g.n)]
    return [
        (pairs, _derive(g, g.n - 1, vmap, [(vmap[a], vmap[b]) for a, b in pairs]))
        for pairs in _pairings(_endpoint_multiset(g, x))
    ]


def _partitions(total):
    # descending partitions of total into positive parts
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return rec(total, total)


def graphs_with_degrees(seq):
    """Connected loopless multigraphs with the given degree sequence, up to iso.

    Each graph is a pairing of the ends, vertex v repeated seq[v] times;
    the first graph of each isomorphism class is kept.
    """
    k = len(seq)
    found = {}
    for pairing in _pairings([v for v in range(k) for _ in range(seq[v])]):
        g = from_edge_list(k, pairing)
        if is_connected(g):
            found.setdefault(canonical_key(g), g)
    return list(found.values())


def lift_constant(m, kind="forests", cache=None):
    """The exact minimum shrink factor over all complete lifts of order m."""
    if kind not in ("forests", "trees"):
        raise InputError(f"kind must be 'forests' or 'trees', got {kind!r}")
    if type(m) is not int:
        raise InputError(f"m = {m!r} is not an int")
    if not 1 <= m <= DEFAULT_CONSTANT_CAP:
        raise InputError(f"m = {m} is outside 1..{DEFAULT_CONSTANT_CAP}")
    best = None
    best_fields = None
    for seq in _partitions(2 * m):
        for x_graph in graphs_with_degrees(seq):
            if kind == "forests":
                num = prod(d + 1 for d in seq)
                den = count_forests(x_graph, cache)
            else:
                num = prod(seq)
                den = count_trees(x_graph, cache)
            value = Fraction(num, den)
            rank = (value, x_graph.n, canonical_key(x_graph))
            if best is None or rank < best:
                best = rank
                best_fields = (value, tuple(seq), x_graph)
    value, seq, witness = best_fields
    return LiftConstant(m, kind, value, seq, witness)
