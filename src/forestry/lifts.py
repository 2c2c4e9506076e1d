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

Lifts and constants both pair up the ends of a pattern: x's edge
multiplicities, or a degree sequence.  The process-wide table _PAIRINGS holds
each pattern of at most TABLE_ENDS ends (42, no graphs); wider ones are searched
lazily, so enumerate_lifts can refuse over MAX_LIFTS lifts before building one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import prod
from typing import NamedTuple

from .counting import count_forests, count_trees
from .errors import InputError
from .multigraph import MultiGraph, _components, _derive_each, canonical_key, is_connected

DEFAULT_CONSTANT_CAP = 5
# enumerate_lifts refuses a centre with more lifts than this, the pairings
# of 12 distinct ends: every centre of degree at most 12 is accepted, and
# so are the stars K1,2 to K1,12, but not K1,14 (135135 lifts) and larger.
MAX_LIFTS = 10395
# _PAIRINGS keeps the patterns of at most this many ends.  There are 2^(e-1)
# patterns (compositions) of e ends, so it holds at most 2 + 8 + 32 = 42
# entries, each of at most 5 * 3 * 1 = 15 pairings.
TABLE_ENDS = 6


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


def _work_out(pattern):
    """The pairings of pattern, found one at a time by a search without recursion.

    Each pair takes the least index a with ends left and the least partner b > a
    not below a's last one.  A branch stops once the ends left cannot pair, and
    the last pair, which has no choice, is yielded without being placed.
    """
    counts, k, acc, left = list(pattern), len(pattern), [], sum(pattern)
    if 2 * max(counts, default=0) > left:
        return
    if not left:
        yield ()
        return
    a, b = 0, 1
    while True:
        while not counts[a]:  # an end is left at a or above it
            a, b = a + 1, a + 2
        while b < k and not counts[b]:
            b += 1
        if b < k and left == 2:
            yield (*acc, (a, b))
        elif b < k:
            counts[a] -= 1
            counts[b] -= 1
            left -= 2
            acc.append((a, b))
            # once a is out, every end left is above it
            if counts[a] or 2 * max(counts[a + 1 :]) <= left:
                continue
        if not acc:
            return
        a, b = acc.pop()  # back up: undo the last pair, try a's next partner
        counts[a] += 1
        counts[b] += 1
        left += 2
        b += 1


class _Table(dict):
    def __missing__(self, pattern):
        found = _work_out(pattern)
        if min(pattern, default=0) > 0 and sum(pattern) in range(2, TABLE_ENDS + 1, 2):
            found = self[pattern] = tuple(found)
        return found


_PAIRINGS = _Table()


def _pairings(pattern):
    """Each pairing of pattern[i] ends at each i once: sorted pairs i < j, in order."""
    return _PAIRINGS[pattern]


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
    classes of the result, and come out in lexicographic order.  A centre
    with more than MAX_LIFTS pairings is refused before any lift is built.
    """
    _half_degree(g, x)
    row = g._adj[x]
    ys = list(row)  # ascending, so index pairs map to sorted id pairs
    found = list(islice(_pairings(tuple(row.values())), MAX_LIFTS + 1))
    if len(found) > MAX_LIFTS:
        raise InputError(f"vertex {x} has more than {MAX_LIFTS} complete lifts")
    found = [tuple([(ys[i], ys[j]) for i, j in p]) for p in found]
    # x goes, and the ids above it shift down by one
    vmap = [v - (v > x) if v != x else None for v in range(g.n)]
    return list(zip(found, _derive_each(g, g.n - 1, vmap, found)))


def _partitions(total, cap=None):
    # descending partitions of total into positive parts, none above cap
    if total == 0:
        yield ()
    for first in range(min(total, cap or total), 0, -1):
        for tail in _partitions(total - first, first):
            yield (first,) + tail


def graphs_with_degrees(seq):
    """Connected loopless multigraphs with the given degree sequence, up to iso.

    Each graph is a pairing of the ends, seq[v] of them at vertex v;
    the first graph of each isomorphism class is kept.
    """
    k = len(seq)
    found = {}
    for g in _derive_each(MultiGraph(k), k, range(k), _pairings(tuple(seq))):
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
    for seq in _partitions(2 * m):
        for x_graph in graphs_with_degrees(seq):
            if kind == "forests":
                value = Fraction(prod(d + 1 for d in seq), count_forests(x_graph, cache))
            else:
                value = Fraction(prod(seq), count_trees(x_graph, cache))
            rank = (value, x_graph.n, canonical_key(x_graph))
            if best is None or rank < best[0]:
                best = (rank, seq, x_graph)
    ((value, _, _), seq, witness) = best
    return LiftConstant(m, kind, value, tuple(seq), witness)
