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

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .counting import count_forests, count_trees
from .errors import CapExceeded, InvalidPlan, NotSimple, OddDegree
from .multigraph import (
    MultiGraph,
    _build,
    _derive,
    _without,
    canonical_key,
    components,
    delete_vertex,
    is_connected,
)

DEFAULT_CONSTANT_CAP = 5
SIMPLE_SEARCH_DEGREE_CAP = 8


@dataclass(frozen=True)
class LiftPlan:
    """A complete-lift recipe: the center and the pairing of its edge ends."""

    center: int
    pairs: tuple


@dataclass(frozen=True)
class LiftConstant:
    m: int
    kind: str
    value: Fraction
    degrees: tuple
    witness: MultiGraph


def _half_degree(g, x):
    d = g.degree(x)
    if d % 2:
        raise OddDegree(f"vertex {x} has odd degree {d}, lifts need degree 2m")
    return d // 2


def _endpoint_multiset(g, x):
    out = []
    for y in sorted(g.neighbors(x)):
        out.extend([y] * g.multiplicity(x, y))
    return out


def lift_feasible_multigraph(g, x):
    """Can some complete lift of x leave a connected multigraph?

    True exactly when no neighbor hogs more than half of x's edges and
    g - x has at most m + 1 components.
    """
    m = _half_degree(g, x)
    for y in g.neighbors(x):
        if g.multiplicity(x, y) > m:
            return False
    return len(components(delete_vertex(g, x))) <= m + 1


def lift_feasible_simple(g, x):
    """Can x be completely lifted with every added edge new to g?

    Requires a perfect matching on N(x) inside the complement of the
    induced neighborhood.  Exhaustive search, capped at degree 8.
    """
    for u, v, t in g.bundles():
        if t > 1:
            raise NotSimple(f"parallel bundle {u}-{v}, simple-mode lift undefined")
    d = g.degree(x)
    if d > SIMPLE_SEARCH_DEGREE_CAP:
        raise CapExceeded(f"degree {d} exceeds the pairing-search cap")
    _half_degree(g, x)
    nbrs = sorted(g.neighbors(x))

    def match(rest):
        if not rest:
            return True
        a = rest[0]
        for i in range(1, len(rest)):
            if g.multiplicity(a, rest[i]) == 0:
                if match(rest[1:i] + rest[i + 1 :]):
                    return True
        return False

    return match(nbrs)


def _validate_plan(g, x, plan, simple):
    if plan.center != x:
        raise InvalidPlan(f"plan is centered at {plan.center}, not {x}")
    ends = []
    for pair in plan.pairs:
        if len(pair) != 2:
            raise InvalidPlan(f"pair {pair!r} is not a 2-tuple")
        a, b = pair
        if a == b:
            raise InvalidPlan(f"pair ({a}, {b}) would create a loop")
        if simple and g.multiplicity(a, b):
            raise InvalidPlan(f"pair ({a}, {b}) is already an edge, result not simple")
        ends.extend(pair)
    if sorted(ends) != _endpoint_multiset(g, x):
        raise InvalidPlan("pairs do not use each edge at the center exactly once")


def complete_lift(g, x, plan, simple=False):
    """Apply a complete lift of x along plan; the result drops x."""
    _validate_plan(g, x, plan, simple)
    return _lift(g, x, plan.pairs)


def _lift(g, x, pairs):
    """The complete lift of x along pairs, which the caller has checked."""
    vmap = _without(g.n, x)
    return _derive(g, g.n - 1, vmap, [(vmap[a], vmap[b]) for a, b in pairs])


def enumerate_lifts(g, x, simple=False):
    """All distinct pairings at x with their lifted multigraphs.

    Pairings are deduplicated as multisets of pairs (two parallel copies
    of an edge are interchangeable), not by the isomorphism class of the
    result, and come out in lexicographic order.
    """
    _half_degree(g, x)
    ends = _endpoint_multiset(g, x)
    pairings = []

    def rec(rest, acc):
        if not rest:
            pairings.append(tuple(acc))
            return
        a = rest[0]
        tried = set()
        for i in range(1, len(rest)):
            b = rest[i]
            if b == a or b in tried:
                continue
            tried.add(b)
            acc.append((a, b))
            rec(rest[1:i] + rest[i + 1 :], acc)
            acc.pop()

    rec(ends, [])
    out = []
    for pairing in pairings:
        if not (simple and any(g.multiplicity(a, b) for a, b in pairing)):
            out.append((LiftPlan(x, pairing), _lift(g, x, pairing)))
    return out


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
    """Connected loopless multigraphs with the given degree sequence, up to iso."""
    k = len(seq)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rem = list(seq)
    seen = set()
    found = []

    def rec(idx, mults):
        if idx == len(pairs):
            if any(rem):
                return
            g = _build(k, dict(mults))
            if is_connected(g):
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    found.append(g)
            return
        i, j = pairs[idx]
        # every pair touching a vertex below i is behind us
        if any(rem[v] for v in range(i)):
            return
        for t in range(min(rem[i], rem[j]), -1, -1):
            rem[i] -= t
            rem[j] -= t
            if t:
                mults.append(((i, j), t))
            rec(idx + 1, mults)
            if t:
                mults.pop()
            rem[i] += t
            rem[j] += t

    rec(0, [])
    return found


def lift_constant(m, kind="forests", cap=DEFAULT_CONSTANT_CAP, cache=None):
    """The exact minimum shrink factor over all complete lifts of order m."""
    if kind not in ("forests", "trees"):
        raise ValueError(f"kind must be 'forests' or 'trees', got {kind!r}")
    if not 1 <= m <= cap:
        raise CapExceeded(f"m = {m} is outside 1..{cap}")
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
