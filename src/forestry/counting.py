"""Exact spanning-forest and spanning-tree counts, without recursion.

Both counts are one frontier dynamic program over a vertex order (Sekine,
Imai & Tani, ISAAC 1995; Kawahara et al., IEICE Trans. E100-A, 2017).
The frontier holds the entered vertices that still have a neighbour to
come.  A state, a partition of the frontier into the trees of a partial
forest as block labels in order of first appearance, maps to the number
of forests on the edges seen so far that induce it.  A bundle of
multiplicity t is one edge of weight t: a forest takes at most one copy,
and only to join two blocks.  A vertex leaves the frontier with its last
edge; the count is the sum of the final weights, so disconnected input
needs no special case.  The cost grows with the Bell number of the
widest frontier, which the greedy vertex order keeps small.

The order and each vertex's steps come from one pass over the
adjacency, _plan, which returns them as one list.  It keeps for every
vertex the number of its neighbours still to enter.  When v enters, an
entered neighbour u leaves on edge uv exactly when v was the last of
them, so that u's number drops to 0; v leaves as soon as it enters
exactly when its own number is already 0.

What one join does to one state depends on nothing but the state, the
position p that takes the edge and whether p leaves: the other end q
is always the last position, the vertex just entered, and the edge's
weight only scales a count.  So a step worked out for one graph holds
for every graph, and _join keeps each step in one table for the whole
process, keyed by (q, p, leaves) and then by the state.  It keeps only
frontiers of up to TABLE_WIDTH vertices, so the table stays below 3116
steps however dense the input; a wider state is worked out each time.
The step that gives the entering vertex its own block is read the same
way from _ENTRIES, keyed by the state before it: only states narrower
than TABLE_WIDTH are kept, at most 76 of them.

A spanning tree is a spanning forest with one block, so count_trees
runs the same program on connected input and drops a state once a block
closes early: p leaves without taking the edge, no other position shares
its block, and others remain.  Each _STEPS entry keeps that bit as well.

The forests that keep a vertex set in pairwise distinct trees, and a
gadget's extension counts, are count_forests(multigraph.identify(g, blocks)).
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import InputError
from .multigraph import is_connected

FORESTS = "F"
TREES = "T"
# Both counts give up with InputError once their state table passes this
# many frontier partitions.  A join at most doubles the table, so it never
# holds more than twice as many.  Counting forests, K11 peaks at 115975
# states and K12 at 678570.
MAX_STATES = 2**18
# count_forests_bruteforce refuses more edges than this: it visits every
# acyclic edge subset, and a tree with this many edges already has 2^24.
BRUTE_FORCE_CAP = 24
# _STEPS holds frontiers of at most this many vertices.  A width-w frontier
# has Bell(w) states and fewer than 2w (p, leaves) pairs, so the table never
# holds more than the sum over w <= TABLE_WIDTH of 2w Bell(w) steps: 3116
# for a width of 6, 15394 for 7.
TABLE_WIDTH = 6
_STEPS = {}  # (q, p, leaves) -> {state: (merged state or None, kept state, closes)}


# state -> the state with the entering vertex's singleton block added.  _count
# reads it only for states narrower than TABLE_WIDTH, so it holds at most the
# sum over w < TABLE_WIDTH of Bell(w) entries: 76 for a width of 6.
class _Entries(dict):
    def __missing__(self, s):
        t = self[s] = s + (max(s) + 1 if s else 0,)
        return t


_ENTRIES = _Entries()


class MemoCache:
    """Whole-input count table keyed by kind and (n, the graph's bundles).

    Entries never change once inserted; inserting a different value for
    an existing key raises, which would mean a counting bug upstream.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._table = {}

    def lookup(self, kind, key):
        got = self._table.get((kind, key))
        if got is None:
            self.misses += 1
        else:
            self.hits += 1
        return got

    def insert(self, kind, key, value):
        k = (kind, key)
        old = self._table.get(k)
        if old is not None:
            if old != value:
                raise ValueError(f"memo entry for {k!r} changed: {old} -> {value}")
            return
        self._table[k] = value

    def __len__(self):
        return len(self._table)


def count_forests(g, cache=None):
    """Number of spanning forests of g (exact integer)."""
    return _cached(cache, FORESTS, g)


def count_trees(g, cache=None):
    """Number of spanning trees of g; 0 when g is empty or disconnected."""
    return _cached(cache, TREES, g)


def _cached(cache, kind, g):
    if cache is None:
        return _count(g, kind == TREES)
    key = (g.n, tuple(g.bundles()))
    got = cache.lookup(kind, key)
    if got is None:
        got = _count(g, kind == TREES)
        cache.insert(kind, key, got)
    return got


def _plan(adj):
    """[(v, earlier, leaves)] for each vertex v in the greedy order.

    earlier holds a (u, u leaves on edge uv) pair for each neighbour u
    entered before v, the leaving ones first so that the state table
    shrinks sooner, and each group in entry order; leaves says whether
    v leaves as soon as it enters.

    Each next vertex is a neighbour of the frontier that leaves it
    smallest.  With an empty frontier the next component starts at a
    vertex of least degree.  Ties go to fewer unentered neighbours,
    then the lower id.  The candidates sit in a heap that gets a fresh
    entry whenever a cost changes.  A cost only falls, so a vertex's
    newest entry comes up before its older ones, which are skipped as
    entered.
    """
    n = len(adj)
    waiting = [len(a) for a in adj]  # neighbours not yet entered
    rest = [sum(a) for a in adj]  # sum of those neighbours: the last one, once one is left
    leaving = [0] * n  # entered neighbours whose last unentered neighbour this is
    rank = [n] * n  # entry position; n while unentered
    starts = iter(sorted(range(n), key=waiting.__getitem__))
    heap = []
    plan = []
    for i in range(n):
        while heap and rank[heap[0][2]] < n:
            heappop(heap)
        v = heappop(heap)[2] if heap else next(s for s in starts if rank[s] == n)
        rank[v] = i
        fresh = []
        earlier = []
        if waiting[v] == 1:
            # v's one unentered neighbour takes it off the frontier
            leaving[rest[v]] += 1
        for w in adj[v]:
            k = waiting[w] = waiting[w] - 1
            rest[w] -= v
            if rank[w] == n:
                fresh.append(w)
            else:
                earlier.append((w, k == 0))  # w leaves if v was its last unentered neighbour
                if k == 1:
                    z = rest[w]
                    leaving[z] += 1
                    fresh.append(z)
        for w in fresh:
            heappush(heap, ((waiting[w] > 0) - leaving[w], waiting[w], w))
        earlier.sort(key=lambda e: (not e[1], rank[e[0]]))
        plan.append((v, earlier, waiting[v] == 0))
    return plan


def _count(g, trees):
    if trees and (g.n == 0 or not is_connected(g)):
        return 0
    adj = g._adj
    frontier = []
    states = {(): 1}
    for v, earlier, leaves_now in _plan(adj):
        q = len(frontier)
        if q < TABLE_WIDTH:
            states = {_ENTRIES[s]: c for s, c in states.items()}
        else:
            states = {s + (max(s) + 1,): c for s, c in states.items()}
        frontier.append(v)
        for u, leaves in earlier:
            p = frontier.index(u)
            states = _join(states, p, q, adj[v][u], leaves, trees)
            if leaves:
                del frontier[p]
                q -= 1
        if leaves_now:  # v leaves too: an edge from v to itself joins no blocks
            states = _join(states, q, q, 0, True, trees)
            frontier.pop()
    return sum(states.values())


def _relabel(s):
    """Block labels renumbered in order of first appearance."""
    labels = {}
    return tuple([labels.setdefault(x, len(labels)) for x in s])


def _join(states, p, q, t, leaves, trees):
    """Take the weight-t edge between frontier positions p and q, or not.

    With leaves set, position p leaves the frontier afterwards; with trees
    set too, not taking the edge is dropped where that closes p's block.
    q is the last position, so it gives the width: up to TABLE_WIDTH,
    each state's step is read from _STEPS, or worked out and kept there.
    """
    row = _STEPS.setdefault((q, p, leaves), {}) if q < TABLE_WIDTH else None
    out = {}
    for s, c in states.items():
        step = None if row is None else row.get(s)
        if step is None:
            a, b = s[p], s[q]
            m = None
            if a != b:
                lo, hi = (a, b) if a < b else (b, a)
                m = tuple([lo if x == hi else x - (x > hi) for x in s])
                if leaves:
                    m = _relabel(m[:p] + m[p + 1 :])
            k = _relabel(s[:p] + s[p + 1 :]) if leaves else s
            step = m, k, leaves and q > 0 and s.count(a) == 1
            if row is not None:
                row[s] = step
        m, k, closes = step
        if m is not None:
            out[m] = out.get(m, 0) + c * t
        if not (trees and closes):
            out[k] = out.get(k, 0) + c
    if len(out) > MAX_STATES:
        raise InputError(f"over {MAX_STATES} frontier states: the graph is too dense to count")
    return out


def count_forests_bruteforce(g):
    """Count acyclic edge subsets directly; parallel copies distinguishable.

    A subset containing two copies of a parallel bundle is cyclic, so it
    is never counted.  Raises InputError above BRUTE_FORCE_CAP edges.
    """
    if g.m > BRUTE_FORCE_CAP:
        raise InputError(f"{g.m} edges exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    edges = g.edge_list()
    parent = list(range(g.n))
    size = [1] * g.n

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(i):
        if i == len(edges):
            return 1
        total = rec(i + 1)
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            total += rec(i + 1)
            parent[rv] = rv
            size[ru] -= size[rv]
        return total

    return rec(0)

