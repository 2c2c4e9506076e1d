"""Exact spanning-forest and spanning-tree counts, without recursion.

count_forests is a frontier dynamic program over a vertex order (Sekine,
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

count_trees is the fraction-free (Bareiss) determinant of the reduced
Laplacian, eliminating in the reverse of the same order so that fill-in
stays between vertices of one frontier.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .errors import EdgeAbsent, InvalidPartition, LoopRejected, TooLarge, VertexOutOfRange
from .multigraph import _build, _identify, contract_set, is_connected

FORESTS = "F"
TREES = "T"
# count_forests gives up with TooLarge once its state table passes this
# many frontier partitions.  A join at most doubles the table, so it never
# holds more than twice as many.  K11 peaks at 115975 states, K12 at 678570.
MAX_STATES = 2**18


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
    return _cached(cache, FORESTS, g, _forests)


def count_trees(g, cache=None):
    """Number of spanning trees of g; 0 when g is disconnected."""
    return _cached(cache, TREES, g, _trees)


def _cached(cache, kind, g, count):
    if cache is None:
        return count(g)
    key = (g.n, tuple(g.bundles()))
    got = cache.lookup(kind, key)
    if got is None:
        got = count(g)
        cache.insert(kind, key, got)
    return got


def _vertex_order(adj):
    """Each next vertex is a neighbour of the frontier that leaves it smallest.

    With an empty frontier the next component starts at a vertex of
    least degree.  Ties go to fewer unentered neighbours, then the
    lower id.  The candidates sit in a heap that gets a fresh entry
    whenever a cost changes.  A cost only falls, so a vertex's newest
    entry comes up before its older ones, which are skipped as entered.
    """
    n = len(adj)
    waiting = [len(a) for a in adj]  # neighbours not yet entered
    leaving = [0] * n  # entered neighbours whose last unentered neighbour this is
    entered = [False] * n
    starts = iter(sorted(range(n), key=lambda v: (len(adj[v]), v)))
    heap = []
    order = []

    def cost(v):
        return ((waiting[v] > 0) - leaving[v], waiting[v], v)

    def last_waiting(u):
        # entered u has one unentered neighbour left, which takes u off the frontier
        z = next(w for w in adj[u] if not entered[w])
        leaving[z] += 1
        return z

    while len(order) < n:
        while heap and entered[heap[0][2]]:
            heappop(heap)
        v = heappop(heap)[2] if heap else next(s for s in starts if not entered[s])
        entered[v] = True
        order.append(v)
        fresh = [w for w in adj[v] if not entered[w]]
        if waiting[v] == 1:
            last_waiting(v)
        for w in adj[v]:
            waiting[w] -= 1
            if entered[w] and waiting[w] == 1:
                fresh.append(last_waiting(w))
        for w in fresh:
            heappush(heap, cost(w))
    return order


def _forests(g):
    adj = g._adj
    order = _vertex_order(adj)
    rank = {v: i for i, v in enumerate(order)}
    last = [max([rank[v]] + [rank[w] for w in adj[v]]) for v in range(g.n)]
    frontier = []
    states = {(): 1}
    for i, v in enumerate(order):
        frontier.append(v)
        states = {s + (max(s) + 1 if s else 0,): c for s, c in states.items()}
        # edges whose earlier end leaves with them go first: the table shrinks sooner
        for u in sorted((u for u in adj[v] if rank[u] < i), key=lambda u: (last[u] != i, rank[u])):
            leaves = last[u] == i
            p = frontier.index(u)
            states = _join(states, p, frontier.index(v), adj[v][u], leaves)
            if leaves:
                del frontier[p]
        if last[v] == i:  # v leaves too: an edge from v to itself joins no blocks
            states = _join(states, len(frontier) - 1, len(frontier) - 1, 0, True)
            frontier.pop()
    return sum(states.values())


def _relabel(s):
    """Block labels renumbered in order of first appearance."""
    labels = {}
    return tuple([labels.setdefault(x, len(labels)) for x in s])


def _join(states, p, q, t, leaves):
    """Take the weight-t edge between frontier positions p and q, or not.

    With leaves set, position p leaves the frontier afterwards.
    """
    out = {}
    for s, c in states.items():
        a, b = s[p], s[q]
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            m = tuple([lo if x == hi else x - (x > hi) for x in s])
            if leaves:
                m = _relabel(m[:p] + m[p + 1 :])
            out[m] = out.get(m, 0) + c * t
        if leaves:
            s = _relabel(s[:p] + s[p + 1 :])
        out[s] = out.get(s, 0) + c
    if len(out) > MAX_STATES:
        raise TooLarge(f"over {MAX_STATES} frontier states: the graph is too dense to count")
    return out


def _trees(g):
    if g.n == 0 or not is_connected(g):
        return 0
    adj = g._adj
    # eliminating in reverse keeps fill-in inside the frontiers; the
    # reduced Laplacian drops the first vertex
    order = _vertex_order(adj)[:0:-1]
    pos = {v: i for i, v in enumerate(order)}
    rows = []  # an entry is (value, the step it is at)
    for v in order:
        row = {pos[w]: (-t, 0) for w, t in adj[v].items() if w in pos}
        row[pos[v]] = (sum(adj[v].values()), 0)
        rows.append(row)
    # The matrix is symmetric positive definite, so no pivot is zero and
    # the rows that step k must eliminate are the columns of row k.  An
    # entry whose column row k lacks would only be scaled by
    # pivots[k + 1] / pivots[k]; it is scaled when next read instead.
    pivots = [1]

    def at(entry, k):
        x, level = entry
        return x if level == k else x * pivots[k] // pivots[level]

    for k in range(len(rows)):
        row = {j: at(e, k) for j, e in rows[k].items()}
        p = row.pop(k)
        prev = pivots[k]
        for i in row:
            r = rows[i]
            a = at(r.pop(k), k)
            for j, x in row.items():
                r[j] = ((at(r[j], k) if j in r else 0) * p - a * x) // prev, k + 1
        pivots.append(p)
    return pivots[-1]


def count_forests_bruteforce(g, cap=24):
    """Count acyclic edge subsets directly; parallel copies distinguishable.

    A subset containing two copies of a parallel bundle is cyclic, so it
    is never counted.  Raises TooLarge above the edge cap.
    """
    if g.m > cap:
        raise TooLarge(f"{g.m} edges exceeds the brute-force cap {cap}")
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


def count_forests_separating(g, vset):
    """Forests in which all of vset's vertices lie in distinct components."""
    vs = sorted(set(vset))
    if not vs:
        raise VertexOutOfRange("need at least one vertex to separate")
    return count_forests(contract_set(g, vs))


def extension_count(g, gadget_edges, partition):
    """Forest count of the gadget with each partition block identified.

    gadget_edges is a multiset of (u, v) pairs taken from g; partition
    is an iterable of blocks of gadget vertices.  The union of the
    blocks must cover every gadget vertex that also meets an edge of g
    outside the gadget (its attachment vertices); blocks over further
    gadget vertices are allowed, since any host could attach there.
    """
    gadget = {}
    for u, v in gadget_edges:
        if u == v:
            raise LoopRejected(f"gadget edge ({u}, {v}) is a loop")
        key = (u, v) if u < v else (v, u)
        gadget[key] = gadget.get(key, 0) + 1
    for (u, v), t in gadget.items():
        if g.multiplicity(u, v) < t:
            raise EdgeAbsent(f"gadget uses {t} copies of {u}-{v}, graph has fewer")
    gverts = set()
    for u, v in gadget:
        gverts.add(u)
        gverts.add(v)

    blocks = [tuple(sorted(set(b))) for b in partition]
    covered = set()
    for b in blocks:
        if not b:
            raise InvalidPartition("empty block")
        for x in b:
            if x not in gverts:
                raise InvalidPartition(f"block vertex {x} is not a gadget vertex")
            if x in covered:
                raise InvalidPartition(f"vertex {x} appears in two blocks")
            covered.add(x)
    gadget_deg = {}
    for (u, v), t in gadget.items():
        gadget_deg[u] = gadget_deg.get(u, 0) + t
        gadget_deg[v] = gadget_deg.get(v, 0) + t
    for w in sorted(gverts):
        if g.degree(w) > gadget_deg[w] and w not in covered:
            raise InvalidPartition(f"attachment vertex {w} is not in any block")
    # the vertices of g outside the gadget stay isolated: a factor of 1
    return count_forests(_identify(_build(g.n, gadget), blocks))
