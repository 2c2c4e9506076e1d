"""Loopless multigraphs on vertices 0..n-1 with exact minor operations.

Parallel edges are stored as per-pair multiplicities.  Contraction
identifies the two endpoints, drops the loops this would create and
keeps parallel edges, which is the convention all counting code in this
package depends on.  Operations never mutate their argument; they build
a new graph.
"""

from __future__ import annotations

from . import canon
from .errors import EdgeAbsent, LoopRejected, VertexOutOfRange


class MultiGraph:
    __slots__ = ("n", "_adj", "_m", "_key")

    def __init__(self, n, adj=None):
        # adj is a list of {neighbor: multiplicity} dicts with ascending
        # keys, already symmetric; use from_edge_list for raw input.
        # Omitting it gives the edgeless graph on n vertices.
        if n < 0:
            raise VertexOutOfRange(f"vertex count {n} is negative")
        self.n = n
        self._adj = [{} for _ in range(n)] if adj is None else adj
        self._m = sum(sum(d.values()) for d in self._adj) // 2
        self._key = None

    @property
    def m(self):
        """Edge count, counting multiplicities."""
        return self._m

    def degree(self, v):
        self._check(v)
        return sum(self._adj[v].values())

    def multiplicity(self, u, v):
        self._check(u)
        self._check(v)
        if u == v:
            return 0
        return self._adj[u].get(v, 0)

    def neighbors(self, v):
        self._check(v)
        return list(self._adj[v])

    def bundles(self):
        """Yield (u, v, multiplicity) with u < v in ascending order."""
        for u in range(self.n):
            for v, t in self._adj[u].items():
                if u < v:
                    yield u, v, t

    def edge_list(self):
        """Every edge copy as a (u, v) pair, u < v, parallel copies repeated."""
        out = []
        for u, v, t in self.bundles():
            out.extend([(u, v)] * t)
        return out

    def _check(self, v):
        if not isinstance(v, int) or v < 0 or v >= self.n:
            raise VertexOutOfRange(f"vertex {v!r} not in 0..{self.n - 1}")

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __repr__(self):
        pairs = ", ".join(
            f"{u}-{v}" + (f"x{t}" if t > 1 else "") for u, v, t in self.bundles()
        )
        return f"MultiGraph(n={self.n}, [{pairs}])"


def _build(n, mults):
    """mults: {(u, v) with u < v: multiplicity > 0} -> MultiGraph."""
    adj = [{} for _ in range(n)]
    # lexicographic pair order makes every neighbor dict ascending
    for (u, v), t in sorted(mults.items()):
        if t <= 0:
            continue
        adj[u][v] = t
        adj[v][u] = t
    return MultiGraph(n, adj)


def from_edge_list(n, pairs):
    if not isinstance(n, int) or n < 0:
        raise VertexOutOfRange(f"vertex count {n!r} must be a nonnegative int")
    mults = {}
    for u, v in pairs:
        if not isinstance(u, int) or not isinstance(v, int):
            raise VertexOutOfRange(f"edge ({u!r}, {v!r}) has non-integer endpoint")
        if u == v:
            raise LoopRejected(f"loop at vertex {u} rejected")
        if not (0 <= u < n) or not (0 <= v < n):
            raise VertexOutOfRange(f"edge ({u}, {v}) out of range for n={n}")
        key = (u, v) if u < v else (v, u)
        mults[key] = mults.get(key, 0) + 1
    return _build(n, mults)


def _derive(g, n, vmap, extra=()):
    """The graph on n vertices with g's bundles sent through vmap, plus extra pairs.

    vmap[v] is v's new id, or None to drop v with its edges.  Bundles that
    land on one pair merge, bundles that land on one vertex are dropped,
    and each extra (u, v) pair, in new ids, adds one copy.  Callers have
    already checked their arguments.
    """
    mults = {}
    for u, v, t in g.bundles():
        a, b = vmap[u], vmap[v]
        if a is not None and b is not None and a != b:
            key = (a, b) if a < b else (b, a)
            mults[key] = mults.get(key, 0) + t
    for a, b in extra:
        key = (a, b) if a < b else (b, a)
        mults[key] = mults.get(key, 0) + 1
    return _build(n, mults)


def relabel(g, perm):
    """Apply a bijection perm (perm[old] = new) to vertex ids."""
    if sorted(perm) != list(range(g.n)):
        raise VertexOutOfRange("perm is not a bijection on 0..n-1")
    return _derive(g, g.n, perm)


def induced(g, vertices):
    """Subgraph induced on the given vertices, relabeled to 0..k-1 by rank."""
    vs = sorted(set(vertices))
    for v in vs:
        g._check(v)
    vmap = [None] * g.n
    for i, v in enumerate(vs):
        vmap[v] = i
    return _derive(g, len(vs), vmap)


def delete_edge(g, u, v):
    """Remove one copy of the edge uv."""
    return _remove_copies(g, u, v, 1)


def delete_bundle(g, u, v):
    """Remove every parallel copy between u and v."""
    return _remove_copies(g, u, v, g.multiplicity(u, v))


def _remove_copies(g, u, v, k):
    t = g.multiplicity(u, v)
    if t == 0:
        raise EdgeAbsent(f"no edge between {u} and {v}")
    mults = {(a, b): s for a, b, s in g.bundles()}
    mults[(u, v) if u < v else (v, u)] = t - k  # _build drops a bundle at 0
    return _build(g.n, mults)


def delete_vertex(g, v):
    """Remove v and its edges; ids above v shift down by one."""
    g._check(v)
    return _derive(g, g.n - 1, _without(g.n, v))


def _without(n, x):
    """The vertex map that drops x and shifts the ids above it down."""
    return [v - (v > x) if v != x else None for v in range(n)]


def contract_edge(g, u, v):
    """Identify the endpoints of edge uv, dropping the uv bundle.

    The merged vertex takes the min(u, v) slot; ids above max(u, v)
    shift down by one.  Parallel edges arising from common neighbors
    are kept (multiplicities add).
    """
    if g.multiplicity(u, v) == 0:
        raise EdgeAbsent(f"no edge between {u} and {v} to contract")
    return _identify(g, [(u, v)])


def contract_set(g, vset):
    """Identify all vertices of vset into one, adjacency not required.

    Edges inside vset are dropped (they would become loops); edges from
    outside accumulate on the merged vertex, which takes the min(vset)
    slot.  Ids of removed vertices are closed up, preserving the order
    of the survivors.
    """
    vs = sorted(set(vset))
    if not vs:
        raise VertexOutOfRange("contract_set needs at least one vertex")
    for v in vs:
        g._check(v)
    if len(vs) == 1:
        return g
    return _identify(g, [vs])


def _identify(g, groups):
    """Merge each of the disjoint vertex groups into its least member.

    Edges inside a group are dropped; ids of the removed vertices are
    closed up, preserving the order of the survivors.
    """
    rep = list(range(g.n))
    for vs in groups:
        lo = min(vs)
        for v in vs:
            rep[v] = lo
    newid = []
    nid = 0
    for v in range(g.n):
        newid.append(nid)
        nid += rep[v] == v
    return _derive(g, nid, [newid[r] for r in rep])


def components(g):
    """Vertex sets of connected components, each sorted, ordered by min."""
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g._adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def is_connected(g):
    return len(components(g)) <= 1


def degree_counts(g):
    """Map degree -> number of vertices of that degree."""
    out = {}
    for v in range(g.n):
        d = g.degree(v)
        out[d] = out.get(d, 0) + 1
    return out


def canonical_key(g):
    """Isomorphism-invariant bytes; equal keys iff isomorphic graphs."""
    if g._key is None:
        g._key = canon.canonical_key(g.n, g._adj)
    return g._key


def automorphisms(g):
    """All automorphisms as tuples sigma with sigma[v] the image of v."""
    return canon.automorphisms(g.n, g._adj)


def canonical_search(g):
    """(key, automorphism generators, canonical order) from one search.

    See canon.search; the key is cached, so canonical_key(g) is free after.
    """
    key, gens, order = canon.search(g.n, g._adj)
    g._key = key
    return key, gens, order
