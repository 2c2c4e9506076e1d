"""Loopless multigraphs on vertices 0..n-1 with exact minor operations.

Parallel edges are stored as per-pair multiplicities.  identify merges
each block of vertices into one vertex, drops the loops this would
create and keeps parallel edges, which is the convention all counting
code in this package depends on; contracting an edge is the one-block
case.  Operations never mutate their argument; they build a new graph.
"""

from __future__ import annotations

from . import canon
from .errors import InputError


class MultiGraph:
    __slots__ = ("n", "_adj", "_key")

    def __init__(self, n):
        # the edgeless graph on n vertices; from_edge_list and the minors
        # fill the rows, {neighbor: multiplicity} dicts with ascending keys
        if type(n) is not int or n < 0:
            raise InputError(f"vertex count {n!r} must be a nonnegative int")
        self.n = n
        self._adj = [{} for _ in range(n)]
        self._key = None

    @property
    def m(self):
        """Edge count, counting multiplicities."""
        return sum(sum(d.values()) for d in self._adj) // 2

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
        for u, row in enumerate(self._adj):
            for v, t in row.items():
                if v > u:
                    out += [(u, v)] * t
        return out

    def _check(self, v):
        if type(v) is not int or v < 0 or v >= self.n:
            raise InputError(f"vertex {v!r} not in 0..{self.n - 1}")

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
    """mults: {(u, v) with u < v: multiplicity} -> MultiGraph, zero bundles dropped."""
    g = MultiGraph(n)
    adj = g._adj
    # lexicographic pair order makes every neighbor dict ascending
    for (u, v), t in sorted(mults.items()):
        if t > 0:
            adj[u][v] = t
            adj[v][u] = t
    return g


def _from_rows(rows):
    """The simple graph whose row v holds the ascending neighbour tuple rows[v]; trusted."""
    g = MultiGraph.__new__(MultiGraph)
    g.n, g._adj, g._key = len(rows), [dict.fromkeys(row, 1) for row in rows], None
    return g


def from_edge_list(n, pairs):
    if type(n) is not int or n < 0:
        raise InputError(f"vertex count {n!r} must be a nonnegative int")
    mults = {}
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InputError(f"edge {pair!r} is not a pair of vertices") from None
        if type(u) is not int or type(v) is not int:
            raise InputError(f"edge ({u!r}, {v!r}) has non-integer endpoint")
        if u < v:
            key = (u, v)
        elif v < u:
            key = (v, u)
        else:
            raise InputError(f"loop at vertex {u} rejected")
        if key[0] < 0 or key[1] >= n:
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        mults[key] = mults.get(key, 0) + 1
    return _build(n, mults)


def _derive(g, n, vmap):
    """The graph on n vertices with g's bundles sent through vmap."""
    return next(_derive_each(g, n, vmap, [()]))


def _derive_each(g, n, vmap, extras):
    """Per list of extra pairs, g's bundles plus one copy of each pair, sent through vmap.

    g's bundles are sent once.  vmap[v] is v's new id on n vertices, or None to drop v;
    bundles landing on one pair merge and those on one vertex go.  Arguments are trusted.
    """
    base = {}
    for u, row in enumerate(g._adj):
        a = vmap[u]
        if a is None:
            continue
        for v, t in row.items():
            if v > u:
                b = vmap[v]
                if b is not None and b != a:
                    key = (a, b) if a < b else (b, a)
                    base[key] = base.get(key, 0) + t
    for extra in extras:
        mults = base.copy()
        for u, v in extra:
            a, b = vmap[u], vmap[v]
            key = (a, b) if a < b else (b, a)
            mults[key] = mults.get(key, 0) + 1
        yield _build(n, mults)


def delete_edge(g, u, v):
    """Remove one copy of the edge uv."""
    t = g.multiplicity(u, v)
    if t == 0:
        raise InputError(f"no edge between {u} and {v}")
    mults = {(a, b): s for a, b, s in g.bundles()}
    mults[(u, v) if u < v else (v, u)] = t - 1  # _build drops a bundle at 0
    return _build(g.n, mults)


def contract_edge(g, u, v):
    """identify(g, [(u, v)]) for an edge uv: the uv bundle goes, parallel edges add up."""
    if g.multiplicity(u, v) == 0:
        raise InputError(f"no edge between {u} and {v} to contract")
    return identify(g, [(u, v)])


def identify(g, blocks):
    """Identify each block of vertices to one vertex, adjacency not required.

    Blocks are nonempty and disjoint; a vertex in no block stays as it is.
    Edges inside a block are dropped (they would become loops) and the
    rest accumulate on the merged vertex, which takes the block's least
    slot; ids of removed vertices close up, keeping the survivors' order.
    """
    try:
        blocks = [list(b) for b in blocks]
    except TypeError:
        raise InputError(f"blocks {blocks!r} are not collections of vertices") from None
    rep = list(range(g.n))
    owner = [None] * g.n  # the block each vertex is in
    for i, vs in enumerate(blocks):
        if not vs:
            raise InputError("empty block")
        for v in vs:
            g._check(v)
            if owner[v] not in (None, i):
                raise InputError(f"vertex {v} appears in two blocks")
            owner[v] = i
        lo = min(vs)
        for v in vs:
            rep[v] = lo
    newid = []
    nid = 0
    for v in range(g.n):
        newid.append(nid)
        nid += rep[v] == v
    return _derive(g, nid, [newid[r] for r in rep])


def _components(adj, skip=None, limit=None):
    """The components of the graph with neighbour rows adj, less vertex skip.

    Components are vertex lists in order of least vertex.  The search stops
    once it has found more than limit components, when a caller only asks
    whether there are that many.
    """
    seen = [False] * len(adj)
    if skip is not None:
        seen[skip] = True
    out = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # the list grows while it is read: a breadth-first search
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        out.append(comp)
        if limit is not None and len(out) > limit:
            break
    return out


def is_connected(g):
    return len(_components(g._adj, limit=1)) <= 1


def degree_counts(g):
    """Map degree -> number of vertices of that degree."""
    out = {}
    for row in g._adj:
        d = sum(row.values())
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


def canonical_search(g, cells):
    """(key, automorphism generators, canonical order) from one search.

    See canon.search; the key is cached, so canonical_key(g) is free after.
    """
    key, gens, order = canon.search(g.n, g._adj, cells)
    g._key = key
    return key, gens, order
