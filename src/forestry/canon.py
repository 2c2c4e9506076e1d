"""Canonical labeling via colour refinement and individualisation.

Works on bare adjacency (neighbour -> multiplicity dicts).  The key is
the least serialization (n, n zero bytes, the upper triangle of the
multiplicity matrix; a value x from 255 up is x // 255 bytes 255, then
the byte x % 255) over the leaves of the search tree.
Refinement makes synchronous passes over an ordered partition whose
colours are cell positions.  Past the root's first pass, a pass re-signs
only cells next to the individualized vertex or to a part, other than a
largest one, of a cell the last pass split.  Automorphisms prune the
search (McKay & Piperno, J. Symbolic Comput. 60, 2014): a leaf equal to
the best yields one, and the search returns to where the two paths part;
a child in the orbit of an explored sibling, under the automorphisms
found that fix the node's individualized vertices, is skipped.  Neither
rule loses a serialization; the automorphisms found generate the group.
A run store keeps these keys, so any change to the serialization must
bump sweep.RECORD_VERSION; a resume then recounts every stored graph.
"""

from itertools import groupby


def _refine(adj, cells, touched):
    """Refine an ordered partition until stable; the first pass re-signs touched cells."""
    colors = [0] * len(adj)
    while touched and len(cells) < len(adj):
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        split = {}
        for i in {colors[v] for v in touched if len(cells[colors[v]]) > 1}:
            sig = sorted([(sorted([(colors[w], t) for w, t in adj[v].items()]), v)
                          for v in cells[i]])
            if sig[0][0] != sig[-1][0]:
                split[i] = [[x[1] for x in run] for _, run in groupby(sig, lambda x: x[0])]
        if not split:
            break
        smaller = [part for p in split.values() for part in sorted(p, key=len)[:-1]]
        touched = [w for part in smaller for v in part for w in adj[v]]
        cells = [part for i, cell in enumerate(cells) for part in split.get(i, (cell,))]
    return cells


def _serialize(n, adj, order):
    vals = [n] + [0] * n  # a loop count per vertex in stored keys, always 0 here
    for i, v in enumerate(order):
        row = adj[v]
        vals += [row.get(w, 0) for w in order[i + 1 :]]
    if max(vals) < 255:
        return bytes(vals)
    return b"".join(b"\xff" * (x // 255) + bytes([x % 255]) for x in vals)


def _orbit(points, gens, fixed):
    """The points' orbit under the gens fixing fixed, as {y: (g, x) where g maps x to y, or None}."""
    fixed = set(fixed)
    moving = {}  # point -> the gens that move it
    for g in gens:
        if g.keys().isdisjoint(fixed):
            for x in g:
                moving.setdefault(x, []).append(g)
    tree = dict.fromkeys(points)
    queue = list(points)
    for x in queue:
        for g in moving.get(x, ()):
            if g[x] not in tree:
                tree[g[x]] = (g, x)
                queue.append(g[x])
    return tree


def _search(n, adj):
    """The least serialization, automorphism generators, the best leaf's path and order."""
    best = best_order = best_path = None
    gens = []  # automorphisms as {v: image} maps over the points they move
    path = []  # the vertex individualized at each depth above the current node
    nodes = []  # (cells, target cell index, explored children) per inner node on path
    cells = _refine(adj, [list(range(n))] if n else [], range(n))
    t = 0  # the cells before the parent's target cell are singletons
    while True:
        if len(cells) < n:
            nodes.append((cells, next(i for i in range(t, n) if len(cells[i]) > 1), []))
        else:
            order = [c[0] for c in cells]
            sigma = best and dict(zip(best_order, order))
            if sigma and all(adj[sigma[v]] == {sigma[w]: m for w, m in adj[v].items()}
                             for v in sigma):
                # an automorphism: this leaf serializes to the best one
                gens.append({v: x for v, x in sigma.items() if v != x})
                parted = next(d for d, (a, b) in enumerate(zip(path, best_path)) if a != b)
                del nodes[parted + 1 :]
            else:
                s = _serialize(n, adj, order)
                if best is None or s < best:
                    best, best_order, best_path = s, order, path[:]
        while nodes:
            depth = len(nodes) - 1
            cells, t, explored = nodes[-1]
            seen = _orbit(explored, gens, path[:depth]) if explored else ()
            w = next((v for v in cells[t] if v not in seen), None)
            if w is not None:
                explored.append(w)
                path[depth:] = [w]
                rest = [v for v in cells[t] if v != w]
                cells = _refine(adj, cells[:t] + [[w], rest] + cells[t + 1 :], adj[w])
                break
            nodes.pop()
        else:
            return best, gens, best_path, best_order


def search(n, adj):
    """The key, automorphism generators and canonical order from one search.

    order[i] is the vertex the key serializes at position i, so isomorphic
    graphs map onto each other by their orders.  The generators, {v: image}
    maps over the points they move, generate the automorphism group."""
    best, gens, _, order = _search(n, adj)
    return best, gens, order


def canonical_key(n, adj):
    return _search(n, adj)[0]


def automorphisms(n, adj):
    """The full automorphism group as vertex maps (tuples sigma with sigma[v]).

    Generators fixing the first i vertices of the best leaf's path generate
    their stabilizer: the group is a product of transversals along it."""
    _, gens, path, _ = _search(n, adj)
    ident = tuple(range(n))
    group = [ident]
    for depth in reversed(range(len(path))):
        reps = {}
        for y, step in _orbit([path[depth]], gens, path[:depth]).items():
            reps[y] = ident if step is None else tuple([step[0].get(x, x) for x in reps[step[1]]])
        group = [tuple(map(r.__getitem__, h)) for r in reps.values() for h in group]
    return group
