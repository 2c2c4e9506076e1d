"""Canonical labeling via colour refinement and individualisation.

Works on bare adjacency (neighbour -> multiplicity dicts).  The key is
the least serialization (n, n zero bytes, the upper triangle of the
multiplicity matrix; a value x from 255 up is x // 255 bytes 255, then
the byte x % 255) over the leaves of the search tree.
Refinement makes synchronous passes over an ordered partition whose
colours are cell positions.  A vertex is signed by its neighbours'
sorted (colour, multiplicity) pairs or, on a simple graph, by minus the
count vector of its neighbours' colours, as digits of width bits with
colour 0 most significant, 2**width above the largest degree (Python
integers have no word limit).  Root cells are degree classes there, so
a cell's sorted colour tuples have one length and are ordered by the
first colour whose counts differ: the tuple with more of it sorts first
and has the larger vector, so the negated integers sort as the tuples
do.  A cell splits into one part per signature, in signature order.  The root's
first pass is read off the sorted multiplicities (the degrees, on a
simple graph) and its second re-signs every cell; past them, a pass
re-signs only cells next to the individualized vertex or to a part,
other than a largest one, of a cell the last pass split, and re-colours
from the first cell that split.  Automorphisms prune the search (McKay &
Piperno, J. Symbolic Comput. 60, 2014): a leaf equal to the best yields
one, and the search returns to where the two paths part; a child in the
orbit of an explored sibling, under the automorphisms found that fix the
node's individualized vertices, is skipped.  Neither rule loses a
serialization; the automorphisms found generate the group.
A run store keeps these keys, so any change to the serialization must
bump sweep.RECORD_VERSION; a resume then recounts every stored graph.
"""


def _refine(adj, cells, touched, width):
    """Refine an ordered partition until stable; the first pass re-signs touched cells.
    Signatures are integers of width-bit digits, or pair tuples at width 0."""
    n = len(adj)
    colors = [0] * n
    weights = [0] * n  # -2**(width * (n - 1 - colour)) per vertex
    start = 0  # the cells before it kept their positions in the last pass
    while touched and len(cells) < n:
        for i in range(start, len(cells)):
            weight = -(1 << width * (n - 1 - i))
            for v in cells[i]:
                colors[v] = i
                weights[v] = weight
        split = {}
        for i in {colors[v] for v in touched}:
            cell = cells[i]
            if len(cell) > 1:
                # cells are ascending, so each part is too
                parts = {}
                for v in cell:
                    sig = (sum(map(weights.__getitem__, adj[v])) if width else
                           tuple(sorted([(colors[w], t) for w, t in adj[v].items()])))
                    parts.setdefault(sig, []).append(v)
                if len(parts) > 1:
                    split[i] = [parts[sig] for sig in sorted(parts)]
        if not split:
            break
        start = min(split)
        touched = [w for p in split.values() for part in sorted(p, key=len)[:-1]
                   for v in part for w in adj[v]]
        rest = [part for i in range(start, len(cells)) for part in split.get(i, (cells[i],))]
        cells = cells[:start] + rest
    return cells


def _simple(adj, cells):
    """Whether adj has no parallel edges, read off cells that refine its
    multiplicity profiles in sorted order: a profile with a multiplicity
    above 1 sorts after every all-ones profile, so the last cell shows it."""
    return not cells or max(adj[cells[-1][0]].values(), default=1) == 1


def _width(adj, cells):
    """The digit width of the integer signature on cells from _root: the bits
    of the largest degree, which the last cell holds; 0 on a multigraph or
    an edgeless graph."""
    return len(adj[cells[-1][0]]).bit_length() if cells and _simple(adj, cells) else 0


def _root(adj):
    """The refined root partition every search of adj starts from; its first
    pass from the unit partition is read off the sorted multiplicities,
    which on a simple graph are the degrees."""
    simple = sum(map(len, adj)) == sum(map(sum, map(dict.values, adj)))
    classes = {}
    for v, row in enumerate(adj):
        classes.setdefault(len(row) if simple else tuple(sorted(row.values())), []).append(v)
    profiles = sorted(classes)
    width = profiles[-1].bit_length() if simple and profiles else 0
    return _refine(adj, [classes[p] for p in profiles], range(len(adj)), width)


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


def _search(n, adj, cells):
    """The least serialization, automorphism generators, the best leaf's path and order."""
    best = best_order = best_path = None
    gens = []  # automorphisms as {v: image} maps over the points they move
    path = []  # the vertex individualized at each depth above the current node
    nodes = []  # (cells, target cell index, explored children) per inner node on path
    width = _width(adj, cells)
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
                cells = _refine(adj, cells[:t] + [[w], rest] + cells[t + 1 :], adj[w], width)
                break
            nodes.pop()
        else:
            return best, gens, best_path, best_order


def search(n, adj, cells):
    """The key, automorphism generators and canonical order from cells = _root(adj).

    order[i] is the vertex the key serializes at position i, so isomorphic
    graphs map onto each other by their orders.  The generators, {v: image}
    maps over the points they move, generate the automorphism group."""
    best, gens, _, order = _search(n, adj, cells)
    return best, gens, order


def canonical_key(n, adj):
    return _search(n, adj, _root(adj))[0]


def automorphisms(n, adj):
    """The full automorphism group as vertex maps (tuples sigma with sigma[v]).

    Generators fixing the first i vertices of the best leaf's path generate
    their stabilizer: the group is a product of transversals along it."""
    _, gens, path, _ = _search(n, adj, _root(adj))
    ident = tuple(range(n))
    group = [ident]
    for depth in reversed(range(len(path))):
        reps = {}
        for y, step in _orbit([path[depth]], gens, path[:depth]).items():
            reps[y] = ident if step is None else tuple([step[0].get(x, x) for x in reps[step[1]]])
        group = [tuple(map(r.__getitem__, h)) for r in reps.values() for h in group]
    return group
