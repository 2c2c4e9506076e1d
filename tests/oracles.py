"""Independent reference implementations used only by the test suite.

Nothing here may import the counting engine's internals; the point is a
second route to every number.
"""

from __future__ import annotations

from itertools import combinations, permutations

from forestry import canonical_key, from_edge_list


def perm_isomorphic(g1, g2):
    """Brute-force isomorphism test by trying every vertex permutation."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(map(g1.degree, range(g1.n))) != sorted(map(g2.degree, range(g2.n))):
        return False
    b2 = {(u, v): t for u, v, t in g2.bundles()}
    b1 = list(g1.bundles())
    for perm in permutations(range(g1.n)):
        ok = True
        for u, v, t in b1:
            a, b = perm[u], perm[v]
            if b2.get((a, b) if a < b else (b, a), 0) != t:
                ok = False
                break
        if ok:
            return True
    return False


def kirchhoff_trees(g):
    """Spanning trees via an integer (Bareiss) determinant of the Laplacian."""
    n = g.n
    if n == 0:
        return 1
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v, t in g.bundles():
        lap[u][u] += t
        lap[v][v] += t
        lap[u][v] -= t
        lap[v][u] -= t
    # delete last row and column, fraction-free (Bareiss) elimination;
    # the reduced Laplacian is positive semidefinite, so a zero pivot
    # already forces a zero determinant and no pivoting is needed
    a = [row[: n - 1] for row in lap[: n - 1]]
    m = n - 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[m - 1][m - 1]


def forests_by_subsets(g):
    """Count acyclic edge subsets by checking each subset for cycles."""
    edges = g.edge_list()
    total = 0
    for r in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), r):
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i in subset:
                u, v = edges[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if ok:
                total += 1
    return total


def trees_by_subsets(g):
    """Count spanning trees by checking every (n-1)-subset of edge copies."""
    n = g.n
    if n == 0:
        return 1
    edges = g.edge_list()
    if len(edges) < n - 1:
        return 0
    total = 0
    for subset in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joins = 0
        for i in subset:
            u, v = edges[i]
            ru, rv = find(u), find(v)
            if ru == rv:
                joins = -1
                break
            parent[ru] = rv
            joins += 1
        if joins == n - 1:
            total += 1
    return total


def separating_forests_bruteforce(g, vset):
    """Forests keeping all of vset in pairwise distinct components."""
    edges = g.edge_list()
    vs = sorted(set(vset))
    total = 0
    for r in range(len(edges) + 1):
        for subset in combinations(range(len(edges)), r):
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for i in subset:
                u, v = edges[i]
                ru, rv = find(u), find(v)
                if ru == rv:
                    ok = False
                    break
                parent[ru] = rv
            if not ok:
                continue
            roots = {find(v) for v in vs}
            if len(roots) == len(vs):
                total += 1
    return total


def rand_multigraph(rng, max_n=8, max_edges=16, max_mult=3, connected=False):
    """A random multigraph; optionally resampled until connected."""
    from forestry import is_connected

    while True:
        n = rng.randint(1, max_n)
        pairs = []
        m = rng.randint(0, max_edges)
        if n >= 2:
            for _ in range(m):
                u = rng.randrange(n)
                v = rng.randrange(n)
                if u == v:
                    continue
                pairs.append((u, v))
        # clamp multiplicities
        counts = {}
        kept = []
        for u, v in pairs:
            key = (min(u, v), max(u, v))
            if counts.get(key, 0) >= max_mult:
                continue
            counts[key] = counts.get(key, 0) + 1
            kept.append(key)
        g = from_edge_list(n, kept)
        if not connected or is_connected(g):
            return g


def rebuild(g, n, vmap, extra=()):
    """Each edge copy of g sent through vmap (None drops it), loops dropped, plus extra pairs."""
    pairs = [(vmap[u], vmap[v]) for u, v in g.edge_list()]
    kept = [(a, b) for a, b in pairs if a is not None and b is not None and a != b]
    return from_edge_list(n, kept + list(extra))


def relabeled(g, perm):
    """g with vertex v renamed perm[v], rebuilt from its edge list."""
    return rebuild(g, g.n, perm)


def reference_family_levels(degree_set, n_max):
    """{n: sorted member keys} for n = 3..n_max, by growing and deduplicating keys.

    A child is a kept graph plus a new vertex joined to a nonempty set of
    vertices with spare degree.  Every child of every kept graph gets a
    canonical key; each level collects the member keys and keeps one graph
    per key to grow from, so no symmetry or canonical-parent argument is
    needed.
    """
    dmax = max(degree_set)

    def can_still_grow(g):
        remaining = n_max - g.n
        degrees = [g.degree(v) for v in range(g.n)]
        deficit = sum(2 - d for d in degrees if d < 2)
        spare = sum(dmax - d for d in degrees)
        return (deficit <= remaining * dmax
                and 2 * remaining <= spare + remaining * (remaining - 1))

    levels = {}
    current = [from_edge_list(1, [])]
    for n in range(2, n_max + 1):
        grown = {}
        members = set()
        for g in current:
            open_slots = [v for v in range(g.n) if g.degree(v) < dmax]
            for k in range(1, dmax + 1):
                for hook in combinations(open_slots, k):
                    child = from_edge_list(n, g.edge_list() + [(v, g.n) for v in hook])
                    done = n >= 3 and all(child.degree(v) >= 2 for v in range(n))
                    keep = n < n_max and can_still_grow(child)
                    if done or keep:
                        key = canonical_key(child)
                        if done:
                            members.add(key)
                        if keep:
                            grown.setdefault(key, child)
        current = list(grown.values())
        if n >= 3:
            levels[n] = sorted(members)
    return levels


def component_count(g, skip=None):
    """Components of g, less vertex skip, by union-find over its edge copies."""
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edge_list():
        if skip not in (u, v):
            parent[find(u)] = find(v)
    return len({find(v) for v in range(g.n) if v != skip})


def reference_lift_feasible(g, x):
    """The feasibility route through g - x: no neighbour carries more
    than m of x's 2m edges, and g - x has at most m + 1 components."""
    m = g.degree(x) // 2
    if any(g.multiplicity(x, y) > m for y in g.neighbors(x)):
        return False
    return component_count(g, x) <= m + 1


def reference_graphs_with_degrees(seq):
    """Connected loopless multigraphs with degrees seq, one per isomorphism class.

    Assigns a multiplicity to every vertex pair in lexicographic order,
    most copies first, and keeps the first connected graph of each
    canonical key.
    """
    from forestry import is_connected

    k = len(seq)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rem = list(seq)
    seen = set()
    found = []

    def rec(idx, edges):
        if idx == len(pairs):
            if any(rem):
                return
            g = from_edge_list(k, edges)
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
            rec(idx + 1, edges + [(i, j)] * t)
            rem[i] += t
            rem[j] += t

    rec(0, [])
    return found


def brute_force_pairings(ends):
    """Every perfect matching of the positions in ends, as sorted tuples of pairs.

    Matchings that pair two equal ends are dropped; the rest are
    deduplicated and returned in sorted order.
    """
    out = set()

    def rec(rest, acc):
        if not rest:
            out.add(tuple(sorted(acc)))
            return
        for i in range(1, len(rest)):
            a, b = sorted((rest[0], rest[i]))
            rec(rest[1:i] + rest[i + 1 :], acc + [(a, b)])

    rec(list(ends), [])
    return sorted(p for p in out if all(a != b for a, b in p))


def complete_graph(n):
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


# Reference canonical labeling: the search tree of forestry.canon walked
# in full, with no automorphism pruning and whole-partition refinement
# passes.  This is the first canon implementation, unchanged except for
# the function names, so tests can demand byte-identical keys and equal
# automorphism groups.


def _reference_refine(n, nbrs, loops, colors):
    while True:
        sigs = [
            (colors[v], loops[v], tuple(sorted((colors[w], t) for w, t in nbrs[v])))
            for v in range(n)
        ]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _reference_serialize(n, adj, loops, order):
    out = bytearray()
    out.append(n)
    for v in order:
        out.append(loops[v])
    for i in range(n):
        vi = order[i]
        row = adj[vi]
        for j in range(i + 1, n):
            out.append(row.get(order[j], 0))
    return bytes(out)


def _reference_first_cell(n, colors):
    # smallest colour owning more than one vertex, or None when discrete
    seen = {}
    for v, c in enumerate(colors):
        if c in seen:
            seen[c].append(v)
        else:
            seen[c] = [v]
    for c in sorted(seen):
        if len(seen[c]) > 1:
            return seen[c]
    return None


def _reference_search(n, adj, nbrs, loops, want_auts):
    if n == 0:
        return b"\x00", [()]
    if n > 255:
        raise ValueError("canonical form supports at most 255 vertices")
    best = None
    best_orders = []
    stack = [_reference_refine(n, nbrs, loops, [0] * n)]
    while stack:
        colors = stack.pop()
        cell = _reference_first_cell(n, colors)
        if cell is None:
            order = sorted(range(n), key=colors.__getitem__)
            s = _reference_serialize(n, adj, loops, order)
            if best is None or s < best:
                best = s
                best_orders = [order]
            elif want_auts and s == best:
                best_orders.append(order)
            continue
        for v in cell:
            child = [2 * c for c in colors]
            child[v] -= 1
            stack.append(_reference_refine(n, nbrs, loops, child))
    return best, best_orders


def _reference_prepare(n, adj, loops):
    if loops is None:
        loops = [0] * n
    nbrs = [list(adj[v].items()) for v in range(n)]
    return nbrs, loops


def reference_canonical_key(n, adj, loops=None):
    nbrs, loops = _reference_prepare(n, adj, loops)
    key, _ = _reference_search(n, adj, nbrs, loops, False)
    return key


def reference_automorphisms(n, adj, loops=None):
    """The full automorphism group as vertex maps (tuples sigma with sigma[v])."""
    nbrs, loops = _reference_prepare(n, adj, loops)
    _, orders = _reference_search(n, adj, nbrs, loops, True)
    if not orders:
        return [()]
    base = orders[0]
    pos = [0] * n
    for i, v in enumerate(base):
        pos[v] = i
    auts = []
    for other in orders:
        auts.append(tuple(other[pos[v]] for v in range(n)))
    return auts


def reference_vertex_order(adj):
    """The counting engine's vertex order, found by rescanning every candidate.

    Each next vertex is a neighbour of the frontier that leaves it
    smallest; with an empty frontier the next component starts at a
    vertex of least degree.  Ties go to fewer unentered neighbours, then
    the lower id.
    """
    n = len(adj)
    waiting = [len(a) for a in adj]  # neighbours not yet entered
    entered = [False] * n
    starts = iter(sorted(range(n), key=lambda v: (len(adj[v]), v)))
    candidates = set()
    order = []

    def cost(v):
        leaving = sum(1 for u in adj[v] if entered[u] and waiting[u] == 1)
        return ((waiting[v] > 0) - leaving, waiting[v], v)

    while len(order) < n:
        if candidates:
            v = min(candidates, key=cost)
            candidates.discard(v)
        else:
            v = next(s for s in starts if not entered[s])
        entered[v] = True
        order.append(v)
        for w in adj[v]:
            waiting[w] -= 1
            if not entered[w]:
                candidates.add(w)
    return order
