"""Exhaustive generation of the two degree-restricted graph families.

A family is the set of connected simple graphs whose degrees all lie in
{2, 3} or in {2, 3, 4}.  Graphs are grown one vertex at a time by
canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998): a child is a parent plus a new vertex wired to
a hook, a nonempty set of parent vertices with spare degree, so every
graph stays connected and within the degree bound.

Acceptance.  The canonical deletion vertex v(C) of a connected graph C
is, among its non-cut vertices with the least invariant (degree, sorted
neighbour degrees), the one first in C's canonical order.  A parent
offers one hook per orbit of its automorphism group, bar the orbits
whose children are surely rejected (see Pruning).  A child is
rejected at once when some non-cut vertex has a smaller invariant than
the new vertex, accepted without a tie-break when the new vertex alone
holds the least invariant, and otherwise accepted only when the new
vertex lies in the Aut(C)-orbit of v(C).  Automorphisms fix each root
cell of C's canon search, and the canonical order lists those cells in
turn, so v(C) and its orbit lie in the first root cell with a tie or the
new vertex: the child is rejected unsearched when the new vertex is not
there, and the tie-break looks only at the ties there.  One canon search
per child not rejected before it gives its key, its canonical order and
generators of Aut(C), which it uses as a parent one level up.

Each class once.  C - v(C) is connected with degrees within the bound,
so every graph has a chain of canonical parents back to K1.  Suppose C's
canonical parent is kept as P.  P offers a hook in the orbit of the image
of v(C)'s neighbourhood; the child it makes is isomorphic to C by a map
that sends v(C) to the new vertex, and v(C) is defined up to
automorphism, so that child is accepted.  Conversely, two accepted
children that are isomorphic have isomorphic canonical parents, hence
one parent, and an isomorphism between them that fixes the new vertex
restricts to an automorphism of that parent taking one hook to the
other, hence one hook.

Pruning.  _can_still_grow is a necessary condition on the degrees for a
graph to be an induced subgraph of a member with `remaining` more
vertices, and once it holds for remaining >= 1 it holds for every larger
remaining.  Every graph on the canonical chain of a member of order k is
an induced subgraph of it, so it passes at k minus its order, and hence
at the sweep's largest order: pruning never cuts a member's chain.
Each parent also gets one cut table, the components of the parent less
each cut vertex, from one depth-first pass per parent (Hopcroft &
Tarjan, CACM 16, 1973), and a hook of k vertices must hold every non-cut
parent vertex of degree below k.  Outside the hook such a vertex keeps its
degree, below the new vertex's k, and stays non-cut, since the child
less it is the connected parent less it plus the new vertex on its hook;
so it beats the new vertex and the child would be rejected.  Degree and
cutting are invariants, so the hooks kept are whole orbits, and each
orbit keeps its first hook.  The table also answers the tie check's cut
test: the child less u is connected when the hook, u aside, meets every
component of the parent less u.  At the largest order no child is kept
to grow, so a child survives only as a member, of degrees 2 and up: its
hook holds two vertices or more, and every parent vertex of degree 1,
which a hook of k >= 2 holds already since such a vertex cuts nothing.
So the last order offers no hook of one vertex, dropping whole orbits of
children that would be discarded as neither finished nor kept.

Order limit.  DEFAULT_FAMILY_CAPS fixes the largest order of each family,
12 for {2, 3} and 9 for {2, 3, 4}, where the theorem sweeps are pinned;
a larger order raises InputError.
"""

from itertools import combinations

from .canon import _root
from .errors import InputError
from .multigraph import _from_rows, canonical_search

DEFAULT_FAMILY_CAPS = {frozenset((2, 3)): 12, frozenset((2, 3, 4)): 9}


def _checked(degree_set, n_max):
    """The family's largest degree, once the degree set and the order pass."""
    try:
        ds = frozenset(degree_set)
        cap = DEFAULT_FAMILY_CAPS[ds]
    except (KeyError, TypeError):
        raise InputError("supported degree sets are {2,3} and {2,3,4}, not %r"
                         % (degree_set,)) from None
    if type(n_max) is not int:
        raise InputError("order %r is not an int" % (n_max,))
    if n_max < 3:
        raise InputError("the families start at 3 vertices")
    if n_max > cap:
        raise InputError("order %d exceeds the cap of %d" % (n_max, cap))
    return max(ds)


def _can_still_grow(degrees, remaining, dmax):
    """Cheap necessary conditions for `remaining` new vertices to finish a member."""
    deficit = sum(2 - d for d in degrees if d < 2)
    spare = dmax * len(degrees) - sum(degrees)
    # each new vertex pays at most dmax of the deficit, and needs degree 2,
    # paid from old spare capacity or from edges among the new vertices
    return (deficit <= remaining * dmax
            and 2 * remaining <= spare + remaining * (remaining - 1))


def _orbit(points, gens):
    """The orbit of a sorted vertex tuple under the group the gens generate."""
    orbit = {points}
    queue = [points]
    for s in queue:
        for g in gens:
            t = tuple(sorted([g.get(x, x) for x in s]))
            if t not in orbit:
                orbit.add(t)
                queue.append(t)
    return orbit


def _hooks(open_slots, dmax, gens, required):
    """One hook of at most dmax open slots per orbit of the gens' group; a
    hook of k slots holds required[k]."""
    for k in range(1, dmax + 1):
        offered = set()
        for hook in combinations(open_slots, k):
            if hook not in offered and required[k].issubset(hook):
                if gens:
                    offered |= _orbit(hook, gens)
                yield hook


def _cuts(nbrs, dmax):
    """A connected parent's cut table, and per hook size k the vertices a
    hook must hold (see Pruning).

    One depth-first pass from vertex 0 gives discovery order, lowpoints
    and subtree sizes.  The parts of the parent less u are the subtrees of
    u's tree children c with low[c] >= disc[u], plus the rest of the parent
    when u is not the root; u cuts the parent when there are two parts or
    more, and then its entry is (parts, {vertex: part index}).  Every other
    entry, the lone vertex of K1 included, is None.
    """
    n = len(nbrs)
    disc = [-1] * n
    low = [0] * n
    size = [1] * n
    split = [[] for _ in range(n)]  # per u, its tree children c with low[c] >= disc[u]
    order = [0]  # the vertices in discovery order
    disc[0] = 0
    stack = [(0, iter(nbrs[0]))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if disc[w] < 0:
                disc[w] = low[w] = len(order)
                order.append(w)
                stack.append((w, iter(nbrs[w])))
                break
            # the tree edge back to u's parent counts too: it takes low[u]
            # no lower than disc[parent], which the cut test allows
            if disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                size[p] += size[u]
                if low[u] >= disc[p]:
                    split[p].append(u)
                elif low[u] < low[p]:
                    low[p] = low[u]
    table = []
    for u, below in enumerate(split):
        parts = len(below) + (u != 0)
        if parts < 2:
            table.append(None)
            continue
        side = dict.fromkeys(order, len(below))
        for i, c in enumerate(below):
            side.update(dict.fromkeys(order[disc[c]:disc[c] + size[c]], i))
        table.append((parts, side))
    required = [frozenset([u for u, row in enumerate(nbrs) if len(row) < k and table[u] is None])
                for k in range(dmax + 1)]
    return table, required


def _ties(nbrs, degrees, cuts):
    """The other non-cut vertices whose invariant equals the last vertex's,
    or None when one has a smaller invariant.  cuts is the parent's table:
    the new vertex joins the parts of the parent less u that its hook meets,
    so u does not cut the child when the hook, u aside, meets them all.  A
    u that does not cut the parent leaves one part, which a hook holding
    another vertex meets, or none at all in K1."""
    new = len(nbrs) - 1
    hook = nbrs[new]

    def invariant(v):
        return degrees[v], sorted([degrees[w] for w in nbrs[v]])

    least = invariant(new)
    ties = []
    for u in range(new):
        if degrees[u] <= least[0]:
            x = invariant(u)
            if x <= least:
                cut = cuts[u]
                if cut is None:
                    whole = hook != (u,) or new == 1
                else:
                    parts, side = cut
                    whole = len({side[v] for v in hook if v != u}) == parts
                if whole:
                    if x < least:
                        return None
                    ties.append(u)
    return ties


def family_levels(degree_set, n_max):
    """Yield (n, members) for n = 3..n_max in one bottom-up pass.

    Members are sorted by canonical key; each list holds exactly one
    representative per isomorphism class at that order.
    """
    dmax = _checked(degree_set, n_max)
    # (neighbour lists, degrees, automorphism generators)
    parents = [([()], [0], [])]
    for n in range(2, n_max + 1):
        new = n - 1
        members = []
        grown = []
        for nbrs, degrees, gens in parents:
            cuts, required = _cuts(nbrs, dmax)
            if n == n_max:
                required[1] = frozenset(range(new))  # no hook of one vertex holds two or more
            open_slots = [v for v in range(new) if degrees[v] < dmax]
            for hook in _hooks(open_slots, dmax, gens, required):
                child_degrees = degrees + [len(hook)]
                for v in hook:
                    child_degrees[v] += 1
                # membership at this order is decided on its own: a
                # finished graph stays in the level even when it has
                # no spare degree left to grow with (K5 among others)
                done = n >= 3 and min(child_degrees) >= 2
                keep = n < n_max and _can_still_grow(child_degrees, n_max - n, dmax)
                if not (done or keep):
                    continue
                child_nbrs = nbrs + [hook]
                for v in hook:
                    child_nbrs[v] += (new,)
                ties = _ties(child_nbrs, child_degrees, cuts)
                if ties is None:
                    continue
                # the new vertex has the largest id, so every row stays ascending
                child = _from_rows(child_nbrs)
                cells, width = _root(child._adj)
                if ties:
                    at = {v: i for i, cell in enumerate(cells) for v in cell}
                    if min([at[u] for u in ties]) < at[new]:
                        continue
                    ties = [u for u in ties if at[u] == at[new]]
                key, child_gens, order = canonical_search(child, cells, width)
                if ties:
                    first = min(ties + [new], key=order.index)
                    if (new,) not in _orbit((first,), child_gens):
                        continue
                if done:
                    members.append((key, child))
                if keep:
                    grown.append((child_nbrs, child_degrees, child_gens))
        parents = grown
        if n >= 3:
            members.sort(key=lambda member: member[0])
            yield n, [child for _, child in members]


def enumerate_family(n, degree_set):
    """Stream one graph per isomorphism class of order n, sorted by key.

    The arguments are checked at the call, not at the first graph."""
    _checked(degree_set, n)
    return (g for order, members in family_levels(degree_set, n) if order == n for g in members)
