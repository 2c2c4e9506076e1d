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
offers one hook per orbit of its automorphism group.  A child is
rejected at once when some non-cut vertex has a smaller invariant than
the new vertex, accepted without a tie-break when the new vertex alone
holds the least invariant, and otherwise accepted only when the new
vertex lies in the Aut(C)-orbit of v(C).  One canon search per child
that is not rejected at once gives its key, its canonical order and
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

Order limit.  DEFAULT_FAMILY_CAPS fixes the largest order of each family,
12 for {2, 3} and 9 for {2, 3, 4}, where the theorem sweeps are pinned;
a larger order raises InputError.
"""

from itertools import combinations

from .errors import InputError
from .multigraph import MultiGraph, _components, _derive, canonical_search

DEFAULT_FAMILY_CAPS = {frozenset((2, 3)): 12, frozenset((2, 3, 4)): 9}


def _family(degree_set):
    ds = frozenset(degree_set)
    if ds not in DEFAULT_FAMILY_CAPS:
        raise InputError("supported degree sets are {2,3} and {2,3,4}, not %r"
                         % sorted(set(degree_set)))
    return ds


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


def _hooks(open_slots, dmax, gens):
    """One hook of at most dmax open slots per orbit of the gens' group."""
    for k in range(1, dmax + 1):
        offered = set()
        for hook in combinations(open_slots, k):
            if hook not in offered:
                offered |= _orbit(hook, gens)
                yield hook


def _ties(nbrs, degrees):
    """The other non-cut vertices whose invariant equals the last vertex's,
    or None when one has a smaller invariant.  Degree-1 vertices never cut."""
    new = len(nbrs) - 1

    def invariant(v):
        return degrees[v], sorted([degrees[w] for w in nbrs[v]])

    least = invariant(new)
    ties = []
    for u in range(new):
        if degrees[u] <= least[0]:
            x = invariant(u)
            if x <= least and (degrees[u] == 1 or len(_components(nbrs, u, 1)) == 1):
                if x < least:
                    return None
                ties.append(u)
    return ties


def family_levels(degree_set, n_max):
    """Yield (n, members) for n = 3..n_max in one bottom-up pass.

    Members are sorted by canonical key; each list holds exactly one
    representative per isomorphism class at that order.
    """
    ds = _family(degree_set)
    limit = DEFAULT_FAMILY_CAPS[ds]
    if n_max < 3:
        raise InputError("the families start at 3 vertices")
    if n_max > limit:
        raise InputError("order %d exceeds the cap of %d" % (n_max, limit))
    dmax = max(ds)
    # (graph, neighbour lists, degrees, automorphism generators)
    parents = [(MultiGraph(1), [()], [0], [])]
    for n in range(2, n_max + 1):
        new = n - 1
        members = []
        grown = []
        for g, nbrs, degrees, gens in parents:
            open_slots = [v for v in range(g.n) if degrees[v] < dmax]
            for hook in _hooks(open_slots, dmax, gens):
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
                ties = _ties(child_nbrs, child_degrees)
                if ties is None:
                    continue
                child = _derive(g, n, range(new), [(v, new) for v in hook])
                key, child_gens, order = canonical_search(child)
                if ties:
                    first = min(ties + [new], key=order.index)
                    if (new,) not in _orbit((first,), child_gens):
                        continue
                if done:
                    members.append((key, child))
                if keep:
                    grown.append((child, child_nbrs, child_degrees, child_gens))
        parents = grown
        if n >= 3:
            members.sort(key=lambda member: member[0])
            yield n, [child for _, child in members]


def enumerate_family(n, degree_set):
    """Stream one graph per isomorphism class of order n, sorted by key."""
    for order, members in family_levels(degree_set, n):
        if order == n:
            yield from members
