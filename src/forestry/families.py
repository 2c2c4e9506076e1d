"""Exhaustive generation of the two degree-restricted graph families.

A family is the set of connected simple graphs whose degrees all lie in
{2, 3} or in {2, 3, 4}.  Graphs are grown one vertex at a time: a new
vertex is wired to a nonempty subset of old vertices that still have
spare degree, so every intermediate stays connected, and isomorphic
duplicates are discarded by canonical key at each level.  Every connected
graph has a build order of this shape, so each family level is complete.
"""

from itertools import combinations

from .errors import CapExceeded
from .multigraph import MultiGraph, _derive, canonical_key

DEFAULT_FAMILY_CAPS = {frozenset((2, 3)): 12, frozenset((2, 3, 4)): 9}


def _family(degree_set):
    ds = frozenset(degree_set)
    if ds not in DEFAULT_FAMILY_CAPS:
        raise ValueError("supported degree sets are {2,3} and {2,3,4}, not %r"
                         % sorted(set(degree_set)))
    return ds


def _can_still_grow(g, n_target, dmax):
    """Cheap necessary conditions for g to extend to a family member."""
    remaining = n_target - g.n
    deficit = 0
    spare = 0
    for v in range(g.n):
        d = g.degree(v)
        if d < 2:
            deficit += 2 - d
        spare += dmax - d
    if deficit > remaining * dmax:
        return False
    # the future vertices need degree 2 apiece, paid from old spare
    # capacity or from edges among themselves
    if 2 * remaining > spare + remaining * (remaining - 1):
        return False
    return True


def family_levels(degree_set, n_max, cap=None):
    """Yield (n, members) for n = 3..n_max in one bottom-up pass.

    Members are sorted by canonical key; each list holds exactly one
    representative per isomorphism class at that order.
    """
    ds = _family(degree_set)
    if cap is None:
        cap = DEFAULT_FAMILY_CAPS[ds]
    if cap < 3:
        raise ValueError("cap must be at least 3")
    if n_max < 3:
        raise ValueError("the families start at 3 vertices")
    if n_max > cap:
        raise CapExceeded("order %d exceeds the cap of %d" % (n_max, cap))
    dmax = max(ds)
    current = [MultiGraph(1)]
    for size in range(1, n_max):
        grown = {}
        members = {}
        for g in current:
            open_slots = [v for v in range(g.n) if g.degree(v) < dmax]
            for k in range(1, dmax + 1):
                for hook in combinations(open_slots, k):
                    child = _derive(g, g.n + 1, range(g.n), [(v, g.n) for v in hook])
                    # membership at this order is decided on its own: a
                    # finished graph stays in the level even when it has
                    # no spare degree left to grow with (K5 among others)
                    done = size + 1 >= 3 and all(
                        child.degree(v) >= 2 for v in range(child.n)
                    )
                    keep = size + 1 < n_max and _can_still_grow(
                        child, n_max, dmax
                    )
                    if not (done or keep):
                        continue
                    key = canonical_key(child)
                    if done and key not in members:
                        members[key] = child
                    if keep and key not in grown:
                        grown[key] = child
        current = [g for _, g in sorted(grown.items())]
        if size + 1 >= 3:
            yield size + 1, [g for _, g in sorted(members.items())]


def enumerate_family(n, degree_set, cap=None):
    """Stream one graph per isomorphism class of order n, sorted by key."""
    for order, members in family_levels(degree_set, n, cap=cap):
        if order == n:
            yield from members
