import hashlib
import random
import re
from collections import Counter
from itertools import combinations

import pytest

from forestry import canon, canonical_key, catalog_entry, families, from_edge_list, is_connected
from forestry.errors import InputError
from forestry.families import enumerate_family, family_levels
from forestry.multigraph import _components

from oracles import complete_graph, cycle_graph, reference_family_levels, reference_ties


def keys_of(graphs):
    return sorted(canonical_key(g) for g in graphs)


def test_order_three_is_the_triangle():
    for ds in ({2, 3}, {2, 3, 4}):
        got = list(enumerate_family(3, ds))
        assert len(got) == 1
        assert canonical_key(got[0]) == canonical_key(cycle_graph(3))


def test_order_four_members():
    got = keys_of(enumerate_family(4, {2, 3}))
    want = keys_of(
        [
            cycle_graph(4),
            from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
            complete_graph(4),
        ]
    )
    assert got == want
    # allowing degree 4 at order 4 admits nothing new
    assert keys_of(enumerate_family(4, {2, 3, 4})) == want


def labeled_family_keys(n, degree_set):
    """Classify by brute force over labeled graphs, highest vertex first."""
    dmax = max(degree_set)
    found = set()
    deg = [0] * n

    def grow(i, edges):
        if i == n:
            if all(d in degree_set for d in deg):
                g = from_edge_list(n, edges)
                if is_connected(g):
                    found.add(canonical_key(g))
            return
        later = [j for j in range(i + 1, n) if deg[j] < dmax]
        for k in range(0, dmax - deg[i] + 1):
            for picks in combinations(later, k):
                for j in picks:
                    deg[j] += 1
                deg[i] += k
                grow(i + 1, edges + [(i, j) for j in picks])
                deg[i] -= k
                for j in picks:
                    deg[j] -= 1

    grow(0, [])
    return sorted(found)


@pytest.mark.parametrize("degree_set", [{2, 3}, {2, 3, 4}])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_agrees_with_labeled_bruteforce(n, degree_set):
    assert keys_of(enumerate_family(n, degree_set)) == labeled_family_keys(
        n, degree_set
    )


def test_agrees_with_the_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for degree_set in ({2, 3}, {2, 3, 4}):
        counts = {n: len(m) for n, m in family_levels(degree_set, 7)}
        for n in range(3, 8):
            matching = [
                g
                for g in atlas
                if g.number_of_nodes() == n
                and nx.is_connected(g)
                and all(d in degree_set for _, d in g.degree())
            ]
            assert counts[n] == len(matching)
            ours = set(keys_of(enumerate_family(n, degree_set)))
            theirs = {
                canonical_key(from_edge_list(n, list(g.edges()))) for g in matching
            }
            assert ours == theirs


def test_cubic_counts():
    for n, want in ((4, 1), (6, 2), (8, 5)):
        members = enumerate_family(n, {2, 3})
        cubic = [g for g in members if all(g.degree(v) == 3 for v in range(g.n))]
        assert len(cubic) == want


def test_known_members_show_up():
    six = set(keys_of(enumerate_family(6, {2, 3, 4})))
    for name in ("K6-", "K33", "R1", "X6", "Y6", "Y6p"):
        assert canonical_key(catalog_entry(name).graph) in six


def test_soundness_at_order_nine():
    members = list(enumerate_family(9, {2, 3}))
    keys = [canonical_key(g) for g in members]
    assert len(set(keys)) == len(members)
    assert keys == sorted(keys)
    for g in members:
        assert is_connected(g)
        degrees = [g.degree(v) for v in range(g.n)]
        assert set(degrees) <= {2, 3}
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.multiplicity(u, v) <= 1


LEVEL_SIZES = {
    (2, 3): {3: 1, 4: 3, 5: 4, 6: 11, 7: 21, 8: 60, 9: 148, 10: 458},
    (2, 3, 4): {3: 1, 4: 3, 5: 11, 6: 38, 7: 163, 8: 884},
}


@pytest.mark.parametrize("degree_set", sorted(LEVEL_SIZES))
def test_levels_match_the_dedup_by_key_generator(degree_set):
    sizes = LEVEL_SIZES[degree_set]
    got = {
        n: [canonical_key(g) for g in members]
        for n, members in family_levels(degree_set, max(sizes))
    }
    assert {n: len(keys) for n, keys in got.items()} == sizes
    assert got == reference_family_levels(degree_set, max(sizes))


def test_levels_do_not_depend_on_the_horizon():
    shallow = {n: len(m) for n, m in family_levels({2, 3, 4}, 7)}
    deep = {n: len(m) for n, m in family_levels({2, 3, 4}, 8)}
    for n in shallow:
        assert shallow[n] == deep[n]


def test_deterministic_output():
    a = [g.edge_list() for g in enumerate_family(7, {2, 3, 4})]
    b = [g.edge_list() for g in enumerate_family(7, {2, 3, 4})]
    assert a == b


def test_guards():
    with pytest.raises(ValueError):
        list(enumerate_family(4, {2, 5}))
    with pytest.raises(ValueError):
        list(enumerate_family(2, {2, 3}))
    with pytest.raises(InputError, match="^order 13 exceeds the cap of 12$"):
        list(enumerate_family(13, {2, 3}))
    with pytest.raises(InputError, match="^order 10 exceeds the cap of 9$"):
        list(enumerate_family(10, {2, 3, 4}))


@pytest.mark.parametrize("order", ["9", None, 5.0, True])
def test_an_order_that_is_not_an_int_is_refused(order):
    refused = f"^order {re.escape(repr(order))} is not an int$"
    with pytest.raises(InputError, match=refused):
        list(family_levels({2, 3}, order))
    with pytest.raises(InputError, match=refused):
        list(enumerate_family(order, {2, 3, 4}))


# sha256 of every level's edge lists: the README says a representative
# keeps the labeling generation built, so a change that builds others
# says so and pins them again
REPRESENTATIVES = {
    ((2, 3), 10): "4259116a14d996181c6d03849769fd63473d646dfc98ac0e8574189849cc8f9f",
    ((2, 3, 4), 8): "777093dc2babf2e20195eca6f3ea976ccfa9f8f02ece65d9b7c0dbd6e4ad7f15",
}


@pytest.mark.parametrize("degree_set, n_max", sorted(REPRESENTATIVES))
def test_representatives_keep_their_labeling(degree_set, n_max):
    digest = hashlib.sha256()
    for n, members in family_levels(degree_set, n_max):
        digest.update(repr((n, [g.edge_list() for g in members])).encode())
    assert digest.hexdigest() == REPRESENTATIVES[degree_set, n_max]


# sha256 of every level's canonical keys: a run store keeps these keys, so
# a change to canon that moves one must bump sweep.RECORD_VERSION
KEYS = {
    ((2, 3), 10): "4e49cd99ba74c32caaf9bb058b2e084c04fad2275b45ffb7f70ff68ae4b08956",
    ((2, 3, 4), 8): "2da7f03fa610a57acda0decae1134ed3a8d22c368add0e68131cd36aa2b4d547",
}


@pytest.mark.parametrize("degree_set, n_max", sorted(KEYS))
def test_level_keys_are_pinned(degree_set, n_max):
    digest = hashlib.sha256()
    for n, members in family_levels(degree_set, n_max):
        digest.update(repr((n, [canonical_key(g) for g in members])).encode())
    assert digest.hexdigest() == KEYS[degree_set, n_max]


# (degree set, largest order): canon searches, and the children with ties
# that the root cells reject, accept or leave to the orbit test
SEARCHES = {
    ((2, 3), 9): (451, {"rejected": 117, "accepted": 61, "orbit test": 213}),
    ((2, 3, 4), 7): (272, {"rejected": 17, "accepted": 9, "orbit test": 138}),
}


@pytest.mark.parametrize("degree_set, n_max", sorted(SEARCHES))
def test_the_root_cells_agree_with_the_full_search(monkeypatch, degree_set, n_max):
    tied = []  # (neighbour lists, ties) of every child with ties
    searched = []
    ties, search = families._ties, families.canonical_search

    def recording_ties(nbrs, degrees, cuts):
        found = ties(nbrs, degrees, cuts)
        if found:
            tied.append((nbrs, found))
        return found

    def counting_search(g, cells, width):
        searched.append(g.n)
        return search(g, cells, width)

    monkeypatch.setattr(families, "_ties", recording_ties)
    monkeypatch.setattr(families, "canonical_search", counting_search)
    for _ in family_levels(degree_set, n_max):
        pass
    verdicts = Counter()
    for nbrs, found in tied:
        n, new = len(nbrs), len(nbrs) - 1
        adj = [dict.fromkeys(row, 1) for row in nbrs]
        cells, width = canon._root(adj)
        # the tie-break as it ran on every child with ties: v(C) is the
        # candidate first in the canonical order, kept when new is in its orbit
        _, gens, order = canon.search(n, adj, cells, width)
        first = min(found + [new], key=order.index)
        kept = (new,) in families._orbit((first,), gens)
        at = {v: i for i, cell in enumerate(cells) for v in cell}
        if min(at[u] for u in found) < at[new]:
            assert not kept
            verdicts["rejected"] += 1
        elif all(at[u] != at[new] for u in found):
            assert kept and first == new
            verdicts["accepted"] += 1
        else:
            assert first == min([u for u in found if at[u] == at[new]] + [new], key=order.index)
            verdicts["orbit test"] += 1
    searches, want = SEARCHES[degree_set, n_max]
    assert len(searched) == searches
    assert dict(verdicts) == want


# (degree set, largest order): hooks offered, and the children of those
# hooks that reach the tie check
WORK = {
    ((2, 3), 9): (921, 905),
    ((2, 3, 4), 7): (531, 531),
}


@pytest.mark.parametrize("degree_set, n_max", sorted(WORK))
def test_the_generation_work_is_pinned(monkeypatch, degree_set, n_max):
    work = Counter()
    hooks, ties = families._hooks, families._ties

    def counting_hooks(*args):
        for hook in hooks(*args):
            work["hooks"] += 1
            yield hook

    def counting_ties(*args):
        work["ties"] += 1
        return ties(*args)

    monkeypatch.setattr(families, "_hooks", counting_hooks)
    monkeypatch.setattr(families, "_ties", counting_ties)
    for _ in family_levels(degree_set, n_max):
        pass
    assert (work["hooks"], work["ties"]) == WORK[degree_set, n_max]


@pytest.mark.parametrize("degree_set, n_max", sorted(WORK))
def test_the_hook_filter_and_the_cut_table_follow_the_tie_rule(monkeypatch, degree_set, n_max):
    parents = []  # (neighbour lists, cut table) per parent
    offered = []  # the vertices family_levels has each hook of k hold, per parent
    cuts, hooks = families._cuts, families._hooks

    def recording_cuts(nbrs, dmax):
        table, required = cuts(nbrs, dmax)
        parents.append((nbrs, table))
        return table, required

    def recording_hooks(open_slots, dmax, gens, required):
        offered.append(required)
        return hooks(open_slots, dmax, gens, required)

    monkeypatch.setattr(families, "_cuts", recording_cuts)
    monkeypatch.setattr(families, "_hooks", recording_hooks)
    for _ in family_levels(degree_set, n_max):
        pass
    dmax = max(degree_set)
    skipped = kept = unfinished = 0
    assert len(parents) == len(offered)
    for (nbrs, table), required in zip(parents, offered):
        new = len(nbrs)
        last = new + 1 == n_max
        open_slots = [v for v in range(new) if len(nbrs[v]) < dmax]
        # every hook, not one per orbit, finished or not
        for k in range(1, dmax + 1):
            # the tie rule: a hook of k holds every non-cut vertex of degree below k
            tie_rule = {u for u, row in enumerate(nbrs) if len(row) < k and table[u] is None}
            for hook in combinations(open_slots, k):
                child_nbrs = [row + (new,) if v in hook else row for v, row in enumerate(nbrs)]
                child_nbrs.append(hook)
                degrees = [len(row) for row in child_nbrs]
                want = reference_ties(child_nbrs, degrees)
                if not tie_rule <= set(hook):
                    assert want is None
                    skipped += 1
                elif required[k] <= set(hook):
                    assert families._ties(child_nbrs, degrees, table) == want
                    kept += 1
                else:
                    # the last-order rule: no child is kept to grow, and
                    # this one is no member either
                    assert last and min(degrees) < 2
                    unfinished += 1
    assert skipped and kept and unfinished  # every side of the filter is checked


def _connected_rows(rng, n, extra):
    """Neighbour rows of a random connected simple graph: a random tree on
    0..n-1 plus up to `extra` random chords."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    rows = [[] for _ in range(n)]
    for u, v in sorted(edges):
        rows[u].append(v)
        rows[v].append(u)
    return [tuple(sorted(row)) for row in rows]


def test_the_cut_table_partitions_the_parent_less_each_vertex():
    def path(n):
        return [tuple(w for w in (v - 1, v + 1) if 0 <= w < n) for v in range(n)]

    def cycle(n):
        return [tuple(sorted({(v - 1) % n, (v + 1) % n})) for v in range(n)]

    rng = random.Random(5401)
    graphs = [[()], [(1,), (0,)]]
    graphs += [path(n) for n in range(3, 13)] + [cycle(n) for n in range(3, 13)]
    graphs += [_connected_rows(rng, rng.randint(2, 12), 0) for _ in range(150)]  # trees
    graphs += [_connected_rows(rng, rng.randint(2, 12), rng.randint(1, 20)) for _ in range(300)]
    cut_vertices = 0
    for nbrs in graphs:
        table, _ = families._cuts(nbrs, 4)
        for u, entry in enumerate(table):
            want = {frozenset(comp) for comp in _components(nbrs, u)}
            if entry is None:
                assert len(want) <= 1  # K1 leaves no part at all
                continue
            parts, side = entry
            got = {}
            for v in range(len(nbrs)):
                if v != u:
                    got.setdefault(side[v], set()).add(v)
            assert parts == len(got) >= 2
            assert {frozenset(p) for p in got.values()} == want
            cut_vertices += 1
    assert cut_vertices > 500  # the maps are checked, not only the None entries
