from itertools import combinations

import pytest

from forestry import canonical_key, catalog_entry, from_edge_list, is_connected
from forestry.errors import InputError
from forestry.families import enumerate_family, family_levels

from oracles import complete_graph, cycle_graph, reference_family_levels


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
