import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestry import (
    MultiGraph,
    canonical_key,
    contract_edge,
    count_forests,
    count_trees,
    degree_counts,
    delete_edge,
    enumerate_lifts,
    from_edge_list,
    identify,
    is_connected,
)
from forestry.errors import InputError
from forestry.multigraph import _components, _derive

from oracles import (
    complete_graph,
    component_count,
    cycle_graph,
    path_graph,
    rand_multigraph,
    rebuild,
    relabeled,
)


def test_from_edge_list_accumulates_parallel_copies():
    g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 2) == 1
    assert g.m == 3
    assert g.degree(1) == 3


def test_from_edge_list_rejects_loops_and_bad_vertices():
    with pytest.raises(InputError, match="^loop at vertex 1 rejected$"):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(InputError, match=r"^edge \(0, 3\) out of range for n=3$"):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(InputError, match="^vertex count -1 must be a nonnegative int$"):
        from_edge_list(-1, [])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: from_edge_list(3, [(0, 1, 2)]), "edge (0, 1, 2) is not a pair of vertices"),
        (lambda: from_edge_list(3, [(0,)]), "edge (0,) is not a pair of vertices"),
        (lambda: from_edge_list(3, [5]), "edge 5 is not a pair of vertices"),
        (lambda: from_edge_list(3, [(0, 1), None]), "edge None is not a pair of vertices"),
        (lambda: MultiGraph(2.5), "vertex count 2.5 must be a nonnegative int"),
        (lambda: MultiGraph("3"), "vertex count '3' must be a nonnegative int"),
        (lambda: MultiGraph(None), "vertex count None must be a nonnegative int"),
        (lambda: MultiGraph(True), "vertex count True must be a nonnegative int"),
        (lambda: from_edge_list(True, []), "vertex count True must be a nonnegative int"),
        (lambda: from_edge_list(3, [(True, 2)]), "edge (True, 2) has non-integer endpoint"),
    ],
    ids=["triple", "single", "int", "none", "float-n", "str-n", "none-n", "bool-n",
         "bool-edge-list-n", "bool-endpoint"],
)
def test_malformed_constructor_input_is_a_graph_error(build, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        build()


def test_the_constructor_takes_only_a_vertex_count():
    # only the builders fill rows: a one-sided row, a row naming vertex 5
    # of 2 or a negative multiplicity could not be counted
    g = MultiGraph(3)
    assert g.n == 3 and g.m == 0 and g == from_edge_list(3, [])
    assert count_forests(g) == 1 and count_trees(g) == 0
    for rows in ([{1: 1}, {}], [{5: 1}, {}], [{1: -2}, {0: -2}]):
        with pytest.raises(TypeError):
            MultiGraph(len(rows), rows)


def test_a_bool_is_not_a_vertex():
    g = cycle_graph(3)
    with pytest.raises(InputError, match=r"^vertex True not in 0\.\.2$"):
        g.degree(True)
    with pytest.raises(InputError, match=r"^vertex False not in 0\.\.2$"):
        identify(g, [[False, True]])


def test_contract_edge_k4_example():
    # contracting one edge of K4: merged vertex takes the low slot,
    # ids above the removed slot shift down, parallel edges add up
    k4 = complete_graph(4)
    c = contract_edge(k4, 1, 2)
    assert c.n == 3
    assert {(u, v): t for u, v, t in c.bundles()} == {
        (0, 1): 2,
        (0, 2): 1,
        (1, 2): 2,
    }
    assert [c.degree(v) for v in range(3)] == [3, 4, 3]
    assert c.m == k4.m - k4.multiplicity(1, 2)


def test_contract_edge_requires_the_edge():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(InputError, match="^no edge between 0 and 2 to contract$"):
        contract_edge(g, 0, 2)


def test_identify_merges_nonadjacent_vertices():
    p = path_graph(4)  # 0-1-2-3
    c = identify(p, [{0, 3}])
    assert c.n == 3
    assert {(u, v): t for u, v, t in c.bundles()} == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    # one-vertex blocks, repeats inside a block and no blocks leave the graph as it is
    assert identify(p, [{2}]) == identify(p, [[1], [3, 3]]) == identify(p, []) == p


def test_identify_is_order_independent():
    rng = random.Random(7)
    for _ in range(50):
        g = rand_multigraph(rng, max_n=7, max_edges=12)
        if g.n < 3:
            continue
        vs = rng.sample(range(g.n), 3)
        a = identify(g, [vs])
        b = identify(identify(g, [vs[:2]]), [_map_after(vs[:2], vs)])
        assert canonical_key(a) == canonical_key(b)


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([["0", 1]], "vertex '0' not in 0..5"),
        ([[None, 1]], "vertex None not in 0..5"),
        ([[1.0, 2]], "vertex 1.0 not in 0..5"),
        ([[True, 2]], "vertex True not in 0..5"),
        ([[1, 2], []], "empty block"),
        ([[0, 1], [2, 0]], "vertex 0 appears in two blocks"),
        ([[3], [4, 3]], "vertex 3 appears in two blocks"),
        ([[0, 6]], "vertex 6 not in 0..5"),
        ([[-1, 2]], "vertex -1 not in 0..5"),
        ([0, 1], "blocks [0, 1] are not collections of vertices"),
        (None, "blocks None are not collections of vertices"),
    ],
    ids=["str", "none", "float", "bool", "empty", "overlap", "overlap-at-least",
         "above-range", "negative", "unnested", "not-iterable"],
)
def test_identify_refuses_bad_blocks(blocks, message):
    # each vertex is checked before the blocks are sorted or their least
    # vertex taken, so a str or None is a refusal, not a TypeError
    g = path_graph(6)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        identify(g, blocks)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_multi_block_identify_matches_a_rebuild(seed):
    # several disjoint blocks at once, against the edge-list rebuild of the
    # vertex map that sends each block to its least vertex
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=8, max_edges=14)
    order = rng.sample(range(g.n), g.n)
    blocks = []
    while order:
        k = rng.randint(1, len(order))
        blocks.append(order[:k])
        order = order[k:]
    blocks = [b for b in blocks if rng.random() < 0.7]
    lo = {v: min(b) for b in blocks for v in b}
    survivors = [v for v in range(g.n) if lo.get(v, v) == v]
    vmap = [survivors.index(lo.get(v, v)) for v in range(g.n)]
    assert _same(identify(g, blocks), rebuild(g, len(survivors), vmap))


def _map_after(merged, vs):
    # where did the remaining vertex of vs end up after merging merged[:2]
    lo, hi = min(merged), max(merged)
    rest = [v for v in vs if v not in merged]
    out = {lo}
    for v in rest:
        out.add(v if v < hi else v - 1)
    return out


def test_delete_edge_removes_single_copy():
    g = from_edge_list(2, [(0, 1), (0, 1)])
    h = delete_edge(g, 0, 1)
    assert h.multiplicity(0, 1) == 1
    with pytest.raises(InputError, match="^no edge between 0 and 1$"):
        delete_edge(delete_edge(h, 0, 1), 0, 1)


def test_delete_bundle_and_vertex():
    # a whole bundle goes one copy at a time; a vertex goes through the
    # vertex map that drops it
    g = from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
    assert delete_edge(delete_edge(g, 0, 1), 0, 1).m == 1
    h = _derive(g, 2, [None, 0, 1])
    assert h.n == 2 and h.multiplicity(0, 1) == 1


def test_components_and_connectivity():
    g = from_edge_list(5, [(0, 1), (2, 3)])
    assert _components(g._adj) == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)
    assert is_connected(cycle_graph(4))
    rng = random.Random(5)
    graphs = [MultiGraph(0), MultiGraph(1), MultiGraph(2), from_edge_list(2, [(0, 1)])]
    graphs += [rand_multigraph(rng, max_n=7, max_edges=rng.randint(0, 8)) for _ in range(200)]
    for h in graphs:
        assert is_connected(h) == (component_count(h) <= 1)
        assert len(_components(h._adj)) == component_count(h)
        # g - u counted on g's own rows, as dicts and as the tuple rows
        # that the family generator's cut test passes
        for u in range(h.n):
            want = component_count(h, u)
            assert len(_components(h._adj, u)) == want
            assert len(_components([tuple(r) for r in h._adj], u)) == want


def test_degree_counts():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    assert degree_counts(g) == {2: 3, 3: 2}


def test_induced_and_relabel_roundtrip():
    g = complete_graph(4)
    sub = _derive(g, 3, [None, 0, 1, 2])  # induced on 1, 2, 3
    assert sub.n == 3 and sub.m == 3
    perm = [2, 0, 3, 1]
    assert _derive(g, 4, perm) == relabeled(g, perm) == g
    h = from_edge_list(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    assert canonical_key(_derive(h, 4, perm)) == canonical_key(h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 7))
def test_contraction_commutes_with_relabeling(seed, n):
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=n, max_edges=10)
    pairs = list(g.bundles())
    if not pairs:
        return
    u, v, _ = pairs[rng.randrange(len(pairs))]
    perm = list(range(g.n))
    rng.shuffle(perm)
    a = contract_edge(relabeled(g, perm), perm[u], perm[v])
    b = contract_edge(g, u, v)
    assert canonical_key(a) == canonical_key(b)


def test_edge_count_after_contraction():
    rng = random.Random(11)
    for _ in range(80):
        g = rand_multigraph(rng, max_n=7, max_edges=14)
        pairs = list(g.bundles())
        if not pairs:
            continue
        u, v, t = pairs[rng.randrange(len(pairs))]
        assert contract_edge(g, u, v).m == g.m - t


def test_equality_is_labeled():
    a = from_edge_list(3, [(0, 1)])
    b = from_edge_list(3, [(1, 2)])
    assert a != b
    assert canonical_key(a) == canonical_key(b)


def _same(h, expected):
    # equal graphs whose bundles and whole neighbour rows also come out in
    # the same (ascending) order
    return (
        h == expected
        and list(h.bundles()) == list(expected.bundles())
        and [list(d) for d in h._adj] == [list(d) for d in expected._adj]
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_derived_graphs_match_an_edge_list_rebuild(seed):
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=7, max_edges=14)
    n = g.n
    perm = rng.sample(range(n), n)
    # relabeling, an induced subgraph and a vertex deletion
    assert _same(_derive(g, n, perm), rebuild(g, n, perm))
    keep = sorted(rng.sample(range(n), rng.randint(0, n)))
    rank = [keep.index(v) if v in keep else None for v in range(n)]
    assert _same(_derive(g, len(keep), rank), rebuild(g, len(keep), rank))

    def without(x):
        return [v - (v > x) if v != x else None for v in range(n)]

    x = rng.randrange(n)
    assert _same(_derive(g, n - 1, without(x)), rebuild(g, n - 1, without(x)))
    vs = rng.sample(range(n), rng.randint(1, n))
    survivors = [v for v in range(n) if v not in vs or v == min(vs)]
    merged = [survivors.index(min(vs) if v in vs else v) for v in range(n)]
    assert _same(identify(g, [vs]), rebuild(g, len(survivors), merged))
    edges = g.edge_list()
    if edges:
        u, v = rng.choice(edges)
        fewer = list(edges)
        fewer.remove((u, v))
        assert _same(delete_edge(g, u, v), from_edge_list(n, fewer))
        survivors = [w for w in range(n) if w != v]
        merged = [survivors.index(u if w == v else w) for w in range(n)]
        assert _same(contract_edge(g, u, v), rebuild(g, n - 1, merged))
    for x in range(n):
        if g.degree(x) % 2 == 0 and g.degree(x) <= 8:
            shift = without(x)
            for pairs, lifted in enumerate_lifts(g, x):
                pairs = [(shift[a], shift[b]) for a, b in pairs]
                assert _same(lifted, rebuild(g, n - 1, shift, pairs))
