import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestry import (
    MultiGraph,
    canonical_key,
    complete_lift,
    components,
    contract_edge,
    contract_set,
    degree_counts,
    delete_bundle,
    delete_edge,
    delete_vertex,
    enumerate_lifts,
    from_edge_list,
    induced,
    is_connected,
    relabel,
)
from forestry.errors import EdgeAbsent, LoopRejected, VertexOutOfRange

from oracles import complete_graph, cycle_graph, path_graph, rand_multigraph, rebuild


def test_from_edge_list_accumulates_parallel_copies():
    g = from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    assert g.multiplicity(0, 1) == 2
    assert g.multiplicity(1, 2) == 1
    assert g.m == 3
    assert g.degree(1) == 3


def test_from_edge_list_rejects_loops_and_bad_vertices():
    with pytest.raises(LoopRejected):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(-1, [])


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
    with pytest.raises(EdgeAbsent):
        contract_edge(g, 0, 2)


def test_contract_set_identifies_nonadjacent_vertices():
    p = path_graph(4)  # 0-1-2-3
    c = contract_set(p, {0, 3})
    assert c.n == 3
    assert {(u, v): t for u, v, t in c.bundles()} == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    # single-vertex contraction is the identity
    assert contract_set(p, {2}) == p


def test_contract_set_order_independent():
    rng = random.Random(7)
    for _ in range(50):
        g = rand_multigraph(rng, max_n=7, max_edges=12)
        if g.n < 3:
            continue
        vs = rng.sample(range(g.n), 3)
        a = contract_set(g, vs)
        b = contract_set(contract_set(g, vs[:2]), _map_after(vs[:2], vs))
        assert canonical_key(a) == canonical_key(b)


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
    with pytest.raises(EdgeAbsent):
        delete_edge(delete_edge(h, 0, 1), 0, 1)


def test_delete_bundle_and_vertex():
    g = from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
    assert delete_bundle(g, 0, 1).m == 1
    h = delete_vertex(g, 0)
    assert h.n == 2 and h.multiplicity(0, 1) == 1


def test_components_and_connectivity():
    g = from_edge_list(5, [(0, 1), (2, 3)])
    assert components(g) == [[0, 1], [2, 3], [4]]
    assert not is_connected(g)
    assert is_connected(cycle_graph(4))


def test_degree_counts():
    g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    assert degree_counts(g) == {2: 3, 3: 2}


def test_induced_and_relabel_roundtrip():
    g = complete_graph(4)
    sub = induced(g, [1, 2, 3])
    assert sub.n == 3 and sub.m == 3
    perm = [2, 0, 3, 1]
    assert canonical_key(relabel(g, perm)) == canonical_key(g)


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
    a = contract_edge(relabel(g, perm), perm[u], perm[v])
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
    # equal graphs whose bundles also come out in the same (ascending) order
    return h == expected and list(h.bundles()) == list(expected.bundles())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_derived_graphs_match_an_edge_list_rebuild(seed):
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=7, max_edges=14)
    n = g.n
    perm = rng.sample(range(n), n)
    assert _same(relabel(g, perm), rebuild(g, n, perm))
    keep = sorted(rng.sample(range(n), rng.randint(0, n)))
    rank = [keep.index(v) if v in keep else None for v in range(n)]
    assert _same(induced(g, keep), rebuild(g, len(keep), rank))

    def without(x):
        return [v - (v > x) if v != x else None for v in range(n)]

    x = rng.randrange(n)
    assert _same(delete_vertex(g, x), rebuild(g, n - 1, without(x)))
    vs = rng.sample(range(n), rng.randint(1, n))
    survivors = [v for v in range(n) if v not in vs or v == min(vs)]
    merged = [survivors.index(min(vs) if v in vs else v) for v in range(n)]
    assert _same(contract_set(g, vs), rebuild(g, len(survivors), merged))
    edges = g.edge_list()
    if edges:
        u, v = rng.choice(edges)
        fewer = list(edges)
        fewer.remove((u, v))
        assert _same(delete_edge(g, u, v), from_edge_list(n, fewer))
        assert _same(delete_bundle(g, u, v), from_edge_list(n, [e for e in edges if e != (u, v)]))
        survivors = [w for w in range(n) if w != v]
        merged = [survivors.index(u if w == v else w) for w in range(n)]
        assert _same(contract_edge(g, u, v), rebuild(g, n - 1, merged))
    for x in range(n):
        if g.degree(x) % 2 == 0 and g.degree(x) <= 8:
            shift = without(x)
            for plan, lifted in enumerate_lifts(g, x):
                pairs = [(shift[a], shift[b]) for a, b in plan.pairs]
                assert _same(lifted, rebuild(g, n - 1, shift, pairs))
                assert _same(complete_lift(g, x, plan), lifted)
