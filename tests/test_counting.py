import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestry import (
    MemoCache,
    MultiGraph,
    contract_edge,
    contract_set,
    count_forests,
    count_forests_bruteforce,
    count_forests_separating,
    count_trees,
    delete_edge,
    extension_count,
    from_edge_list,
)
from forestry import counting
from forestry.errors import InputError

from oracles import (
    complete_graph,
    cycle_graph,
    forests_by_subsets,
    kirchhoff_trees,
    path_graph,
    rand_multigraph,
    reference_vertex_order,
    separating_forests_bruteforce,
    trees_by_subsets,
)


def complete_bipartite(a, b):
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- closed forms ------------------------------------------------------


def test_small_complete_graphs():
    assert count_forests(complete_graph(3)) == 7
    assert count_forests(complete_graph(4)) == 38
    assert count_forests(complete_graph(5)) == 291


def test_trees_of_complete_graphs_match_cayley():
    for n in range(2, 9):
        assert count_trees(complete_graph(n)) == n ** (n - 2)


def test_cycles():
    # every proper edge subset of a cycle is a forest
    for n in range(3, 10):
        c = cycle_graph(n)
        assert count_forests(c) == 2**n - 1
        assert count_trees(c) == n


def test_a_400_cycle_counts_without_recursion():
    # every proper edge subset is a forest; a recursion would nest 400 deep
    c = cycle_graph(400)
    assert count_forests(c) == 2**400 - 1
    assert count_trees(c) == 400
    cache = MemoCache()
    assert count_forests(c, cache) == 2**400 - 1
    assert count_trees(c, cache) == 400
    assert count_forests(c, cache) == 2**400 - 1
    assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)


def test_a_20000_leaf_star_counts_quickly():
    # an order rescanning every candidate at each step is quadratic here
    star = from_edge_list(20001, [(0, i) for i in range(1, 20001)])
    t0 = time.perf_counter()
    assert count_forests(star) == 2**20000
    assert count_trees(star) == 1
    assert time.perf_counter() - t0 < 20


def test_dense_input_stops_at_the_state_table_guard():
    assert count_forests(complete_graph(11)) == 4767440679  # OEIS A001858
    too_dense = f"^over {counting.MAX_STATES} frontier states: the graph is too dense to count$"
    with pytest.raises(InputError, match=too_dense):
        count_forests(complete_graph(13))


def test_trees_have_power_of_two_forests():
    assert count_forests(path_graph(5)) == 2**4
    star = from_edge_list(6, [(0, i) for i in range(1, 6)])
    assert count_forests(star) == 2**5
    assert count_trees(star) == 1


def test_two_cycle():
    g = from_edge_list(2, [(0, 1), (0, 1)])
    assert count_forests(g) == 3
    assert count_trees(g) == 2


def test_complete_bipartite_k33():
    g = complete_bipartite(3, 3)
    assert count_forests(g) == 328
    assert count_trees(g) == 81


def test_near_complete_graphs():
    assert count_forests(delete_edge(complete_graph(4), 0, 1)) == 24
    assert count_forests(delete_edge(complete_graph(5), 0, 1)) == 198


def test_degenerate_graphs():
    assert count_forests(MultiGraph(0)) == 1
    assert count_forests(MultiGraph(3)) == 1
    assert count_trees(MultiGraph(1)) == 1
    assert count_trees(MultiGraph(3)) == 0


def test_disconnected_forests_multiply():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert count_forests(g) == 49
    assert count_trees(g) == 0


def test_cut_vertex_splits_into_blocks():
    bowtie = from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert count_forests(bowtie) == 49
    assert count_trees(bowtie) == 9


def test_bridge_joined_triangles():
    g = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
    )
    assert count_forests(g) == 98
    assert count_trees(g) == 9


# -- oracle equivalence ------------------------------------------------


def test_exhaustive_simple_graphs_up_to_four_vertices():
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert count_forests(g) == count_forests_bruteforce(g)
            assert count_trees(g) == kirchhoff_trees(g)


def test_random_multigraphs_against_bruteforce():
    rng = random.Random(2024)
    cache = MemoCache()
    for _ in range(120):
        g = rand_multigraph(rng, max_n=7, max_edges=14)
        assert count_forests(g, cache) == count_forests_bruteforce(g)
        assert count_trees(g, cache) == kirchhoff_trees(g)


def test_subset_oracles_agree_with_each_other():
    rng = random.Random(77)
    for _ in range(20):
        g = rand_multigraph(rng, max_n=5, max_edges=9)
        assert forests_by_subsets(g) == count_forests_bruteforce(g)
        assert trees_by_subsets(g) == kirchhoff_trees(g)


def test_bruteforce_cap():
    with pytest.raises(InputError, match="^28 edges exceeds the brute-force cap 24$"):
        count_forests_bruteforce(complete_graph(8))
    # the search recurses once per edge and visits every acyclic subset,
    # so the cap bounds both its depth and its time
    for g in (cycle_graph(25), cycle_graph(1600)):
        with pytest.raises(InputError, match=f"^{g.m} edges exceeds the brute-force cap 24$"):
            count_forests_bruteforce(g)
    assert count_forests_bruteforce(complete_graph(6)) == count_forests(
        complete_graph(6)
    )


# -- deletion-contraction identities -----------------------------------


def test_single_edge_identity_random():
    rng = random.Random(31)
    for _ in range(60):
        g = rand_multigraph(rng, max_n=7, max_edges=12)
        pairs = list(g.bundles())
        if not pairs:
            continue
        u, v, t = pairs[rng.randrange(len(pairs))]
        assert count_forests(g) == count_forests(delete_edge(g, u, v)) + count_forests(
            contract_edge(g, u, v)
        )
        assert count_trees(g) == count_trees(delete_edge(g, u, v)) + count_trees(
            contract_edge(g, u, v)
        )


def test_bundle_identity_random():
    rng = random.Random(32)
    for _ in range(60):
        g = rand_multigraph(rng, max_n=7, max_edges=12)
        pairs = list(g.bundles())
        if not pairs:
            continue
        u, v, t = pairs[rng.randrange(len(pairs))]
        without_bundle = from_edge_list(g.n, [e for e in g.edge_list() if e != (u, v)])
        assert count_forests(g) == count_forests(
            without_bundle
        ) + t * count_forests(contract_edge(g, u, v))


# -- separating counts --------------------------------------------------


def test_separating_triangle_pair():
    assert count_forests_separating(complete_graph(3), {0, 1}) == 3


def test_separating_k4_pair():
    assert count_forests_separating(complete_graph(4), {0, 1}) == 14


def test_separating_requires_vertices():
    with pytest.raises(InputError, match="^contract_set needs at least one vertex$"):
        count_forests_separating(complete_graph(3), set())


def test_separating_matches_bruteforce_filter():
    rng = random.Random(48)
    for _ in range(40):
        g = rand_multigraph(rng, max_n=6, max_edges=10)
        if g.n < 2:
            continue
        k = rng.randrange(2, g.n + 1)
        vs = set(rng.sample(range(g.n), k))
        assert count_forests_separating(g, vs) == separating_forests_bruteforce(g, vs)


def _double_star():
    # a 6-vertex tree: centers 0 and 1 joined, leaves 2,3 on 0 and 4,5 on 1
    return from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def test_double_star_contraction_ladder():
    g = _double_star()
    assert count_forests(g) == 32
    assert count_forests_separating(g, {2, 3}) == 24
    assert count_forests_separating(g, {2, 4}) == 28
    assert count_forests_separating(g, {2, 3, 4}) == 20
    assert count_forests_separating(g, {2, 3, 4, 5}) == 14
    # two disjoint merges; after {2,3} collapses into slot 2, the old
    # leaves 4 and 5 sit at 3 and 4
    h = contract_set(g, {2, 3})
    assert count_forests(contract_set(h, {3, 4})) == 18
    h = contract_set(g, {2, 4})
    assert count_forests(contract_set(h, {3, 4})) == 24


# -- gadget extension counts --------------------------------------------


def test_extension_identity_partition():
    g = _double_star()
    parts = [[v] for v in range(6)]
    assert extension_count(g, parts) == 32


def test_extension_merges_blocks():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert extension_count(g, [[0, 1]]) == 2
    assert extension_count(g, [[0, 2]]) == 4
    assert extension_count(g, [[0, 1], [2, 3]]) == 1


def test_extension_rejects_bad_input():
    g = from_edge_list(7, _double_star().edge_list())  # vertex 6 has no edge
    with pytest.raises(InputError, match="^vertex 0 appears in two blocks$"):
        extension_count(g, [[0], [0, 1]])
    with pytest.raises(InputError, match="^empty block$"):
        extension_count(g, [[]])
    for bad in (6, 7, -1, "0"):
        with pytest.raises(InputError, match=f"^block vertex {bad} is not a gadget vertex$"):
            extension_count(g, [[bad], [0, 1]])


def test_extension_matches_direct_contraction():
    rng = random.Random(66)
    for _ in range(30):
        g = rand_multigraph(rng, max_n=6, max_edges=10, connected=True)
        if g.m < 2:
            continue
        # whole graph as gadget: merging one block is plain contraction
        k = rng.randrange(2, g.n + 1)
        block = sorted(rng.sample(range(g.n), k))
        got = extension_count(g, [block])
        assert got == count_forests(contract_set(g, block))


# -- memo cache ----------------------------------------------------------


def test_cache_reuse_and_stats():
    cache = MemoCache()
    a = count_forests(complete_graph(5), cache)
    hits_after_first = cache.hits
    b = count_forests(complete_graph(5), cache)
    assert a == b == 291
    assert cache.hits > hits_after_first
    assert len(cache) > 0


def test_cache_namespaces_do_not_collide():
    cache = MemoCache()
    assert count_forests(complete_graph(4), cache) == 38
    assert count_trees(complete_graph(4), cache) == 16
    assert count_forests(complete_graph(4), cache) == 38


def test_cache_insert_is_idempotent_but_not_mutable():
    cache = MemoCache()
    cache.insert("F", b"k", 7)
    cache.insert("F", b"k", 7)
    with pytest.raises(ValueError):
        cache.insert("F", b"k", 8)
    assert cache.lookup("F", b"k") == 7
    assert cache.lookup("F", b"missing") is None
    assert cache.hits == 1 and cache.misses == 1


# -- properties ----------------------------------------------------------


@st.composite
def multigraphs(draw):
    """Side-by-side parts of 1-4 vertices, bundles up to 4 copies, <= 12 edges.

    Single-vertex parts are isolated vertices, and most draws have
    several components.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    pairs = []
    for k, base in zip(sizes, itertools.accumulate([0] + sizes)):
        pairs += itertools.combinations(range(base, base + k), 2)
    edges = []
    if pairs:
        bundles = st.dictionaries(st.sampled_from(pairs), st.integers(1, 4), max_size=6)
        for pair, t in draw(bundles).items():
            edges += [pair] * min(t, 12 - len(edges))
    return from_edge_list(sum(sizes), edges)


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_forests_match_both_oracles(g):
    assert count_forests(g) == count_forests_bruteforce(g) == forests_by_subsets(g)


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_trees_match_the_subset_oracle(g):
    assert count_trees(g) == trees_by_subsets(g)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30))
def test_forest_count_dominates_tree_count(seed):
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=6, max_edges=10)
    f = count_forests(g)
    t = count_trees(g)
    assert f >= max(t, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_engine_matches_subset_oracle(seed):
    rng = random.Random(seed)
    g = rand_multigraph(rng, max_n=6, max_edges=10)
    assert count_forests(g) == forests_by_subsets(g)


def test_deleting_an_edge_strictly_reduces_forests():
    rng = random.Random(90)
    for _ in range(40):
        g = rand_multigraph(rng, max_n=6, max_edges=10)
        pairs = list(g.bundles())
        if not pairs:
            continue
        u, v, _ = pairs[0]
        assert count_forests(delete_edge(g, u, v)) < count_forests(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_vertex_order_matches_the_rescanning_reference(seed):
    g = rand_multigraph(random.Random(seed), max_n=14, max_edges=40)
    assert counting._vertex_order(g._adj) == reference_vertex_order(g._adj)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_trees_match_kirchhoff_past_the_subset_oracle(seed):
    # enough edges that Bareiss scales entries lazily across several pivots
    g = rand_multigraph(random.Random(seed), max_n=12, max_edges=40, connected=True)
    assert count_trees(g) == kirchhoff_trees(g)
