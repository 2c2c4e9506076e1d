import itertools
import math
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestry import (
    Gadget,
    MemoCache,
    MultiGraph,
    contract_edge,
    count_forests,
    count_forests_bruteforce,
    count_trees,
    delete_edge,
    from_edge_list,
    identify,
    min_ratio_check,
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


def grid(a, b):
    right = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    down = [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return from_edge_list(a * b, right + down)


def bell(n):
    """Number of partitions of an n-set."""
    b = [1]
    for k in range(n):
        b.append(sum(math.comb(k, i) * b[i] for i in range(k + 1)))
    return b[n]


# -- closed forms ------------------------------------------------------


def test_small_complete_graphs():
    assert count_forests(complete_graph(3)) == 7
    assert count_forests(complete_graph(4)) == 38
    assert count_forests(complete_graph(5)) == 291


def test_trees_of_complete_graphs_match_cayley():
    for n in range(2, 11):
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


def test_a_2x20000_ladder_counts_its_trees_quickly():
    # the frontier stays two vertices wide, so the cost grows only with k
    t = [0, 1, 4]  # t_k, the spanning trees of the 2 x k ladder
    for k in range(3, 20001):
        t.append(4 * t[k - 1] - t[k - 2])
    ladder = grid(2, 20000)
    t0 = time.perf_counter()
    assert count_trees(ladder) == t[20000]
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


def test_trees_match_kirchhoff_on_ladders_grids_bundles_and_degenerate_input():
    bundles = from_edge_list(4, [(0, 1)] * 5 + [(1, 2)] * 3 + [(2, 3)] * 4 + [(0, 2)] * 2)
    cases = [grid(2, k) for k in (1, 2, 3, 10, 40)] + [grid(7, 7), bundles]
    cases += [from_edge_list(5, [(0, 1), (1, 2), (3, 4)]), from_edge_list(2, [(0, 1)] * 3)]
    cases += [MultiGraph(1), MultiGraph(2)]  # one vertex, and two without an edge
    for g in cases:
        assert count_trees(g) == kirchhoff_trees(g)
    assert count_trees(grid(7, 7)) == 19872369301840986112  # OEIS A007341
    # the oracle's empty determinant is 1; count_trees says the empty graph has no tree
    assert (count_trees(MultiGraph(0)), kirchhoff_trees(MultiGraph(0))) == (0, 1)


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


def separating(g, vset):
    """Forests in which the vertices of vset lie in pairwise distinct trees."""
    return count_forests(identify(g, [vset]))


def test_separating_triangle_pair():
    assert separating(complete_graph(3), {0, 1}) == 3


def test_separating_k4_pair():
    assert separating(complete_graph(4), {0, 1}) == 14


def test_separating_requires_vertices():
    with pytest.raises(InputError, match="^empty block$"):
        separating(complete_graph(3), set())


def test_separating_matches_bruteforce_filter():
    rng = random.Random(48)
    for _ in range(40):
        g = rand_multigraph(rng, max_n=6, max_edges=10)
        if g.n < 2:
            continue
        k = rng.randrange(2, g.n + 1)
        vs = set(rng.sample(range(g.n), k))
        assert separating(g, vs) == separating_forests_bruteforce(g, vs)


def _double_star():
    # a 6-vertex tree: centers 0 and 1 joined, leaves 2,3 on 0 and 4,5 on 1
    return from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def test_double_star_contraction_ladder():
    g = _double_star()
    assert count_forests(g) == 32
    assert separating(g, {2, 3}) == 24
    assert separating(g, {2, 4}) == 28
    assert separating(g, {2, 3, 4}) == 20
    assert separating(g, {2, 3, 4, 5}) == 14
    # two disjoint merges; after {2,3} collapses into slot 2, the old
    # leaves 4 and 5 sit at 3 and 4
    h = identify(g, [{2, 3}])
    assert count_forests(identify(h, [{3, 4}])) == 18
    assert count_forests(identify(g, [{2, 3}, {4, 5}])) == 18
    h = identify(g, [{2, 4}])
    assert count_forests(identify(h, [{3, 4}])) == 24
    assert count_forests(identify(g, [{2, 4}, {3, 5}])) == 24


# -- gadget extension counts --------------------------------------------


def test_extension_identity_partition():
    g = _double_star()
    parts = [[v] for v in range(6)]
    assert count_forests(identify(g, parts)) == 32


def test_extension_merges_blocks():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert count_forests(identify(g, [[0, 1]])) == 2
    assert count_forests(identify(g, [[0, 2]])) == 4
    assert count_forests(identify(g, [[0, 1], [2, 3]])) == 1


def test_extension_rejects_bad_input():
    # any attachment could meet a host, so each must be a vertex with an edge
    g = from_edge_list(7, _double_star().edge_list())  # vertex 6 has no edge
    good = Gadget(g, (0, 1))
    for attachment, message in [
        (6, "attachment 6 has no edge"),
        ("0", "attachment '0' is not a vertex"),
        (None, "attachment None is not a vertex"),
        (True, "attachment True is not a vertex"),
        (7, "attachment 7 is not a vertex"),
        (-1, "attachment -1 is not a vertex"),
    ]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            min_ratio_check(Gadget(g, (0, attachment)), good)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            min_ratio_check(good, Gadget(g, (attachment, 1)))


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


def reference_plan(adj):
    """The plan as the forest count once derived it: ranks, last neighbours and a keyed sort."""
    order = reference_vertex_order(adj)
    rank = {v: i for i, v in enumerate(order)}
    last = [max([rank[v]] + [rank[w] for w in adj[v]]) for v in range(len(adj))]
    plan = []
    for i, v in enumerate(order):
        earlier = sorted((u for u in adj[v] if rank[u] < i), key=lambda u: (last[u] != i, rank[u]))
        plan.append((v, [(u, last[u] == i) for u in earlier], last[v] == i))
    return plan


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        multigraphs(),
        # larger graphs whose edges arrive in random order, so that no
        # neighbour dict lists its vertices in entry order by chance
        st.integers(0, 2**30).map(
            lambda seed: rand_multigraph(random.Random(seed), max_n=14, max_edges=40)
        ),
    )
)
def test_the_plan_reads_each_step_off_the_waiting_counts(g):
    plan = list(counting._plan(g._adj))
    assert plan == reference_plan(g._adj)
    # one join per bundle, taken at its later end, and one per vertex that
    # leaves as it enters
    with mock.patch.object(counting, "_join", wraps=counting._join) as join:
        count_forests(g)
    assert join.call_count == len(list(g.bundles())) + sum(leaves for _, _, leaves in plan)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_trees_match_kirchhoff_past_the_subset_oracle(seed):
    # past the subset oracle's reach; a few draws outgrow the step table's width
    g = rand_multigraph(random.Random(seed), max_n=12, max_edges=40, connected=True)
    assert count_trees(g) == kirchhoff_trees(g)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), multigraphs())
def test_a_warm_step_table_counts_as_an_empty_one(g, h):
    counting._STEPS.clear()
    cold_g, warm_h = count_forests(g), count_forests(h)
    counting._STEPS.clear()
    cold_h, warm_g = count_forests(h), count_forests(g)
    assert cold_g == warm_g == forests_by_subsets(g)
    assert cold_h == warm_h == forests_by_subsets(h)


def test_the_step_table_keeps_to_its_width_and_size():
    def most_steps(width):
        return sum(2 * w * bell(w) for w in range(1, width + 1))

    assert [bell(w) for w in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]
    assert (most_steps(6), most_steps(7)) == (3116, 15394)  # as counting.py states
    width = counting.TABLE_WIDTH
    counting._STEPS.clear()
    # K10's frontier grows past the width; the ladder's stays narrow for 400 vertices
    for g in (complete_graph(10), grid(2, 200), grid(7, 7)):
        count_forests(g)
    states = [s for row in counting._STEPS.values() for s in row]
    assert max(map(len, states)) == width
    assert all(q < width for q, _, _ in counting._STEPS)
    assert len(states) <= most_steps(width)
