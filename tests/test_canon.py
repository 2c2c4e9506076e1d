import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestry import (
    MemoCache,
    MultiGraph,
    automorphisms,
    canonical_key,
    count_forests,
    from_edge_list,
)
from forestry import canon

from oracles import (
    _reference_first_cell,
    _reference_refine,
    _reference_serialize,
    complete_graph,
    cycle_graph,
    path_graph,
    perm_isomorphic,
    rand_multigraph,
    reference_automorphisms,
    reference_canonical_key,
    reference_refine_cells,
    reference_root,
    relabeled,
)

PETERSEN = (
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
)


def _all_simple_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_four_vertex_simple_graphs_have_eleven_classes():
    keys = {canonical_key(g) for g in _all_simple_graphs(4)}
    assert len(keys) == 11


def test_key_invariant_under_relabeling():
    rng = random.Random(3)
    for _ in range(120):
        g = rand_multigraph(rng, max_n=8, max_edges=16)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_key(relabeled(g, perm)) == canonical_key(g)


def test_equal_keys_imply_isomorphism_small():
    # collision check: every pair of small graphs with matching keys really is
    # isomorphic, every pair with distinct keys really is not
    rng = random.Random(5)
    graphs = [rand_multigraph(rng, max_n=5, max_edges=8) for _ in range(60)]
    for a, b in itertools.combinations(graphs, 2):
        if a.n != b.n:
            continue
        same_key = canonical_key(a) == canonical_key(b)
        assert same_key == perm_isomorphic(a, b)


def test_multiplicities_distinguish():
    single = from_edge_list(2, [(0, 1)])
    double = from_edge_list(2, [(0, 1), (0, 1)])
    assert canonical_key(single) != canonical_key(double)


def test_automorphism_counts():
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(cycle_graph(4))) == 8
    assert len(automorphisms(path_graph(3))) == 2
    assert len(automorphisms(from_edge_list(1, []))) == 1


def test_automorphisms_preserve_adjacency():
    rng = random.Random(9)
    for _ in range(25):
        g = rand_multigraph(rng, max_n=6, max_edges=10)
        for sigma in automorphisms(g):
            assert relabeled(g, list(sigma)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_nonisomorphic_graphs_get_distinct_keys(seed):
    rng = random.Random(seed)
    a = rand_multigraph(rng, max_n=5, max_edges=7)
    b = rand_multigraph(rng, max_n=5, max_edges=7)
    if a.n == b.n and not perm_isomorphic(a, b):
        assert canonical_key(a) != canonical_key(b)


def test_empty_and_trivial_graphs():
    assert canonical_key(MultiGraph(0)) == canonical_key(MultiGraph(0))
    assert canonical_key(MultiGraph(1)) != canonical_key(MultiGraph(2))


# -- the pruned search against the full reference search ----------------


def _raw(n, mults):
    """Adjacency dicts from {(u, v): multiplicity} with u < v."""
    adj = [{} for _ in range(n)]
    for (u, v), t in sorted(mults.items()):
        if t:
            adj[u][v] = adj[v][u] = t
    return adj


def _assert_matches_reference(n, adj):
    key = reference_canonical_key(n, adj)
    assert canon.canonical_key(n, adj) == key
    auts = canon.automorphisms(n, adj)
    assert len(auts) == len(set(auts))
    reference_group = set(reference_automorphisms(n, adj))
    assert set(auts) == reference_group
    # one search gives the key, a canonical order and generators
    found, gens, order = canon.search(n, adj, *canon._root(adj))
    assert found == key
    assert sorted(order) == list(range(n))
    assert _reference_serialize(n, adj, [0] * n, order) == key
    for g in gens:
        sigma = [g.get(v, v) for v in range(n)]
        assert sigma != list(range(n))
        assert all(adj[sigma[v]] == {sigma[w]: t for w, t in adj[v].items()} for v in range(n))
    # the generators reach every automorphic image of each vertex
    for v in range(n):
        orbit = [v]
        for x in orbit:
            orbit += [g[x] for g in gens if g.get(x, x) not in orbit]
        assert set(orbit) == {a[v] for a in reference_group}


@st.composite
def raw_multigraphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    mults = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return n, _raw(n, dict(zip(pairs, mults)))


@settings(max_examples=150, deadline=None)
@given(raw_multigraphs())
def test_keys_and_groups_match_the_reference_search(graph):
    _assert_matches_reference(*graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_sparse_multigraphs_match_the_reference_search(seed):
    # sparse draws reach the symmetric graphs (cycles, matchings, stars)
    # that dense uniform multiplicities rarely produce
    g = rand_multigraph(random.Random(seed), max_n=7, max_edges=10)
    adj = [{w: g.multiplicity(v, w) for w in g.neighbors(v)} for v in range(g.n)]
    _assert_matches_reference(g.n, adj)


def test_regular_graphs_match_the_reference_search():
    # refinement cannot split a regular graph, so the search reaches leaves
    # that are not images of the best one under any automorphism; the
    # Frucht graph has none but the identity
    frucht = [(i, (i + 1) % 12) for i in range(12)]
    for i, jump in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]):
        if jump > 0:
            frucht.append((i, (i + jump) % 12))
    rng = random.Random(5)
    graphs = [from_edge_list(12, frucht), from_edge_list(10, PETERSEN)]
    while len(graphs) < 5:
        stubs = [v for v in range(10) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(stubs[i : i + 2])) for i in range(0, 30, 2)}
        if len(pairs) == 15 and all(u != v for u, v in pairs):
            graphs.append(from_edge_list(10, pairs))
    for g in graphs:
        adj = [{w: g.multiplicity(v, w) for w in g.neighbors(v)} for v in range(g.n)]
        _assert_matches_reference(g.n, adj)


def test_every_multigraph_on_four_vertices_matches_the_reference():
    # every labeled multigraph with multiplicities <= 3, so every class
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for mults in itertools.product(range(4), repeat=len(pairs)):
            _assert_matches_reference(n, _raw(n, dict(zip(pairs, mults))))


# -- searches seeded with automorphisms known in advance ----------------


def _moved(sigma):
    return {v: x for v, x in enumerate(sigma) if v != x}


@st.composite
def graphs_with_known_automorphisms(draw):
    # simple graphs and multigraphs, seeded with any automorphisms of
    # theirs, products of generators included
    n = draw(st.integers(0, 7))
    top = draw(st.sampled_from([1, 3]))
    pairs = list(itertools.combinations(range(n), 2))
    mults = draw(st.lists(st.integers(0, top), min_size=len(pairs), max_size=len(pairs)))
    adj = _raw(n, dict(zip(pairs, mults)))
    group = reference_automorphisms(n, adj)
    known = draw(st.lists(st.sampled_from(group), max_size=6, unique=True))
    return n, adj, [_moved(sigma) for sigma in known]


_PETERSEN_ADJ = _raw(10, dict.fromkeys(PETERSEN, 1))


@settings(max_examples=150, deadline=None)
@given(graphs_with_known_automorphisms())
@example((10, _PETERSEN_ADJ, canon.search(10, _PETERSEN_ADJ, *canon._root(_PETERSEN_ADJ))[1]))
def test_known_automorphisms_keep_the_key_order_and_group(graph):
    n, adj, known = graph
    cells, width = canon._root(adj)
    key, _, unseeded_order = canon.search(n, adj, cells, width)
    found, gens, order = canon.search(n, adj, cells, width, known)
    assert found == key
    assert order == unseeded_order
    assert _reference_serialize(n, adj, [0] * n, order) == key
    assert gens[: len(known)] == known
    # the given and the found generators together generate the whole group
    group = {tuple(range(n))}
    queue = list(group)
    for sigma in queue:
        for g in gens:
            image = tuple([g.get(x, x) for x in sigma])
            if image not in group:
                group.add(image)
                queue.append(image)
    assert len(group) == len(reference_automorphisms(n, adj))


# -- the root read off the multiplicity profiles ------------------------


def _assert_root_matches_the_unit_refinement(adj):
    cells, width = canon._root(adj)
    assert cells == reference_root(adj)
    # the root alone decides simpleness: integer digits of the largest
    # degree's bits on a simple graph, pair tuples on a multigraph
    simple = all(t == 1 for row in adj for t in row.values())
    assert width == (max(map(len, adj), default=0).bit_length() if simple else 0)
    # past the root, a simple graph is signed by integers; individualize
    # each vertex of the first nontrivial cell and refine against the pairs
    t = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
    for w in cells[t] if t is not None else ():
        split = cells[:t] + [[w], [v for v in cells[t] if v != w]] + cells[t + 1 :]
        got = canon._refine(adj, split, adj[w], width)
        assert got == reference_refine_cells(adj, split, adj[w])


def test_the_root_matches_the_unit_refinement_on_every_small_multigraph():
    for n in range(5):
        pairs = list(itertools.combinations(range(n), 2))
        for mults in itertools.product(range(4), repeat=len(pairs)):
            _assert_root_matches_the_unit_refinement(_raw(n, dict(zip(pairs, mults))))


@st.composite
def graphs_up_to_ten(draw):
    n = draw(st.integers(0, 10))
    simple = draw(st.booleans())
    ends = st.integers(0, max(n - 1, 0))
    mults = {}
    for u, v in draw(st.lists(st.tuples(ends, ends), max_size=3 * n)):
        if u != v:
            pair = (min(u, v), max(u, v))
            mults[pair] = 1 if simple else mults.get(pair, 0) + 1
    return n, _raw(n, mults)


@settings(max_examples=200, deadline=None)
@given(graphs_up_to_ten())
@example((0, []))
@example((1, [{}]))
@example((6, [{} for _ in range(6)]))
def test_the_root_matches_the_unit_refinement(graph):
    _assert_root_matches_the_unit_refinement(graph[1])


def _circulant(n, jumps):
    return _raw(n, {tuple(sorted((v, (v + j) % n))): 1 for v in range(n) for j in jumps})


@st.composite
def simple_graphs_around_the_digit(draw):
    """A simple graph on up to 40 vertices whose largest degree sits at or
    just past a power of two less one, where the integer signature's digit
    widens; most draws sign by integers past a 64-bit word."""
    n = draw(st.integers(0, 40))
    dmax = min(draw(st.sampled_from([1, 2, 3, 4, 7, 8])), max(n - 1, 0))
    degree = [0] * n
    mults = {}
    ends = st.integers(0, max(n - 1, 0))
    pairs = [(0, v) for v in range(1, dmax + 1)]  # vertex 0 takes the largest degree
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
    for u, v in pairs:
        pair = (min(u, v), max(u, v))
        if u != v and pair not in mults and degree[u] < dmax and degree[v] < dmax:
            mults[pair] = 1
            degree[u] += 1
            degree[v] += 1
    return _raw(n, mults)


@settings(max_examples=150, deadline=None)
@given(simple_graphs_around_the_digit())
@example(_circulant(32, [1]))  # 32 digits of 2 bits pass a 64-bit word
@example(_circulant(22, [1, 2]))  # 22 of 3 bits
@example(_circulant(16, [1, 2, 3, 4]))  # degree 8 takes 4-bit digits
@example(_circulant(200, [1, 2, 5]))  # 200 of 3 bits
# digits one bit narrower than the largest degree's carry on this graph
@example(_raw(9, dict.fromkeys([(0, 2), (0, 5), (1, 2), (1, 8), (2, 5), (3, 7), (4, 6),
                                (6, 7), (6, 8), (7, 8)], 1)))
def test_the_simple_graph_signature_matches_the_reference(adj):
    _assert_root_matches_the_unit_refinement(adj)
    # every simple graph with an edge is signed by integers, digits of the
    # largest degree's bits
    assert canon._root(adj)[1] == max(map(len, adj), default=0).bit_length()


def test_pinned_keys():
    # computed by the full search before automorphism pruning existed
    k5x3 = from_edge_list(5, list(itertools.combinations(range(5), 2)) * 3)
    assert canonical_key(complete_graph(4)).hex() == "0400000000010101010101"
    assert canonical_key(from_edge_list(10, PETERSEN)).hex() == (
        "0a00000000000000000000010101000000000000000001010000000000000001"
        "010000000000000101000100010000010001000001010000"
    )
    assert canonical_key(k5x3).hex() == "05000000000003030303030303030303"
    assert len(automorphisms(from_edge_list(10, PETERSEN))) == 120
    assert len(automorphisms(k5x3)) == 120


@pytest.mark.parametrize("n, order", [(8, 40320), (9, 362880)])
def test_large_complete_graphs(n, order):
    # every labeling of K_n serializes the same way
    g = complete_graph(n)
    assert canonical_key(g) == bytes([n]) + bytes(n) + bytes([1]) * (n * (n - 1) // 2)
    auts = automorphisms(g)
    assert len(auts) == len(set(auts)) == order


def test_edgeless_400_key():
    # each leaf after the first is checked as an automorphism on the
    # edges, not serialized: about 2n leaves of n^2 / 2 bytes otherwise
    assert canonical_key(MultiGraph(400)) == b"\xff\x91" + bytes(400 + 400 * 399 // 2)


def test_400_cycle_key_matches_the_reference_leaf():
    # the full reference search individualizes a vertex, then one vertex
    # of a mirror pair; its 800 leaves are the images of one leaf under
    # the 800 automorphisms, so one leaf's serialization is the reference
    # key, written here with the escape encoding past 255
    n = 400
    g = cycle_graph(n)
    nbrs = [list(g._adj[v].items()) for v in range(n)]
    colors = _reference_refine(n, nbrs, [0] * n, [0] * n)
    while (cell := _reference_first_cell(n, colors)) is not None:
        colors = [2 * c for c in colors]
        colors[cell[0]] -= 1
        colors = _reference_refine(n, nbrs, [0] * n, colors)
    order = sorted(range(n), key=colors.__getitem__)
    vals = [n] + [0] * n
    vals += [g.multiplicity(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    assert canonical_key(g) == b"".join(b"\xff" * (x // 255) + bytes([x % 255]) for x in vals)


def test_large_values_are_escaped():
    # a value x from 255 up is x // 255 bytes 255, then the byte x % 255
    def triangle(t):
        return from_edge_list(3, [(0, 1)] * t + [(1, 2), (0, 2)])

    assert canonical_key(triangle(254)).hex() == "030000000101fe"
    assert canonical_key(triangle(300)).hex() == "030000000101ff2d"
    keys = {canonical_key(triangle(t)) for t in (254, 255, 256, 300, 301)}
    assert len(keys) == 5
    assert canonical_key(relabeled(triangle(300), [2, 0, 1])) == canonical_key(triangle(300))
    assert canonical_key(path_graph(300))[:2] == bytes([255, 45])
    assert canonical_key(triangle(600))[4:] == bytes([1, 1, 255, 255, 90])
    assert count_forests(triangle(300), MemoCache()) == 3 * 300 + 4
