import random
import time
import typing
from fractions import Fraction
from itertools import product

import pytest

import forestry
from forestry import (
    MemoCache,
    canonical_key,
    count_forests,
    count_trees,
    from_edge_list,
    is_connected,
)
from forestry.errors import InputError
from forestry.lifts import (
    _PAIRINGS,
    MAX_LIFT_SIZE,
    MAX_LIFTS,
    TABLE_ENDS,
    _pairings,
    _partitions,
    enumerate_lifts,
    graphs_with_degrees,
    lift_constant,
    lift_feasible_multigraph,
)

from oracles import (
    brute_force_pairings,
    cycle_graph,
    path_graph,
    rand_multigraph,
    rebuild,
    reference_graphs_with_degrees,
    reference_lift_feasible,
)


def k33_with_apex():
    # 9 vertices: 0 joined to every vertex of a complete bipartite 3+3
    pairs = [(0, v) for v in range(1, 7)]
    pairs += [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]
    pairs += [(7, 1), (8, 4)]  # spectators so 0 is not the whole graph
    return from_edge_list(9, pairs)


# -- feasibility ---------------------------------------------------------


def test_feasible_multigraph_basics():
    double = from_edge_list(2, [(0, 1), (0, 1)])
    assert not lift_feasible_multigraph(double, 0)

    assert lift_feasible_multigraph(cycle_graph(4), 0)
    assert lift_feasible_multigraph(cycle_graph(5), 2)

    star4 = from_edge_list(5, [(0, i) for i in range(1, 5)])
    # removing the center leaves m + 2 = 4 pieces
    assert not lift_feasible_multigraph(star4, 0)


def test_feasibility_matches_the_route_through_g_minus_x():
    # hosts need not be connected, and centres include degree 0 and ones
    # whose removal leaves more than m + 1 components
    rng = random.Random(23)
    hosts = [rand_multigraph(rng, max_n=8, max_edges=12) for _ in range(300)]
    hosts += [
        from_edge_list(1, []),
        from_edge_list(3, [(1, 2)]),
        from_edge_list(7, [(0, i) for i in range(1, 7)]),
        from_edge_list(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6)]),
    ]
    seen = {"degree 0": 0, "too many components": 0, "feasible": 0}
    for g in hosts:
        for x in range(g.n):
            d = g.degree(x)
            if d % 2:
                continue
            claim = lift_feasible_multigraph(g, x)
            assert claim == reference_lift_feasible(g, x), (g, x)
            m = d // 2
            if d == 0:
                seen["degree 0"] += 1
            elif max(g.multiplicity(x, y) for y in g.neighbors(x)) <= m and not claim:
                seen["too many components"] += 1
            seen["feasible"] += claim
    assert all(seen.values()), seen


def test_feasibility_builds_no_graph(monkeypatch):
    hosts = [
        (cycle_graph(5), 2, True),
        (from_edge_list(5, [(0, i) for i in range(1, 5)]), 0, False),
        (from_edge_list(2, [(0, 1), (0, 1)]), 0, False),
        (k33_with_apex(), 0, True),
        (from_edge_list(3, [(1, 2)]), 0, True),
        (from_edge_list(3, []), 0, False),
    ]

    def no_build(n, mults):
        raise AssertionError("feasibility built a graph")

    monkeypatch.setattr("forestry.multigraph._build", no_build)
    for g, x, want in hosts:
        assert lift_feasible_multigraph(g, x) is want


def test_feasible_multigraph_odd_degree():
    with pytest.raises(InputError, match="^vertex 0 has odd degree 1, lifts need degree 2m$"):
        lift_feasible_multigraph(path_graph(3), 0)


# -- complete lifts ------------------------------------------------------


def test_lift_of_c4_is_a_triangle():
    plans = enumerate_lifts(cycle_graph(4), 0)
    assert len(plans) == 1
    pairs, result = plans[0]
    assert pairs == ((1, 3),)
    assert result == cycle_graph(3)


def test_lift_of_triangle_is_a_two_cycle():
    plans = enumerate_lifts(cycle_graph(3), 0)
    assert len(plans) == 1
    _, result = plans[0]
    assert result == from_edge_list(2, [(0, 1), (0, 1)])


def test_degree_two_lift_matches_delete_then_join():
    # lifting a degree-2 vertex is exactly: drop it, join its neighbors
    g = from_edge_list(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
    direct = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)])
    assert enumerate_lifts(g, 0) == [(((1, 3),), direct)]


def test_lift_in_the_middle_shifts_ids():
    # the pairs name the neighbours in the host's ids, before the shift
    assert enumerate_lifts(path_graph(3), 1) == [(((0, 2),), from_edge_list(2, [(0, 1)]))]


def test_lift_preserves_other_degrees():
    rng = random.Random(21)
    done = 0
    while done < 40:
        g = rand_multigraph(rng, max_n=7, max_edges=12)
        centers = [x for x in range(g.n) if g.degree(x) % 2 == 0 and g.degree(x) > 0]
        if not centers:
            continue
        x = centers[0]
        for _, result in enumerate_lifts(g, x)[:6]:
            assert result.n == g.n - 1
            for y in range(g.n):
                if y == x:
                    continue
                assert result.degree(y - 1 if y > x else y) == g.degree(y)
        done += 1


# -- enumeration ---------------------------------------------------------


def test_enumerate_three_matchings():
    star4 = from_edge_list(5, [(0, i) for i in range(1, 5)])
    plans = enumerate_lifts(star4, 0)
    assert [pairs for pairs, _ in plans] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_enumerate_collapses_parallel_copies():
    g = from_edge_list(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
    plans = enumerate_lifts(g, 0)
    assert len(plans) == 1
    pairs, result = plans[0]
    assert pairs == ((1, 2), (1, 2))
    assert result == from_edge_list(2, [(0, 1), (0, 1), (0, 1)])


def test_enumerate_is_deterministic():
    g = rand_multigraph(random.Random(4), max_n=6, max_edges=10)
    for x in range(g.n):
        if g.degree(x) % 2:
            continue
        assert enumerate_lifts(g, x) == enumerate_lifts(g, x)


def test_a_pairing_with_a_repeated_end_comes_once():
    g = from_edge_list(4, [(0, 1), (0, 1), (0, 2), (0, 3)])
    assert [pairs for pairs, _ in enumerate_lifts(g, 0)] == [((1, 2), (1, 3))]
    rng = random.Random(42)
    done = 0
    while done < 60:
        g = rand_multigraph(rng, max_n=6, max_edges=12)
        centers = [x for x in range(g.n) if g.degree(x) % 2 == 0 and g.degree(x) > 0]
        if not centers:
            continue
        pairings = [pairs for pairs, _ in enumerate_lifts(g, centers[0])]
        assert all(list(p) == sorted(p) for p in pairings)
        assert all(p < q for p, q in zip(pairings, pairings[1:]))
        done += 1


def endpoint_multiset(g, x):
    return [y for y in sorted(g.neighbors(x)) for _ in range(g.multiplicity(x, y))]


def test_enumerated_plans_are_every_distinct_pairing():
    rng = random.Random(43)
    done = 0
    while done < 120:
        g = rand_multigraph(rng, max_n=6, max_edges=12)
        centers = [x for x in range(g.n) if g.degree(x) in (2, 4, 6)]
        if not centers:
            continue
        x = centers[rng.randrange(len(centers))]
        every = brute_force_pairings(endpoint_multiset(g, x))
        assert [pairs for pairs, _ in enumerate_lifts(g, x)] == every
        done += 1


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def test_pairings_match_brute_force_for_every_composition():
    for ends in range(2, 11, 2):
        for pattern in compositions(ends):
            listed = [i for i, c in enumerate(pattern) for _ in range(c)]
            assert list(_pairings(pattern)) == brute_force_pairings(listed), pattern


def test_lifts_beyond_the_table_match_brute_force():
    # centres of degree 8 and 10 have patterns wider than TABLE_ENDS
    rng = random.Random(44)
    for degree in (8, 10) * 15:
        h = rand_multigraph(rng, max_n=6, max_edges=8)
        g = from_edge_list(h.n + 1, h.edge_list() + [(rng.randrange(h.n), h.n) for _ in range(degree)])
        x = h.n
        got = enumerate_lifts(g, x)
        assert [pairs for pairs, _ in got] == brute_force_pairings(endpoint_multiset(g, x))
        shift = list(range(h.n)) + [None]
        for pairs, lifted in got:
            want = rebuild(g, h.n, shift, pairs)
            assert lifted == want and list(lifted.bundles()) == list(want.bundles())
            assert [list(row) for row in lifted._adj] == [sorted(row) for row in lifted._adj]


def test_the_pairing_table_stays_bounded():
    # a criterion-5-style run: every centre joined to up to four vertices
    # by up to three parallel edges, with even degree up to 6; then wider ones
    for host in (from_edge_list(k, [(i, i + 1) for i in range(k - 1)]) for k in range(1, 5)):
        for vec in product(range(4), repeat=host.n):
            if sum(vec) in (2, 4, 6):
                edges = host.edge_list() + [(v, host.n) for v, t in enumerate(vec) for _ in range(t)]
                enumerate_lifts(from_edge_list(host.n + 1, edges), host.n)
    for pattern in compositions(8):
        list(_pairings(pattern))
    assert len(_PAIRINGS) <= 42
    assert all(0 < sum(pattern) <= TABLE_ENDS for pattern in _PAIRINGS)
    assert all(len(found) <= 15 for found in _PAIRINGS.values())
    for ends in (2, 4, 6):
        for pattern in compositions(ends):
            _pairings(pattern)
    assert len(_PAIRINGS) == 42


def test_lifted_graphs_share_no_rows():
    g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 5), (1, 2), (3, 4)])
    lifts = [lifted for _, lifted in enumerate_lifts(g, 0)]
    assert len(lifts) == 6
    rows = [id(row) for h in [g, *lifts] for row in h._adj]
    assert len(set(rows)) == len(rows)
    assert len({id(h._adj) for h in [g, *lifts]}) == len(lifts) + 1


def test_runaway_enumerations_are_refused(monkeypatch):
    def star(d):
        return from_edge_list(d + 1, [(0, i) for i in range(1, d + 1)])

    assert MAX_LIFTS == len(enumerate_lifts(star(12), 0)) == 10395

    def no_build(n, mults):
        raise AssertionError("a refused centre built a lift")

    refused = [star(14), star(16)]
    monkeypatch.setattr("forestry.multigraph._build", no_build)
    for g in refused:
        start = time.perf_counter()
        with pytest.raises(InputError, match=f"^vertex 0 has more than {MAX_LIFTS} complete lifts$"):
            enumerate_lifts(g, 0)
        assert time.perf_counter() - start < 1.0


def test_the_lifts_of_a_large_host_are_refused_before_one_is_built(monkeypatch):
    # every lift holds g - x: the budget is lifts times its vertices and bundles
    star = from_edge_list(13, [(0, i) for i in range(1, 13)])
    assert len(enumerate_lifts(star, 0)) * 12 <= MAX_LIFT_SIZE
    # criterion 5 and the bench: centres of degree at most 6 on at most 6
    # vertices, multiplicity at most 3, so at most 15 lifts of at most 5
    # vertices and 10 bundles; this host has them all
    host = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)] * 3
    dense5 = from_edge_list(6, host + [(0, 1), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
    assert 15 * (5 + 10) <= MAX_LIFT_SIZE
    assert len(enumerate_lifts(dense5, 0)) <= 15

    def centre_in(k, d):
        # a degree-d centre 0 on K_k over 1..k
        pairs = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
        return from_edge_list(k + 1, [(0, i) for i in range(1, d + 1)] + pairs)

    # 105 lifts of K49 fit, 49 + 1176 each; K50's 50 + 1225 do not, though
    # 50 vertices alone would
    assert 105 * (49 + 1176) <= MAX_LIFT_SIZE < 105 * (50 + 1225)
    assert len(enumerate_lifts(centre_in(49, 8), 0)) == 105
    refused = [
        from_edge_list(113, [(0, i) for i in range(1, 13)] + [(i, i + 1) for i in range(12, 112)]),
        centre_in(50, 8),
        centre_in(20, 12),
    ]

    def no_build(n, mults):
        raise AssertionError("a refused centre built a lift")

    monkeypatch.setattr("forestry.multigraph._build", no_build)
    message = f"^the complete lifts at vertex 0 would hold more than {MAX_LIFT_SIZE} vertices and bundles$"
    for g in refused:
        start = time.perf_counter()
        with pytest.raises(InputError, match=message):
            enumerate_lifts(g, 0)
        assert time.perf_counter() - start < 0.1


def test_wide_centres_with_few_lifts_end_at_once():
    # 2000 ends on two neighbours, past any recursion limit, and 40 ends
    # whose last neighbour must take every other end: a search that did
    # not back up early would try every matching of the first 20 ends
    start = time.perf_counter()
    ((pairs, lifted),) = enumerate_lifts(from_edge_list(3, [(0, 1), (0, 2)] * 1000), 0)
    assert pairs == ((1, 2),) * 1000 and list(lifted.bundles()) == [(0, 1, 1000)]
    wide = from_edge_list(22, [(0, i) for i in range(1, 21)] + [(0, 21)] * 20)
    ((pairs, lifted),) = enumerate_lifts(wide, 0)
    assert pairs == tuple((i, 21) for i in range(1, 21))
    assert time.perf_counter() - start < 1.0


def test_feasibility_matches_connected_lift_existence():
    # the equivalence is stated for connected hosts and a real lift
    rng = random.Random(41)
    done = 0
    while done < 80:
        g = rand_multigraph(rng, max_n=6, max_edges=10, connected=True)
        centers = [x for x in range(g.n) if g.degree(x) % 2 == 0 and g.degree(x) > 0]
        if not centers:
            continue
        x = centers[rng.randrange(len(centers))]
        some_connected = any(is_connected(r) for _, r in enumerate_lifts(g, x))
        assert lift_feasible_multigraph(g, x) == some_connected
        done += 1


# -- the constants -------------------------------------------------------


def test_degree_sequence_enumeration():
    assert [list(g.bundles()) for g in graphs_with_degrees((2, 2))] == [[(0, 1, 2)]]
    triangle_only = graphs_with_degrees((2, 2, 2))
    assert len(triangle_only) == 1
    assert canonical_key(triangle_only[0]) == canonical_key(cycle_graph(3))
    assert graphs_with_degrees((1, 1, 1, 1)) == []
    assert graphs_with_degrees((4,)) == []


def test_degree_sequence_enumeration_matches_the_reference():
    for m in range(1, 7):
        for seq in _partitions(2 * m):
            got = [list(g.bundles()) for g in graphs_with_degrees(seq)]
            want = [list(g.bundles()) for g in reference_graphs_with_degrees(seq)]
            assert got == want, seq


def test_forest_lift_constants():
    cache = MemoCache()
    expected = {
        1: Fraction(2),
        2: Fraction(3),
        3: Fraction(27, 7),
        4: Fraction(24, 5),
        5: Fraction(40, 7),
    }
    for m, value in expected.items():
        lc = lift_constant(m, "forests", cache=cache)
        assert lc.value == value
        assert sum(lc.degrees) == 2 * m
        assert lc.witness.m == m and is_connected(lc.witness)
        num = 1
        for d in lc.degrees:
            num *= d + 1
        assert Fraction(num, count_forests(lc.witness)) == value


def test_tree_lift_constants():
    cache = MemoCache()
    expected = {
        1: Fraction(1),
        2: Fraction(2),
        3: Fraction(8, 3),
        4: Fraction(18, 5),
        5: Fraction(9, 2),
    }
    for m, value in expected.items():
        lc = lift_constant(m, "trees", cache=cache)
        assert lc.value == value
        assert lc.witness.m == m and is_connected(lc.witness)
        num = 1
        for d in lc.degrees:
            num *= d
        assert Fraction(num, count_trees(lc.witness)) == value


def test_constant_witnesses_are_the_small_cycles():
    two_cycle = from_edge_list(2, [(0, 1), (0, 1)])
    assert canonical_key(lift_constant(2, "forests").witness) == canonical_key(two_cycle)
    assert canonical_key(lift_constant(3, "forests").witness) == canonical_key(
        cycle_graph(3)
    )
    assert canonical_key(lift_constant(2, "trees").witness) == canonical_key(two_cycle)
    assert canonical_key(lift_constant(3, "trees").witness) == canonical_key(
        cycle_graph(3)
    )


def test_constant_guards():
    with pytest.raises(InputError, match=r"^m = 0 is outside 1\.\.5$"):
        lift_constant(0)
    with pytest.raises(InputError, match=r"^m = 6 is outside 1\.\.5$"):
        lift_constant(6)
    assert lift_constant(5).value == Fraction(40, 7)
    with pytest.raises(ValueError):
        lift_constant(2, kind="bushes")


@pytest.mark.parametrize("m, message", [(2.0, "m = 2.0 is not an int"), (True, "m = True is not an int")])
def test_constant_refuses_an_order_that_is_not_an_int(m, message):
    # bool is an int subclass, refused as MultiGraph refuses a bool vertex
    with pytest.raises(InputError, match=f"^{message}$"):
        lift_constant(m)


# -- the governing inequalities ------------------------------------------


def test_forest_count_shrinks_by_at_most_the_constant():
    rng = random.Random(55)
    cache = MemoCache()
    constants = {m: lift_constant(m, "forests", cache=cache).value for m in (1, 2, 3)}
    done = 0
    while done < 60:
        g = rand_multigraph(rng, max_n=6, max_edges=9)
        centers = [x for x in range(g.n) if g.degree(x) in (2, 4, 6)]
        if not centers:
            continue
        x = centers[rng.randrange(len(centers))]
        m = g.degree(x) // 2
        fg = count_forests(g, cache)
        for _, result in enumerate_lifts(g, x):
            assert Fraction(fg) >= constants[m] * count_forests(result, cache)
        done += 1


def test_tree_count_shrinks_by_at_most_the_constant():
    rng = random.Random(56)
    cache = MemoCache()
    constants = {m: lift_constant(m, "trees", cache=cache).value for m in (1, 2, 3)}
    done = 0
    while done < 60:
        g = rand_multigraph(rng, max_n=6, max_edges=9, connected=True)
        centers = [x for x in range(g.n) if g.degree(x) in (2, 4, 6)]
        if not centers:
            continue
        x = centers[rng.randrange(len(centers))]
        m = g.degree(x) // 2
        tg = count_trees(g, cache)
        for _, result in enumerate_lifts(g, x):
            if not is_connected(result):
                continue
            assert Fraction(tg) >= constants[m] * count_trees(result, cache)
        done += 1


def test_type_hints_of_the_exported_records_resolve():
    exported = [getattr(forestry, name) for name in forestry.__all__]
    classes = [c for c in exported if isinstance(c, type) and hasattr(c, "_fields")]
    assert len(classes) == 8
    assert forestry.LiftConstant in classes and forestry.CatalogEntry in classes
    for cls in classes:
        hints = typing.get_type_hints(cls)
        assert set(hints) >= set(cls._fields)
        record = cls(*range(len(cls._fields)))
        with pytest.raises(AttributeError):
            setattr(record, cls._fields[0], None)
