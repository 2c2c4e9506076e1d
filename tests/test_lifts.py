import dataclasses
import random
import typing
from fractions import Fraction

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
from forestry.errors import CapExceeded, InvalidPlan, NotSimple, OddDegree
from forestry.lifts import (
    LiftPlan,
    complete_lift,
    enumerate_lifts,
    graphs_with_degrees,
    lift_constant,
    lift_feasible_multigraph,
    lift_feasible_simple,
)

from oracles import complete_graph, cycle_graph, path_graph, rand_multigraph


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


def test_feasible_multigraph_odd_degree():
    with pytest.raises(OddDegree):
        lift_feasible_multigraph(path_graph(3), 0)


def test_feasible_simple_basics():
    star4 = from_edge_list(5, [(0, i) for i in range(1, 5)])
    assert lift_feasible_simple(star4, 0)
    # neighborhood induces K4, complement has nothing to match with
    assert not lift_feasible_simple(complete_graph(5), 0)


def test_feasible_simple_k33_neighborhood():
    g = k33_with_apex()
    assert g.degree(0) == 6
    assert not lift_feasible_simple(g, 0)


def test_feasible_simple_guards():
    with pytest.raises(NotSimple):
        lift_feasible_simple(from_edge_list(2, [(0, 1), (0, 1)]), 0)
    with pytest.raises(OddDegree):
        lift_feasible_simple(path_graph(2), 0)
    big_star = from_edge_list(11, [(0, i) for i in range(1, 11)])
    with pytest.raises(CapExceeded):
        lift_feasible_simple(big_star, 0)


# -- complete_lift -------------------------------------------------------


def test_lift_of_c4_is_a_triangle():
    plans = enumerate_lifts(cycle_graph(4), 0)
    assert len(plans) == 1
    plan, result = plans[0]
    assert plan == LiftPlan(0, ((1, 3),))
    assert result == cycle_graph(3)


def test_lift_of_triangle_is_a_two_cycle():
    plans = enumerate_lifts(cycle_graph(3), 0)
    assert len(plans) == 1
    _, result = plans[0]
    assert result == from_edge_list(2, [(0, 1), (0, 1)])


def test_degree_two_lift_matches_delete_then_join():
    # lifting a degree-2 vertex is exactly: drop it, join its neighbors
    g = from_edge_list(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4), (4, 1), (2, 4)])
    plan = LiftPlan(0, ((1, 3),))
    lifted = complete_lift(g, 0, plan)
    direct = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (0, 2)])
    assert lifted == direct


def test_lift_in_the_middle_shifts_ids():
    plan = LiftPlan(1, ((0, 2),))
    assert complete_lift(path_graph(3), 1, plan) == from_edge_list(2, [(0, 1)])


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


def test_invalid_plans():
    g = cycle_graph(4)
    with pytest.raises(InvalidPlan):
        complete_lift(g, 0, LiftPlan(1, ((1, 3),)))
    with pytest.raises(InvalidPlan):
        complete_lift(g, 0, LiftPlan(0, ((1, 1),)))
    with pytest.raises(InvalidPlan):
        complete_lift(g, 0, LiftPlan(0, ((1, 2),)))
    with pytest.raises(InvalidPlan):
        complete_lift(g, 0, LiftPlan(0, ((1, 3), (1, 3))))
    with pytest.raises(InvalidPlan):
        complete_lift(cycle_graph(3), 0, LiftPlan(0, ((1, 2),)), simple=True)


# -- enumeration ---------------------------------------------------------


def test_enumerate_three_matchings():
    star4 = from_edge_list(5, [(0, i) for i in range(1, 5)])
    plans = enumerate_lifts(star4, 0)
    assert [p.pairs for p, _ in plans] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_enumerate_collapses_parallel_copies():
    g = from_edge_list(3, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2)])
    plans = enumerate_lifts(g, 0)
    assert len(plans) == 1
    plan, result = plans[0]
    assert plan.pairs == ((1, 2), (1, 2))
    assert result == from_edge_list(2, [(0, 1), (0, 1), (0, 1)])


def test_enumerate_is_deterministic():
    g = rand_multigraph(random.Random(4), max_n=6, max_edges=10)
    for x in range(g.n):
        if g.degree(x) % 2:
            continue
        assert enumerate_lifts(g, x) == enumerate_lifts(g, x)


def test_enumerate_simple_mode_matches_feasibility():
    rng = random.Random(40)
    done = 0
    while done < 60:
        g = rand_multigraph(rng, max_n=7, max_edges=10, max_mult=1)
        centers = [
            x for x in range(g.n) if g.degree(x) % 2 == 0 and 0 < g.degree(x) <= 8
        ]
        if not centers:
            continue
        x = centers[rng.randrange(len(centers))]
        plans = enumerate_lifts(g, x, simple=True)
        assert bool(plans) == lift_feasible_simple(g, x)
        for _, result in plans:
            assert all(t == 1 for _, _, t in result.bundles())
        done += 1


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
    with pytest.raises(CapExceeded):
        lift_constant(0)
    with pytest.raises(CapExceeded):
        lift_constant(6)
    assert lift_constant(5, cap=7).value == Fraction(40, 7)
    with pytest.raises(ValueError):
        lift_constant(2, kind="bushes")


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


def test_type_hints_of_the_exported_dataclasses_resolve():
    exported = [getattr(forestry, name) for name in forestry.__all__]
    classes = [c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert forestry.LiftConstant in classes and forestry.CatalogEntry in classes
    for cls in classes:
        hints = typing.get_type_hints(cls)
        assert set(hints) >= {f.name for f in dataclasses.fields(cls)}
