import math
import random
import re
from fractions import Fraction

import pytest

from forestry import (
    Gadget,
    MultiGraph,
    catalog_entry,
    count_forests,
    delete_edge,
    from_edge_list,
    min_ratio_check,
    p_bound,
    q_bound,
    ring_family,
    table2_check,
    upper_bound_fd,
)
from forestry.bounds import EQUAL, GREATER, LESS, BoundExpr, compare
from forestry.rings import _ring_graph, set_partitions
from forestry.errors import InputError

from oracles import complete_graph, cycle_graph, path_graph, rand_multigraph


def complete_bipartite(a, b):
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def double_star():
    return from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def diamond():
    # u, v, x, y with the xy chord
    return from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def diamond_with_tail():
    # diamond plus w adjacent to both chord ends
    return from_edge_list(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)])


def k4_plus_w3():
    # K4 plus a new vertex adjacent to three of its vertices
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    return from_edge_list(5, pairs + [(4, 0), (4, 1), (4, 2)])


# -- the two bound families ----------------------------------------------


def test_p_bound_of_k4_minus_e_is_an_equality():
    g = delete_edge(complete_graph(4), 0, 1)
    b = p_bound(g)
    assert (b.a, b.b, b.c, b.s) == (12, 4, 0, 4)
    assert count_forests(g) == 24
    assert compare(24, b) == EQUAL


def test_p_bound_of_k4_fails():
    b = p_bound(complete_graph(4))
    assert (b.a, b.b, b.c, b.s) == (12, 6, 0, 4)
    assert compare(38, b) == LESS
    assert 38**4 == 2085136
    assert 2**12 * 3**6 == 2985984


def test_p_bound_of_k33_holds():
    b = p_bound(complete_bipartite(3, 3))
    assert compare(328, b) == GREATER
    assert round(b.value()) == 288


def test_q_bound_of_k5_fails():
    b = q_bound(complete_graph(5))
    assert (b.a, b.b, b.c, b.s) == (-8, 0, 12, 10)
    assert compare(291, b) == LESS
    assert math.isclose(b.value(), 2 ** (-0.8) * 198**1.2)


def test_q_bound_of_y5_prime_is_an_equality():
    g = k4_plus_w3()
    b = q_bound(g)
    assert count_forests(g) == 198
    assert compare(198, b) == EQUAL
    assert math.isclose(b.value(), 198.0)


def test_degree_family_guards():
    with pytest.raises(InputError, match=r"^degrees \[4\] are outside \{2, 3\}$"):
        p_bound(complete_graph(5))
    with pytest.raises(InputError, match=r"^degrees \[1\] are outside \{2, 3\}$"):
        p_bound(path_graph(3))
    with pytest.raises(InputError, match=r"^degrees \[5\] are outside \{2, 3, 4\}$"):
        q_bound(complete_graph(6))
    with pytest.raises(InputError, match=r"^degrees \[1\] are outside \{2, 3, 4\}$"):
        q_bound(from_edge_list(2, [(0, 1)]))


def test_the_bounds_refuse_disconnected_graphs():
    two_triangles = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for g in (two_triangles, MultiGraph(0)):
        for bound in (p_bound, q_bound):
            with pytest.raises(InputError, match="^the bounds are stated for connected graphs$"):
                bound(g)
    # degrees are checked first: an isolated vertex or a pendant edge is out
    # of the family before the missing connection is looked at
    triangle = [(0, 1), (1, 2), (0, 2)]
    pendant = from_edge_list(5, triangle + [(3, 4)])
    for g, degree in ((from_edge_list(4, triangle), 0), (pendant, 1)):
        for bound in (p_bound, q_bound):
            with pytest.raises(InputError, match=rf"^degrees \[{degree}\] are outside \{{2, 3"):
                bound(g)


def test_compare_is_exact_near_the_boundary():
    b = BoundExpr(3, 0, 0, 1)
    assert compare(7, b) == LESS
    assert compare(8, b) == EQUAL
    assert compare(9, b) == GREATER
    # negative exponents move to the count's side instead of dividing
    assert compare(1, BoundExpr(-3, 0, 0, 1)) == GREATER
    assert compare(1, BoundExpr(0, 0, 0, 1)) == EQUAL


@pytest.mark.parametrize("count", [-328, 328.0, True, "328", None, Fraction(328)])
def test_compare_refuses_a_count_that_is_not_a_nonnegative_int(count):
    # -328 ** 4 is 328 ** 4, so a negative count would compare as a positive one
    k33 = p_bound(complete_bipartite(3, 3))
    assert compare(328, k33) == GREATER
    refused = f"^count {re.escape(repr(count))} is not a nonnegative int$"
    with pytest.raises(InputError, match=refused):
        compare(count, k33)


def test_bound_text():
    assert str(BoundExpr(12, 4, 0, 4)) == "2^12 3^4 / 4"
    assert str(BoundExpr(-8, 0, 12, 10)) == "2^-8 198^12 / 10"
    assert str(BoundExpr(3, 0, 0, 1)) == "2^3"
    assert str(BoundExpr(0, 0, 0, 1)) == "1"


# -- asymptotic constants --------------------------------------------------


def test_upper_bound_fd_cubic():
    rb = upper_bound_fd(3)
    assert rb.radicand == 48 and rb.index == 4
    assert (rb.outer, rb.inner) == (2, 3)
    assert rb.factors == ((2, 4), (3, 1))
    assert math.isclose(rb.value(), 2 * 3**0.25)


def test_upper_bound_fd_quartic():
    rb = upper_bound_fd(4)
    assert rb.radicand == 396 and rb.index == 5
    assert (rb.outer, rb.inner) == (1, 396)
    assert rb.factors == ((2, 2), (3, 2), (11, 1))
    assert math.isclose(rb.value(), 2 ** 0.4 * 99 ** 0.2)


@pytest.mark.parametrize(
    "bound, d, orders",
    [
        (p_bound, 3, [(4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
                      (6, [(i, 3 + j) for i in range(3) for j in range(3)])]),
        (q_bound, 4, [(5, [(i, j) for i in range(5) for j in range(i + 1, 5)]),
                      (6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j != i + 3])]),
    ],
)
def test_the_lower_bound_grows_per_vertex_as_the_ring_ceiling(bound, d, orders):
    # K4 and K33, K5 and the octahedron: the bound's growth over the added
    # vertices, raised to integer powers, is the d-regular ceiling exactly
    (n1, e1), (n2, e2) = orders
    b1, b2 = bound(from_edge_list(n1, e1)), bound(from_edge_list(n2, e2))
    assert b1.s == b2.s
    growth = 2 ** (b2.a - b1.a) * 3 ** (b2.b - b1.b) * 198 ** (b2.c - b1.c)
    rb = upper_bound_fd(d)
    assert (rb.radicand, rb.index) == ({3: 2**4 * 3, 4: 2 * 198}[d], d + 1)
    assert growth**rb.index == rb.radicand ** (b1.s * (n2 - n1))


def test_upper_bound_fd_range():
    rb = upper_bound_fd(5)
    k6_less_e = delete_edge(complete_graph(6), 0, 1)
    assert rb.radicand == 2 * count_forests(k6_less_e)
    with pytest.raises(InputError, match=r"^d = 2 is outside 3\.\.6$"):
        upper_bound_fd(2)
    with pytest.raises(InputError, match=r"^d = 7 is outside 3\.\.6$"):
        upper_bound_fd(7)


# -- the ring family -------------------------------------------------------


def test_ring_family_on_k4():
    series = ring_family(complete_graph(4), 0, 1, [1, 2, 3])
    assert series.a_value == 24 and series.b_value == 10
    assert series.order == 4
    by_m = {row.m: row for row in series.rows}
    assert by_m[1].forests == 38
    for row in series.rows:
        assert row.direct == row.forests
    assert math.isclose(series.limit, 48**0.25)
    assert math.isclose(series.limit, upper_bound_fd(3).value())


def test_ring_family_on_k5():
    series = ring_family(complete_graph(5), 0, 1, [1, 2, 3])
    assert series.a_value == 198 and series.b_value == 105
    assert series.rows[0].forests == 291
    for row in series.rows:
        assert row.direct == row.forests
    assert math.isclose(series.limit, 396**0.2)
    assert math.isclose(series.limit, upper_bound_fd(4).value())


def test_ring_roots_increase_to_the_limit():
    series = ring_family(complete_graph(4), 0, 1, [1, 2, 3, 4, 5, 6, 10000])
    counts = {row.m: row.forests for row in series.rows}
    for m in range(1, 6):
        # root(m) < root(m+1) exactly, clearing the floats out of the way
        assert counts[m] ** (m + 1) < counts[m + 1] ** m
    roots = [row.root for row in series.rows]
    assert roots == sorted(roots)
    # the correction term underflows at the huge m, so allow equality there
    assert all(r <= series.limit for r in roots)
    assert all(row.root < series.limit for row in series.rows if row.m <= 6)
    big = next(row for row in series.rows if row.m == 10000)
    assert abs(big.root - series.limit) < 1e-6
    assert big.direct is None


def test_ring_family_rejects_bad_seeds():
    bridge = "^edge 0-1 is a bridge, the broken ring would fall apart$"
    with pytest.raises(InputError, match=bridge):
        ring_family(path_graph(3), 0, 1, [1])
    # one copy of a doubled edge is never a bridge, so the ring may break there
    doubled = from_edge_list(3, [(0, 1), (0, 1), (1, 2)])
    assert [row.direct for row in ring_family(doubled, 0, 1, [1]).rows] == [count_forests(doubled)]
    with pytest.raises(InputError, match="^edge 1-2 is a bridge"):
        ring_family(doubled, 1, 2, [1])
    two_triangles = from_edge_list(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(InputError, match="^the ring construction needs a connected seed$"):
        ring_family(two_triangles, 0, 1, [1])
    with pytest.raises(InputError, match="^no edge between 0 and 2$"):
        ring_family(cycle_graph(4), 0, 2, [1])
    with pytest.raises(ValueError):
        ring_family(complete_graph(4), 0, 1, [0])


@pytest.mark.parametrize(
    "m_list, message",
    [
        ([1, "2"], "ring size m = '2' is not a positive int"),
        ([1.5], "ring size m = 1.5 is not a positive int"),
        ([True], "ring size m = True is not a positive int"),
        ([3, 0], "ring size m = 0 is not a positive int"),
    ],
)
def test_ring_family_refuses_a_size_that_is_not_a_positive_int(m_list, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ring_family(complete_graph(4), 0, 1, m_list)


def test_ring_graph_matches_an_edge_list_rebuild():
    for g in (complete_graph(4), complete_graph(5), catalog_entry("R1").graph):
        n = g.n
        for u, v in ((0, 1), (1, 0)):
            assert _ring_graph(g, u, v, 1) == g
            cut = delete_edge(g, u, v).edge_list()
            for m in range(1, 5):
                pairs = [(i * n + x, i * n + y) for i in range(m) for x, y in cut]
                pairs += [(i * n + v, (i + 1) % m * n + u) for i in range(m)]
                assert _ring_graph(g, u, v, m) == from_edge_list(m * n, pairs)


def test_ring_family_handles_doubled_edges():
    two_cycle = from_edge_list(2, [(0, 1), (0, 1)])
    series = ring_family(two_cycle, 0, 1, [1, 2, 3])
    assert series.a_value == 2 and series.b_value == 1
    assert series.rows[0].forests == 3
    for row in series.rows:
        assert row.direct == row.forests


# -- gadget ratio reports --------------------------------------------------


def test_set_partitions_counts():
    assert len(set_partitions(range(3))) == 5
    assert len(set_partitions(range(4))) == 15
    assert set_partitions([]) == [()]


def test_min_ratio_double_star_versus_two_edges():
    a = Gadget(double_star(), (2, 3, 4, 5))
    b = Gadget(from_edge_list(4, [(0, 1), (2, 3)]), (0, 1, 2, 3))
    report = min_ratio_check(a, b)
    assert len(report.rows) == 15
    assert not report.zero_rows
    assert report.min_ratio == 7
    pairs = sorted((r.numerator, r.denominator) for r in report.rows)
    expected = sorted(
        [(32, 4)]
        + [(24, 2)] * 2
        + [(28, 4)] * 4
        + [(18, 1)]
        + [(24, 3)] * 2
        + [(20, 2)] * 4
        + [(14, 1)]
    )
    assert pairs == expected


def test_min_ratio_diamond_with_tail_versus_triangle():
    a = Gadget(diamond_with_tail(), (0, 1, 4))
    b = Gadget(cycle_graph(3), (0, 1, 2))
    report = min_ratio_check(a, b)
    assert report.min_ratio == Fraction(81, 7)
    values = sorted((r.numerator, r.denominator) for r in report.rows)
    assert values == sorted([(81, 7), (47, 3), (47, 3), (47, 3), (23, 1)])


def test_min_ratio_diamond_versus_triangle():
    a = Gadget(diamond(), (0, 1, 2))
    b = Gadget(cycle_graph(3), (0, 1, 2))
    report = min_ratio_check(a, b)
    assert report.min_ratio == Fraction(10, 3)
    values = sorted((r.numerator, r.denominator) for r in report.rows)
    assert values == sorted([(24, 7), (14, 3), (10, 3), (10, 3), (4, 1)])


def test_min_ratio_guards():
    a = Gadget(cycle_graph(3), (0, 1))
    with pytest.raises(InputError, match="^2 attachments versus 3$"):
        min_ratio_check(a, Gadget(cycle_graph(3), (0, 1, 2)))
    with pytest.raises(InputError, match=r"^attachment list \(0, 0\) repeats a vertex$"):
        min_ratio_check(Gadget(cycle_graph(3), (0, 0)), a)
    with pytest.raises(InputError, match="^attachment 7 is not a vertex$"):
        min_ratio_check(Gadget(cycle_graph(3), (0, 7)), a)


def test_min_ratio_on_a_parallel_pair():
    # merging the two ends collapses the doubled edge into loops on both sides
    a = Gadget(from_edge_list(2, [(0, 1)]), (0, 1))
    b = Gadget(from_edge_list(2, [(0, 1), (0, 1)]), (0, 1))
    report = min_ratio_check(b, a)
    assert not report.zero_rows
    pairs = sorted((r.numerator, r.denominator) for r in report.rows)
    assert pairs == [(1, 1), (3, 2)]
    assert report.min_ratio == 1
    assert report.argmin == ((0, 1),)


def _glue(host_pairs, host_n, gadget):
    """Identify gadget attachment i with host vertex i."""
    g = gadget.graph
    outside = [w for w in range(g.n) if w not in gadget.attachments]
    where = {}
    for i, v in enumerate(gadget.attachments):
        where[v] = i
    for j, w in enumerate(outside):
        where[w] = host_n + j
    pairs = list(host_pairs)
    for u, v in g.edge_list():
        pairs.append((where[u], where[v]))
    return from_edge_list(host_n + len(outside), pairs)


def test_swapping_gadgets_shrinks_by_at_most_the_min_ratio():
    a = Gadget(double_star(), (2, 3, 4, 5))
    b = Gadget(from_edge_list(4, [(0, 1), (2, 3)]), (0, 1, 2, 3))
    report = min_ratio_check(a, b)
    rng = random.Random(17)
    for _ in range(15):
        host = rand_multigraph(rng, max_n=4, max_edges=6)
        host_pairs = host.edge_list()
        big = _glue(host_pairs, 4, a)
        small = _glue(host_pairs, 4, b)
        assert Fraction(count_forests(big), count_forests(small)) >= report.min_ratio


def test_swapping_diamond_gadgets_respects_the_ratio():
    for g_a, g_b in [
        (Gadget(diamond_with_tail(), (0, 1, 4)), Gadget(cycle_graph(3), (0, 1, 2))),
        (Gadget(diamond(), (0, 1, 2)), Gadget(cycle_graph(3), (0, 1, 2))),
    ]:
        report = min_ratio_check(g_a, g_b)
        rng = random.Random(23)
        for _ in range(10):
            host = rand_multigraph(rng, max_n=3, max_edges=5)
            big = _glue(host.edge_list(), 3, g_a)
            small = _glue(host.edge_list(), 3, g_b)
            assert (
                Fraction(count_forests(big), count_forests(small)) >= report.min_ratio
            )


# -- the extension table ---------------------------------------------------


def test_table2_check_passes():
    report = table2_check()
    assert report.ok
    assert len(report.rows) == 15
    assert report.rows[0].computed == (16, 4, 4, 4)
    assert report.rows[7].computed == (9, 1, 3, 3)
    assert report.rows[14].computed == (5, 1, 1, 1)
    for row in report.rows:
        assert row.computed == row.expected
        assert 5 * row.computed[0] >= 6 * sum(row.computed[1:])
