"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Each test is self-contained and exact.  Time budgets are asserted where a
criterion carries one.  The heavy tests (5 and 7) take a few minutes
combined; the whole file is still well inside the half-hour target.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from forestry import (
    Gadget,
    MemoCache,
    automorphisms,
    canonical_key,
    catalog,
    catalog_entry,
    compare,
    contract_edge,
    count_forests,
    count_forests_bruteforce,
    count_forests_separating,
    delete_edge,
    enumerate_family,
    enumerate_lifts,
    from_edge_list,
    is_connected,
    lift_constant,
    lift_feasible_multigraph,
    min_ratio_check,
    p_bound,
    q_bound,
    ring_family,
    sweep_theorem,
    table2_check,
    upper_bound_fd,
)
from forestry.bounds import LESS

from oracles import cycle_graph, rand_multigraph, separating_forests_bruteforce


@pytest.fixture(scope="module")
def shared_cache():
    return MemoCache()


# Forest counts for every named catalog graph that has a published value.
GOLDEN_FORESTS = {
    "K3": 7,
    "K4": 38,
    "K4-e": 24,
    "K33": 328,
    "R1": 314,
    "R2": 86,
    "K5": 291,
    "K6-": 1083,
    "X6": 687,
    "X7": 2527,
    "Y5": 128,
    "Y5p": 198,
    "Y6": 431,
    "Y6p": 722,
    "H1": 14381,
    "H2": 52485,
    "H3": 2457,
    "H4": 4061,
    "H5": 14763,
    "H6": 4019,
    "H7": 57631,
    "H8": 58975,
    "Z1": 57631,
    "Z2": 58417,
    "Z3": 56101,
}


def test_criterion_1_golden_counts():
    start = time.perf_counter()
    cache = MemoCache()
    assert len(GOLDEN_FORESTS) == 25
    for name, expected in GOLDEN_FORESTS.items():
        got = count_forests(catalog_entry(name).graph, cache)
        assert got == expected, f"{name}: {got} != {expected}"
    assert time.perf_counter() - start < 10.0


def test_criterion_2_oracle_equivalence(shared_cache):
    start = time.perf_counter()
    # Exhaustive over every labeled simple graph on at most 5 vertices.
    for n in range(6):
        slots = list(combinations(range(n), 2))
        for bits in range(1 << len(slots)):
            edges = [slots[i] for i in range(len(slots)) if bits >> i & 1]
            g = from_edge_list(n, edges)
            assert count_forests(g, shared_cache) == count_forests_bruteforce(g)
    # 500 random multigraphs, at most 16 edges, multiplicity at most 3.
    rng = random.Random(20260816)
    for _ in range(500):
        g = rand_multigraph(rng, max_n=8, max_edges=16, max_mult=3)
        assert count_forests(g, shared_cache) == count_forests_bruteforce(g)
    assert time.perf_counter() - start < 60.0


def _rand_connected(rng, min_n=2):
    while True:
        g = rand_multigraph(rng, max_n=5, max_edges=8, max_mult=3, connected=True)
        if g.n >= min_n:
            return g


def _glue_at_zero(a, b):
    """Identify vertex 0 of b with vertex 0 of a, keeping all edges."""
    pairs = a.edge_list()
    for u, v in b.edge_list():
        uu = 0 if u == 0 else a.n + u - 1
        vv = 0 if v == 0 else a.n + v - 1
        pairs.append((uu, vv))
    return from_edge_list(a.n + b.n - 1, pairs)


def test_criterion_3_recursion_identities(shared_cache):
    # Deletion plus contraction at every edge of every catalog graph.
    for entry in catalog():
        g = entry.graph
        total = count_forests(g, shared_cache)
        for u, v, _ in g.bundles():
            parts = count_forests(delete_edge(g, u, v), shared_cache) + count_forests(
                contract_edge(g, u, v), shared_cache
            )
            assert total == parts, entry.name
    # Cut-vertex product on 200 random glued pairs.
    rng = random.Random(316)
    for _ in range(200):
        a = _rand_connected(rng)
        b = _rand_connected(rng)
        glued = _glue_at_zero(a, b)
        assert count_forests(glued, shared_cache) == count_forests(
            a, shared_cache
        ) * count_forests(b, shared_cache)
    # Separation bijection on 200 random instances.
    rng = random.Random(317)
    done = 0
    while done < 200:
        g = rand_multigraph(rng, max_n=6, max_edges=10, max_mult=3)
        if g.n == 0:
            continue
        vset = set(rng.sample(range(g.n), rng.randint(1, min(g.n, 3))))
        assert count_forests_separating(g, vset) == (
            separating_forests_bruteforce(g, vset)
        )
        done += 1


def test_criterion_4_lift_constants_and_inequality(shared_cache):
    start = time.perf_counter()
    ell = {m: lift_constant(m, "forests", cache=shared_cache) for m in (1, 2, 3)}
    assert ell[1].value == 2
    assert ell[2].value == 3
    assert ell[3].value == Fraction(27, 7)
    two_cycle = from_edge_list(2, [(0, 1), (0, 1)])
    assert canonical_key(ell[2].witness) == canonical_key(two_cycle)
    assert canonical_key(ell[3].witness) == canonical_key(cycle_graph(3))
    # The count drops by at most the constant on 200 random feasible lifts,
    # checked in exact integers.
    rng = random.Random(421)
    done = 0
    while done < 200:
        g = rand_multigraph(rng, max_n=7, max_edges=12, max_mult=3, connected=True)
        centers = [
            x
            for x in range(g.n)
            if g.degree(x) in (2, 4, 6) and lift_feasible_multigraph(g, x)
        ]
        if not centers:
            continue
        x = rng.choice(centers)
        results = [res for _, res in enumerate_lifts(g, x)]
        if not results:
            continue
        lifted = results[rng.randrange(len(results))]
        value = ell[g.degree(x) // 2].value
        fg = count_forests(g, shared_cache)
        fl = count_forests(lifted, shared_cache)
        assert fg * value.denominator >= value.numerator * fl
        done += 1
    assert time.perf_counter() - start < 120.0


def test_criterion_5_lift_feasibility_equivalence():
    """Feasibility predicate == an actual connected lift existing.

    Exhaustive over every isomorphism class of (graph, center) with at
    most 6 vertices, even center degree in {2, 4, 6}, multiplicity at
    most 3.  The pair is generated as a graph on k <= 5 vertices plus an
    attachment vector for the center, which reaches every class.
    """
    levels = {1: [from_edge_list(1, [])]}
    for k in range(2, 6):
        seen = {}
        for parent in levels[k - 1]:
            for vec in product(range(4), repeat=k - 1):
                edges = parent.edge_list()
                for v, t in enumerate(vec):
                    edges.extend([(v, k - 1)] * t)
                g = from_edge_list(k, edges)
                seen.setdefault(canonical_key(g), g)
        levels[k] = list(seen.values())
    assert {k: len(levels[k]) for k in levels} == {
        1: 1,
        2: 4,
        3: 20,
        4: 276,
        5: 10688,
    }
    vectors = {
        k: [v for v in product(range(4), repeat=k) if sum(v) in (2, 4, 6)]
        for k in range(1, 6)
    }
    checked = 0
    for k in range(1, 6):
        for h in levels[k]:
            auts = automorphisms(h)
            reps = set()
            for vec in vectors[k]:
                if len(auts) > 1:
                    rep = min(tuple(vec[p[i]] for i in range(k)) for p in auts)
                else:
                    rep = vec
                if rep in reps:
                    continue
                reps.add(rep)
                edges = h.edge_list()
                for v, t in enumerate(vec):
                    edges.extend([(v, k)] * t)
                g = from_edge_list(k + 1, edges)
                if not is_connected(g):
                    continue
                claim = lift_feasible_multigraph(g, k)
                found = any(is_connected(res) for _, res in enumerate_lifts(g, k))
                assert claim == found, (canonical_key(g).hex(), k)
                checked += 1
    assert checked == 1960549


def test_criterion_6_gadget_ratio_suites():
    # Double star against two disjoint edges: seven distinct cells, min 7.
    double_star = Gadget(
        from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), (2, 3, 4, 5)
    )
    two_edges = Gadget(from_edge_list(4, [(0, 1), (2, 3)]), (0, 1, 2, 3))
    report = min_ratio_check(double_star, two_edges)
    assert len(report.rows) == 15
    assert not report.zero_rows
    assert report.min_ratio == 7
    cells = Counter((row.numerator, row.denominator) for row in report.rows)
    assert cells == Counter(
        {
            (32, 4): 1,
            (24, 2): 2,
            (28, 4): 4,
            (18, 1): 1,
            (24, 3): 2,
            (20, 2): 4,
            (14, 1): 1,
        }
    )
    assert len(cells) == 7
    # Tailed diamond against a triangle: cells 81/7, 47/3, 23/1.
    triangle = Gadget(from_edge_list(3, [(0, 1), (0, 2), (1, 2)]), (0, 1, 2))
    tailed = Gadget(
        from_edge_list(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)]),
        (0, 1, 4),
    )
    rep_a = min_ratio_check(tailed, triangle)
    assert not rep_a.zero_rows
    assert Counter((r.numerator, r.denominator) for r in rep_a.rows) == Counter(
        {(81, 7): 1, (47, 3): 3, (23, 1): 1}
    )
    assert rep_a.min_ratio == Fraction(81, 7)
    # Diamond against a triangle: cells 24/7, 14/3, 10/3, 4/1.
    diamond = Gadget(
        from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), (0, 1, 2)
    )
    rep_b = min_ratio_check(diamond, triangle)
    assert not rep_b.zero_rows
    assert Counter((r.numerator, r.denominator) for r in rep_b.rows) == Counter(
        {(24, 7): 1, (14, 3): 1, (10, 3): 2, (4, 1): 1}
    )
    assert rep_b.min_ratio == Fraction(10, 3)
    # Star against the three matchings: all 15 x 4 cells plus the 6/5 rule.
    table = table2_check()
    assert len(table.rows) == 15
    assert all(row.computed == row.expected for row in table.rows)
    assert all(row.inequality_ok for row in table.rows)
    assert table.ok


def test_criterion_7_theorem_sweeps(shared_cache):
    start = time.perf_counter()
    k4 = canonical_key(catalog_entry("K4").graph)
    k4e = canonical_key(catalog_entry("K4-e").graph)
    summary_a = sweep_theorem("T1", 12, cache=shared_cache)
    assert summary_a.checked == 6625
    assert summary_a.skipped == 0
    assert summary_a.violations == ((4, k4),)
    assert (4, k4e) in summary_a.equalities
    k5 = canonical_key(catalog_entry("K5").graph)
    k6m = canonical_key(catalog_entry("K6-").graph)
    summary_b = sweep_theorem("T2", 9, cache=shared_cache)
    assert summary_b.checked == 6721
    assert summary_b.skipped == 0
    assert set(summary_b.violations) == {(5, k5), (6, k6m)}
    assert time.perf_counter() - start < 1800.0


def test_criterion_8_ring_families():
    k4 = catalog_entry("K4").graph
    series = ring_family(k4, 0, 1, [1, 2, 3, 10000])
    assert series.a_value == 24
    assert series.b_value == 10
    for row in series.rows[:3]:
        assert row.direct is not None
        assert row.forests == row.direct
    assert series.rows[0].forests == 38
    assert series.rows[3].direct is None
    assert abs(series.rows[3].root - 48 ** 0.25) < 1e-6
    k5 = catalog_entry("K5").graph
    series5 = ring_family(k5, 0, 1, [1, 2, 3, 10000])
    assert series5.a_value == 198
    assert series5.b_value == 105
    for row in series5.rows[:3]:
        assert row.direct is not None
        assert row.forests == row.direct
    assert series5.rows[3].direct is None
    assert abs(series5.rows[3].root - 396 ** 0.2) < 1e-6


def test_criterion_9_family_minima_and_ceilings(shared_cache):
    for degree_set, n_max, bound_fn in (
        ((2, 3), 12, p_bound),
        ((2, 3, 4), 9, q_bound),
    ):
        min_forest_root = None
        min_bound_root = None
        for g in enumerate_family(n_max, degree_set):
            forests = count_forests(g, shared_cache)
            expr = bound_fn(g)
            assert compare(forests, expr) != LESS
            forest_root = forests ** (1.0 / n_max)
            bound_root = expr.value() ** (1.0 / n_max)
            if min_forest_root is None or forest_root < min_forest_root:
                min_forest_root = forest_root
            if min_bound_root is None or bound_root < min_bound_root:
                min_bound_root = bound_root
        # Exact per-graph comparisons above make this a float formality.
        assert min_forest_root >= min_bound_root - 1e-9
    ceiling3 = upper_bound_fd(3)
    assert (ceiling3.radicand, ceiling3.index, ceiling3.outer, ceiling3.inner) == (
        48,
        4,
        2,
        3,
    )
    assert ceiling3.factors == ((2, 4), (3, 1))
    ceiling4 = upper_bound_fd(4)
    assert (ceiling4.radicand, ceiling4.index, ceiling4.outer, ceiling4.inner) == (
        396,
        5,
        1,
        396,
    )
    assert ceiling4.radicand == 2 ** 2 * 99
    assert ceiling4.factors == ((2, 2), (3, 2), (11, 1))
