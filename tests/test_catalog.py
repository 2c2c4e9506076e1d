import pytest

from forestry import (
    CatalogEntry,
    canonical_key,
    catalog,
    catalog_entry,
    compare,
    count_forests,
    count_trees,
    p_bound,
)
from forestry.bounds import EQUAL, GREATER, LESS, BoundExpr
from forestry.catalog import _check
from forestry.errors import CatalogMismatch
from forestry.multigraph import degree_counts

GOLDEN = {
    "K3": 7,
    "K4": 38,
    "K4-e": 24,
    "K5": 291,
    "K5-e": 198,
    "K6-": 1083,
    "K33": 328,
    "R1": 314,
    "R2": 86,
    "X6": 687,
    "X7": 2527,
    "Y5": 128,
    "Y5p": 198,
    "Y6": 431,
    "Y6p": 722,
    "D4": 24,
    "D5": 81,
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


def test_every_expected_name_is_present_once():
    names = [e.name for e in catalog()]
    assert sorted(names) == sorted(GOLDEN)
    assert len(set(names)) == len(names)


def test_golden_forest_counts():
    for entry in catalog():
        assert entry.forests == GOLDEN[entry.name]
        assert count_forests(entry.graph) == entry.forests


def test_bound_verdicts():
    for entry in catalog():
        verdict = compare(entry.forests, entry.bound)
        if entry.name in ("K5", "K6-"):
            assert verdict == LESS
            assert not entry.holds
        else:
            assert verdict in (EQUAL, GREATER)
            assert entry.holds


def test_equality_cases():
    # among catalog graphs the degree-{2,3,4} bound is tight exactly twice,
    # and those two entries are the same graph under different names
    tight = [e.name for e in catalog() if compare(e.forests, e.bound) == EQUAL]
    assert sorted(tight) == ["K5-e", "Y5p"]
    a = catalog_entry("K5-e").graph
    b = catalog_entry("Y5p").graph
    assert canonical_key(a) == canonical_key(b)


def test_p_bound_verdicts_on_the_cubic_entries():
    # the degree-{2,3} bound applies to a handful of entries
    expect = {
        "K3": GREATER,
        "K4": LESS,
        "K4-e": EQUAL,
        "D4": EQUAL,
        "K33": GREATER,
        "R1": GREATER,
        "R2": GREATER,
    }
    for name, verdict in expect.items():
        entry = catalog_entry(name)
        assert compare(entry.forests, p_bound(entry.graph)) == verdict


def test_degree_counts_match_the_bound_exponents():
    for entry in catalog():
        n2, n3, n4 = entry.degree_counts
        counts = degree_counts(entry.graph)
        assert counts == {
            d: c for d, c in ((2, n2), (3, n3), (4, n4)) if c
        }
        assert entry.bound.a == 10 * n2 + 6 * n3 + 2 * n4 - 18
        assert entry.bound.c == n3 + 2 * n4 + 2
        # the degree profile is recoverable from the printed exponents
        assert n2 + n3 + n4 == entry.graph.n


def test_coinciding_counts_come_from_coinciding_graphs():
    # three pairs of entries share a forest count, and each pair turns out
    # to be one graph reached by two different constructions
    for a, b in (("H7", "Z1"), ("K5-e", "Y5p"), ("K4-e", "D4")):
        ea, eb = catalog_entry(a), catalog_entry(b)
        assert ea.forests == eb.forests
        assert canonical_key(ea.graph) == canonical_key(eb.graph)
    # the remaining 9-vertex 4-regular entries are genuinely distinct
    keys = {
        canonical_key(catalog_entry(n).graph) for n in ("H7", "H8", "Z1", "Z2", "Z3")
    }
    assert len(keys) == 4


def test_the_three_prism_wirings_are_distinct():
    keys = {canonical_key(catalog_entry(n).graph) for n in ("Z1", "Z2", "Z3")}
    assert len(keys) == 3


def test_h7_neighbourhood_structure():
    # the triangle 2,4,5 of H7 sees the remaining six vertices as a
    # 3-by-3 biclique; its twin H8 differs by a double rewiring
    h7 = catalog_entry("H7").graph
    for u, v in ((2, 4), (2, 5), (4, 5)):
        assert h7.multiplicity(u, v) == 1
    rest = [0, 1, 3, 6, 7, 8]
    cross = sum(
        h7.multiplicity(u, v) for i, u in enumerate(rest) for v in rest[i + 1 :]
    )
    assert cross == 9


def test_tree_counts_are_positive_and_below_forest_counts():
    for entry in catalog():
        t = count_trees(entry.graph)
        assert 0 < t < entry.forests


def test_tampered_entries_are_rejected():
    good = catalog_entry("K4")
    bad_count = CatalogEntry(
        good.name, good.summary, good.graph, 39, good.degree_counts, good.bound, True
    )
    with pytest.raises(CatalogMismatch):
        _check(bad_count)
    bad_degrees = CatalogEntry(
        good.name, good.summary, good.graph, 38, (4, 0, 0), good.bound, True
    )
    with pytest.raises(CatalogMismatch):
        _check(bad_degrees)
    bad_bound = CatalogEntry(
        good.name, good.summary, good.graph, 38, good.degree_counts,
        BoundExpr(6, 0, 8, 10), True,
    )
    with pytest.raises(CatalogMismatch):
        _check(bad_bound)
    bad_verdict = CatalogEntry(
        good.name, good.summary, good.graph, 38, good.degree_counts,
        good.bound, False,
    )
    with pytest.raises(CatalogMismatch):
        _check(bad_verdict)


def test_unknown_name_raises():
    with pytest.raises(KeyError):
        catalog_entry("K7")
