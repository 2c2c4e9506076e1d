import json

import pytest

import forestry.named as named
from forestry import (
    CatalogEntry,
    canonical_key,
    catalog,
    catalog_entry,
    compare,
    count_forests,
    count_trees,
    p_bound,
    q_bound,
)
from forestry.bounds import EQUAL, GREATER, LESS, BoundExpr
from forestry.cli import main
from forestry.errors import CheckFailed, InputError
from forestry.multigraph import degree_counts
from forestry.named import _check

# name: forests, (n2, n3, n4), exponents (a, c) of q = 2^(a/10) 198^(c/10), holds
GOLDEN = {
    "K3": (7, (3, 0, 0), (12, 2), True),
    "K4": (38, (0, 4, 0), (6, 6), True),
    "K4-e": (24, (2, 2, 0), (14, 4), True),
    "K5": (291, (0, 0, 5), (-8, 12), False),
    "K5-e": (198, (0, 2, 3), (0, 10), True),
    "K6-": (1083, (0, 0, 6), (-6, 14), False),
    "K33": (328, (0, 6, 0), (18, 8), True),
    "R1": (314, (0, 6, 0), (18, 8), True),
    "R2": (86, (1, 4, 0), (16, 6), True),
    "X6": (687, (1, 0, 5), (2, 12), True),
    "X7": (2527, (1, 0, 6), (4, 14), True),
    "Y5": (128, (1, 2, 2), (8, 8), True),
    "Y5p": (198, (0, 2, 3), (0, 10), True),
    "Y6": (431, (2, 0, 4), (10, 10), True),
    "Y6p": (722, (0, 2, 4), (2, 12), True),
    "D4": (24, (2, 2, 0), (14, 4), True),
    "D5": (81, (3, 0, 2), (16, 6), True),
    "D8": (1152, (2, 6, 0), (38, 8), True),
    "H1": (14381, (0, 0, 8), (-2, 18), True),
    "H2": (52485, (0, 0, 9), (0, 20), True),
    "H3": (2457, (1, 0, 6), (4, 14), True),
    "H4": (4061, (0, 0, 7), (-4, 16), True),
    "H5": (14763, (0, 0, 8), (-2, 18), True),
    "H6": (4019, (0, 0, 7), (-4, 16), True),
    "H7": (57631, (0, 0, 9), (0, 20), True),
    "H8": (58975, (0, 0, 9), (0, 20), True),
    "Z1": (57631, (0, 0, 9), (0, 20), True),
    "Z2": (58417, (0, 0, 9), (0, 20), True),
    "Z3": (56101, (0, 0, 9), (0, 20), True),
}


def test_every_expected_name_is_present_once():
    names = [e.name for e in catalog()]
    assert sorted(names) == sorted(GOLDEN)
    assert len(set(names)) == len(names)


def test_golden_forest_counts():
    for entry in catalog():
        assert entry.forests == GOLDEN[entry.name][0]
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
        "D8": EQUAL,
        "K33": GREATER,
        "R1": GREATER,
        "R2": GREATER,
    }
    for name, verdict in expect.items():
        entry = catalog_entry(name)
        assert compare(entry.forests, p_bound(entry.graph)) == verdict


def test_d8_is_two_k4_minus_e_on_a_bridge():
    # a forest takes the bridge or not and either way splits into forests
    # of the two sides, so F = 2 * 24^2 = 2^7 3^2, which is exactly the
    # {2, 3} bound at two degree-2 and six degree-3 vertices (pinned with
    # the other p_bound verdicts)
    d8 = catalog_entry("D8").graph
    k4e = catalog_entry("K4-e").graph
    assert d8.multiplicity(2, 4) == 1
    assert count_forests(d8) == 2 * count_forests(k4e) ** 2 == 2**7 * 3**2
    assert count_trees(d8) == count_trees(k4e) ** 2 == 64


def test_pinned_profiles_bounds_and_verdicts():
    for name, (forests, profile, (a, c), holds) in GOLDEN.items():
        entry = catalog_entry(name)
        g = entry.graph
        n2, n3, n4 = profile
        assert degree_counts(g) == {d: k for d, k in ((2, n2), (3, n3), (4, n4)) if k}
        assert entry.degree_counts == profile
        assert q_bound(g) == entry.bound == BoundExpr(a, 0, c, 10)
        # the exponents follow from the profile
        assert (a, c) == (10 * n2 + 6 * n3 + 2 * n4 - 18, n3 + 2 * n4 + 2)
        assert (compare(forests, q_bound(g)) != LESS) == entry.holds == holds


def test_catalog_json_prints_the_pinned_profiles_and_bounds(capsys):
    assert main(["catalog", "--output", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert [e["name"] for e in entries] == list(GOLDEN)
    for e in entries:
        forests, profile, (a, c), holds = GOLDEN[e["name"]]
        assert e["forests"] == str(forests)
        assert e["degree_counts"] == list(profile)
        assert e["bound"] == str(BoundExpr(a, 0, c, 10))
        assert e["holds"] is holds


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
    bad_count = CatalogEntry(good.name, good.summary, good.graph, 39, True)
    with pytest.raises(CheckFailed, match="^K4: counted 38 forests, catalog says 39$"):
        _check(bad_count)
    bad_verdict = CatalogEntry(good.name, good.summary, good.graph, 38, False)
    with pytest.raises(CheckFailed, match="^K4: bound verdict flipped$"):
        _check(bad_verdict)
    _check(CatalogEntry(good.name, good.summary, good.graph, 38, True))


@pytest.fixture
def fresh(monkeypatch):
    """An empty per-entry table; returns the names _check runs for, in order."""
    checked = []
    real = named._check

    def spy(entry):
        checked.append(entry.name)
        real(entry)

    monkeypatch.setattr(named, "_CHECKED", {})
    monkeypatch.setattr(named, "_check", spy)
    return checked


def test_an_entry_is_checked_alone_and_once(fresh):
    entry = catalog_entry("K4")
    assert fresh == ["K4"]
    assert catalog_entry("K4") is entry
    assert fresh == ["K4"]


def test_catalog_name_checks_only_that_entry(fresh, capsys):
    assert main(["catalog", "--name", "K4"]) == 0
    assert capsys.readouterr().out.startswith("name K4\n")
    assert fresh == ["K4"]


def test_a_corrupt_row_fails_only_the_commands_that_use_it(fresh, monkeypatch):
    rows = [r[:4] + (r[4] + 1,) + r[5:] if r[0] == "Z3" else r for r in named._RAW]
    monkeypatch.setattr(named, "_RAW", rows)
    assert catalog_entry("K4").forests == 38
    mismatch = "^Z3: counted 56101 forests, catalog says 56102$"
    with pytest.raises(CheckFailed, match=mismatch):
        catalog_entry("Z3")
    with pytest.raises(CheckFailed, match=mismatch):
        catalog()


def test_catalog_checks_every_entry_once_in_table_order(fresh):
    entries = catalog()
    assert [e.name for e in entries] == list(GOLDEN) == fresh
    assert all(catalog_entry(e.name) is e for e in entries)
    assert [e.name for e in catalog()] == fresh == list(GOLDEN)


def test_an_entry_prints_its_fields_by_name():
    assert repr(catalog_entry("K3")) == (
        "CatalogEntry(name='K3', summary='triangle', "
        "graph=MultiGraph(n=3, [0-1, 0-2, 1-2]), forests=7, holds=True)"
    )


def test_unknown_name_raises(fresh):
    with pytest.raises(InputError):
        catalog_entry("K7")
    assert fresh == []


def test_an_unknown_name_is_refused_with_the_message_the_cli_prints(capsys):
    message = "unknown catalog graph 'nope'; run the catalog subcommand for names"
    with pytest.raises(InputError) as info:
        catalog_entry("nope")
    assert str(info.value) == message
    assert isinstance(info.value, ValueError)
    assert main(["count", "--catalog", "nope"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
