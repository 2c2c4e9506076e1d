import random

import pytest

from forestry import from_edge_list
from forestry.errors import InputError
from forestry.formats import (
    MAX_VERTICES,
    format_edge_list,
    format_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)

from oracles import complete_graph, cycle_graph, rand_multigraph


def test_edge_list_roundtrip():
    g = from_edge_list(4, [(0, 1), (0, 1), (2, 3)])
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_blanks_and_accumulation():
    text = """
    # a triangle with one doubled side
    3 4

    0 1
    1 2
    # the doubled side
    2 0
    0 2
    """
    g = parse_edge_list(text)
    assert g.n == 3 and g.m == 4
    assert g.multiplicity(0, 2) == 2


def test_edge_list_header_errors():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("3\n")
    with pytest.raises(ValueError):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError):
        parse_edge_list("-1 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1\n1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2\n")


@pytest.mark.parametrize(
    "text, what",
    [
        ("1_1 0\n", "header"),
        ("+2 0\n", "header"),
        ("\u0663 \u0662\n\u0660 \u0661\n\u0661 \u0662\n", "header"),
        ("2 1\n+0 1\n", "edge line"),
        ("3 1\n0 1_0\n", "edge line"),
        ("2 1\n\uff10 1\n", "edge line"),
        ("2 1\n-0x1 1\n", "edge line"),
    ],
)
def test_edge_list_integers_are_ascii_decimal(text, what):
    # int() reads these as 11, 2, 3 and so on; the format defines none of them
    with pytest.raises(InputError, match=f"^{what} must be two integers"):
        parse_edge_list(text)


@pytest.mark.parametrize(
    "text, what",
    [
        ("1" * 5001 + " 0\n", "header"),
        ("2 1\n0 " + "1" * 5001 + "\n", "edge line"),
        ("0" * 19 + " 0\n", "header"),
    ],
    ids=["5001-digit header", "5001-digit edge line", "19-digit header"],
)
def test_a_token_of_more_than_18_digits_is_refused(text, what):
    # past 4300 digits int() would raise a plain ValueError
    with pytest.raises(InputError, match=f"^{what} must be two integers"):
        parse_edge_list(text)


def test_an_18_digit_token_keeps_its_range_message():
    with pytest.raises(InputError, match="above the input limit"):
        parse_edge_list("9" * 18 + " 0\n")


def test_a_negative_integer_keeps_its_range_message():
    with pytest.raises(InputError, match="must be nonnegative"):
        parse_edge_list("-1 0\n")
    with pytest.raises(InputError, match=r"^edge \(-1, 0\) out of range for n=2$"):
        parse_edge_list("2 1\n-1 0\n")


def test_edge_list_structural_errors():
    with pytest.raises(InputError, match="^loop at vertex 1 rejected$"):
        parse_edge_list("2 1\n1 1\n")
    with pytest.raises(InputError, match=r"^edge \(0, 2\) out of range for n=2$"):
        parse_edge_list("2 1\n0 2\n")


def test_single_vertex_no_edges():
    g = parse_edge_list("1 0\n")
    assert g.n == 1 and g.m == 0


def test_graph6_known_strings():
    assert parse_graph6("A_") == from_edge_list(2, [(0, 1)])
    empty = parse_graph6("D??")
    assert empty.n == 5 and empty.m == 0
    assert parse_graph6("Dhc") == cycle_graph(5)
    assert parse_graph6("C~") == complete_graph(4)
    assert format_graph6(cycle_graph(5)) == "Dhc"
    assert format_graph6(complete_graph(4)) == "C~"


def test_graph6_roundtrip_simple():
    rng = random.Random(12)
    for _ in range(60):
        g = rand_multigraph(rng, max_n=9, max_edges=14, max_mult=1)
        assert parse_graph6(format_graph6(g)) == g


def test_graph6_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    for _ in range(40):
        g = rand_multigraph(rng, max_n=10, max_edges=20, max_mult=1)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edge_list())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert format_graph6(g) == theirs
        assert parse_graph6(theirs) == g


def test_graph6_header_prefix():
    g = complete_graph(4)
    assert parse_graph6(">>graph6<<" + format_graph6(g)) == g


def test_graph6_rejects_multigraphs_on_write():
    with pytest.raises(InputError, match="^graph6 cannot encode the parallel bundle 0-1$"):
        format_graph6(from_edge_list(2, [(0, 1), (0, 1)]))


def test_graph6_bad_input():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("D?")
    with pytest.raises(ValueError):
        parse_graph6("D???")
    with pytest.raises(ValueError):
        parse_graph6("\x1c??")


def test_graph6_large_n_header():
    g = from_edge_list(63, [(0, 62)])
    s = format_graph6(g)
    assert s[0] == chr(126)
    assert parse_graph6(s) == g


def test_vertex_limit():
    assert parse_edge_list(f"{MAX_VERTICES} 0").n == MAX_VERTICES
    limit = f"vertices is above the input limit of {MAX_VERTICES}$"
    with pytest.raises(InputError, match=f"^{MAX_VERTICES + 1} {limit}"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0")
    with pytest.raises(InputError, match=f"^{2**36 - 1} {limit}"):
        parse_graph6("~~~~~~~~")  # the 36-bit form's largest vertex count


def test_autodetect():
    assert parse_graph("2 1\n0 1\n") == from_edge_list(2, [(0, 1)])
    assert parse_graph("A_") == from_edge_list(2, [(0, 1)])
    assert parse_graph("# just a comment\nA_") == from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError):
        parse_graph("# nothing here\n")


def test_graph6_input_is_one_line():
    k3 = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    assert parse_graph("# a triangle\n>>graph6<<Bw\n\n# done\n") == k3
    for text, found in (("Bw\nCr\n", 2), ("Bw\n3 1\n0 1\n", 3), ("Bw\n# k\nBw\nBw", 3)):
        with pytest.raises(InputError, match=f"found {found} lines"):
            parse_graph(text)


def test_format_edge_list_is_deterministic():
    g = complete_graph(4)
    assert format_edge_list(g) == format_edge_list(g)
    assert format_edge_list(g).startswith("4 6\n0 1\n")
