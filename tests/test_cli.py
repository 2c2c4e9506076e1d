import contextlib
import decimal
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forestry import canonical_key, enumerate_family, format_graph6, named
from forestry.cli import main
from forestry.counting import BRUTE_FORCE_CAP
from forestry.errors import ForestryError
from forestry.families import DEFAULT_FAMILY_CAPS
from forestry.formats import GRAPH6_HEADER, MAX_VERTICES, parse_graph
from forestry.named import catalog_entry
from forestry.rings import TABLE2_ROWS
from forestry.sweep import THEOREMS, SweepSummary


TWO_TRIANGLES = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"


@pytest.fixture
def cli(capsys, monkeypatch):
    """Run main() in process and hand back (exit code, stdout, stderr)."""

    def run(*argv, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc = main(list(argv))
        cap = capsys.readouterr()
        return rc, cap.out, cap.err

    return run


def test_count_catalog_k4(cli):
    rc, out, err = cli("count", "--catalog", "K4")
    assert rc == 0
    assert out == "38\n"
    assert err == ""


def test_count_stdin_single_vertex(cli):
    rc, out, _ = cli("count", stdin="1 0\n")
    assert rc == 0
    assert out == "1\n"


def test_count_json_fields(cli):
    rc, out, _ = cli("count", "--catalog", "K4", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj == {
        "v": 1,
        "n": 4,
        "m": 6,
        "forests": "38",
        "trees": "16",
    }
    # both commands count both numbers in JSON, each once
    assert cli("trees", "--catalog", "K4", "--output", "json") == (0, out, "")


def test_count_reads_files_in_both_formats(cli, tmp_path):
    k4 = catalog_entry("K4").graph
    el = tmp_path / "k4.txt"
    el.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    g6 = tmp_path / "k4.g6"
    g6.write_text(format_graph6(k4) + "\n")
    for path in (el, g6):
        rc, out, _ = cli("count", str(path))
        assert rc == 0
        assert out == "38\n"


def test_count_cross_check(cli):
    rc, out, _ = cli("count", "--catalog", "K4", "--cross-check")
    assert rc == 0
    assert out == "38\n"


@pytest.mark.parametrize("mode", ["text", "json"])
def test_a_cross_check_disagreement_exits_one_before_any_output(cli, monkeypatch, mode):
    monkeypatch.setattr("forestry.counting.count_forests_bruteforce", lambda g: 37)
    rc, out, err = cli("count", "--catalog", "K4", "--cross-check", "--output", mode)
    assert (rc, out) == (1, "")
    assert err == "error: engine counts 38 forests, brute force 37\n"


def test_a_cross_check_past_the_brute_force_cap_is_a_usage_error(cli):
    # the brute-force search recurses once per edge, so it refuses a
    # 1600-cycle before the recursion limit could be reached
    cycle = "1600 1600\n" + "".join(f"{i} {(i + 1) % 1600}\n" for i in range(1600))
    argv = ["count", "--cross-check"]
    proc = subprocess.run(
        [sys.executable, "-m", "forestry.cli", *argv], input=cycle, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: 1600 edges exceeds the brute-force cap 24\n"
    # the parser, which no longer loads the counting layer, names the same limit
    assert f"beyond {BRUTE_FORCE_CAP} edges" in " ".join(cli("count", "--help")[1].split())


def test_trees_k5(cli):
    rc, out, _ = cli("trees", "--catalog", "K5")
    assert rc == 0
    assert out == "125\n"


def test_bound_auto_picks_p_for_cubic(cli):
    rc, out, _ = cli("bound", "--catalog", "K4")
    assert rc == 0
    assert out.splitlines() == ["forests 38", "bound 2^12 3^6 / 4", "verdict LT"]


def test_bound_explicit_q(cli):
    rc, out, _ = cli("bound", "--catalog", "K4", "--which", "q", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["which"] == "q"
    assert obj["verdict"] == "GE"
    assert obj["forests"] == "38"


def test_bound_refuses_disconnected_input(cli):
    for graph in (TWO_TRIANGLES, "0 0\n"):
        for which in ("auto", "p", "q"):
            rc, out, err = cli("bound", "--which", which, stdin=graph)
            assert (rc, out) == (2, "")
            assert "connected" in err


def test_verify_theorem1_text_summary(cli):
    rc, out, _ = cli("verify", "--theorem", "1", "--max-n", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theorem 1  family 23  max n 6"
    assert lines[1] == "checked 19  skipped 0"
    assert lines[2] == "violations 1: K4 (n=4)"
    assert "K4-e (n=4)" in lines[3]


def test_verify_names_the_n8_equality_of_theorem_1(cli):
    # Theorem 1's equality at n = 8 is a catalog graph, so it is printed by name
    rc, out, err = cli("verify", "--theorem", "1", "--max-n", "8")
    assert (rc, err) == (0, "")
    assert out == (
        "theorem 1  family 23  max n 8\nchecked 100  skipped 0\n"
        "violations 1: K4 (n=4)\nequalities 2: K4-e (n=4), D8 (n=8)\n"
    )


def test_verify_theorem2_json(cli):
    rc, out, _ = cli(
        "verify", "--theorem", "2", "--max-n", "5", "--output", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["checked"] == 15
    assert [v["name"] for v in obj["violations"]] == ["K5"]
    assert [e["name"] for e in obj["equalities"]] == ["K5-e"]
    assert all(set(v) == {"n", "key", "name"} for v in obj["violations"])


def test_verify_store_then_resume(cli, tmp_path):
    store = tmp_path / "t2.jsonl"
    rc, _, _ = cli("verify", "--theorem", "2", "--max-n", "5", "--store", str(store))
    assert rc == 0
    assert len(store.read_text().splitlines()) == 15
    rc, out, _ = cli(
        "verify", "--theorem", "2", "--max-n", "5",
        "--store", str(store), "--resume",
    )
    assert rc == 0
    assert "checked 0  skipped 15" in out


def test_verify_resume_skips_a_line_whose_family_is_not_a_string(cli, tmp_path):
    store = tmp_path / "t1.jsonl"
    assert cli("verify", "--theorem", "1", "--max-n", "4", "--store", str(store))[0] == 0
    lines = store.read_text().splitlines()
    lines[0] = lines[0].replace('"family": "23"', '"family": ["23"]')
    store.write_text("\n".join(lines) + "\n")
    rc, out, _ = cli(
        "verify", "--theorem", "1", "--max-n", "4", "--store", str(store), "--resume"
    )
    assert rc == 0
    assert "checked 1  skipped 3" in out


@pytest.mark.parametrize("theorem, exceptions", [("1", ["K4"]), ("2", ["K5", "K6-"])])
def test_verify_checks_no_catalog_entry_beyond_the_sweeps_exceptions(
    cli, monkeypatch, theorem, exceptions
):
    checked = []
    check = named._check
    monkeypatch.setattr(named, "_CHECKED", {})
    monkeypatch.setattr(named, "_check", lambda e: (checked.append(e.name), check(e)))
    rc, out, _ = cli("verify", "--theorem", theorem, "--max-n", "6")
    assert rc == 0
    assert sorted(checked) == exceptions
    # the outcomes are still named: the exceptions and K4-e or K5-e
    assert "violations %d: %s (n=" % (len(exceptions), exceptions[0]) in out
    assert "-e (n=" in out


@pytest.mark.parametrize(
    "theorem, max_n, text",
    [
        ("1", "3", "theorem 1  family 23  max n 3\nchecked 1  skipped 0\n"),
        ("2", "4", "theorem 2  family 234  max n 4\nchecked 4  skipped 0\n"),
    ],
    ids=["T1", "T2"],
)
def test_verify_keys_the_catalog_only_to_name_an_outcome(cli, monkeypatch, theorem, max_n, text):
    def refuse():
        raise AssertionError("the catalog was keyed with nothing to name")

    monkeypatch.setattr(named, "catalog_names", refuse)
    argv = ("verify", "--theorem", theorem, "--max-n", max_n)
    assert cli(*argv) == (0, text + "violations 0\nequalities 0\n", "")
    rc, out, err = cli(*argv, "--output", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["violations"] == json.loads(out)["equalities"] == []


def test_verify_resume_needs_a_store(cli):
    rc, out, err = cli("verify", "--theorem", "1", "--max-n", "5", "--resume")
    assert (rc, out) == (2, "")
    assert "store" in err


def test_verify_refuses_an_empty_store_path(cli, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, err = cli("verify", "--theorem", "1", "--max-n", "5", "--store", "")
    assert (rc, out, err) == (2, "", "error: store '' is not a path\n")
    assert list(tmp_path.iterdir()) == []


def test_verify_resume_reports_stored_violations(cli, tmp_path):
    store = str(tmp_path / "t1.jsonl")
    assert cli("verify", "--theorem", "1", "--max-n", "6", "--store", store)[0] == 0
    rc, out, _ = cli("verify", "--theorem", "1", "--max-n", "7", "--store", store, "--resume")
    assert rc == 0
    assert "violations 1: K4 (n=4)" in out


def test_verify_exit_one_on_unexpected_violation(cli, monkeypatch):
    degree_set, family, bound_fn, _ = THEOREMS["T1"]
    monkeypatch.setitem(THEOREMS, "T1", (degree_set, family, bound_fn, ()))
    rc, out, err = cli("verify", "--theorem", "1", "--max-n", "4")
    assert (rc, out) == (1, "")
    key = canonical_key(catalog_entry("K4").graph).hex()
    assert err == f"error: unexpected violation at n=4 key={key}\n"


def test_verify_rejects_nonpositive_max_n(cli):
    rc, _, err = cli("verify", "--theorem", "1", "--max-n", "0")
    assert rc == 2
    assert "--max-n" in err


def test_verify_sweeps_to_the_family_cap_without_max_n(cli, monkeypatch):
    def empty(theorem, n_max, **kwargs):
        return SweepSummary(theorem, "23", n_max, 0, 0, (), ())

    monkeypatch.setattr("forestry.sweep.sweep_theorem", empty)
    rc, out, _ = cli("verify", "--theorem", "1")
    assert rc == 0
    assert out.splitlines()[0] == "theorem 1  family 23  max n 12"


def test_verify_hands_the_family_cap_to_the_sweep_as_its_order(cli, monkeypatch):
    seen = []

    def stop(theorem, n_max, **kwargs):
        seen.append((theorem, n_max))
        raise ForestryError("sweep not run")

    monkeypatch.setattr("forestry.sweep.sweep_theorem", stop)
    assert cli("verify", "--theorem", "1")[0] == 2
    assert cli("verify", "--theorem", "2")[0] == 2
    assert seen == [("T1", 12), ("T2", 9)]


def test_the_order_help_names_the_family_limits(cli):
    # the parser does not load the families layer, so its help repeats the limits
    t1, t2 = DEFAULT_FAMILY_CAPS[frozenset((2, 3))], DEFAULT_FAMILY_CAPS[frozenset((2, 3, 4))]
    verify_help = " ".join(cli("verify", "--help")[1].split())
    assert f"3..{t1} for theorem 1 and 3..{t2} for theorem 2" in verify_help
    family_help = " ".join(cli("family", "--help")[1].split())
    assert f"3..{t1} for degrees 23 and 3..{t2} for 234" in family_help


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--theorem", "1", "--family-cap", "5"),
        ("family", "--degrees", "23", "--n", "4", "--family-cap", "12"),
    ],
)
def test_the_family_cap_flag_is_gone(cli, argv):
    rc, out, err = cli(*argv)
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --family-cap" in err


def test_family_lists_graph6(cli):
    rc, out, _ = cli("family", "--degrees", "23", "--n", "4")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 3
    got = {canonical_key(parse_graph(line)) for line in lines}
    want = {canonical_key(g) for g in enumerate_family(4, (2, 3))}
    assert got == want


def test_family_json(cli):
    rc, out, _ = cli("family", "--degrees", "234", "--n", "5", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["count"] == 11
    assert len(obj["members"]) == 11


def test_family_beyond_cap(cli):
    rc, _, err = cli("family", "--degrees", "23", "--n", "13")
    assert rc == 2
    assert "error" in err


def test_constants_text_covers_both_kinds(cli):
    rc, out, _ = cli("constants")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert "value 27/7" in lines[4]
    assert "value 8/3" in lines[5]


def test_constants_json_forest_values(cli):
    rc, out, _ = cli(
        "constants", "--kind", "forests", "--max-m", "3", "--output", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert [c["value"] for c in obj["constants"]] == ["2", "3", "27/7"]
    assert obj["constants"][0]["witness_n"] == 2


def test_constants_growth_ceilings(cli):
    rc, out, _ = cli("constants", "--fd", "3")
    assert rc == 0
    assert "2 * 3^(1/4)" in out
    assert "2.6321480259" in out
    rc, out, _ = cli("constants", "--fd", "4")
    assert rc == 0
    assert out == "d 4  ceiling 396^(1/5) = 3.3077984335\n"
    rc, out, _ = cli("constants", "--fd", "4", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    assert (obj["outer"], obj["inner"], obj["index"]) == (1, 396, 5)


def test_constants_bad_arguments(cli):
    assert cli("constants", "--fd", "2")[0] == 2
    rc, _, err = cli("constants", "--max-m", "0")
    assert rc == 2
    assert "--max-m" in err
    # --max-m only bounds the lift constants, which --fd does not compute
    assert cli("constants", "--fd", "3", "--max-m", "0")[0] == 2


@pytest.mark.parametrize("fd", ["7", "2", "-1"])
def test_fd_outside_its_range_is_refused_at_the_flag(cli, monkeypatch, fd):
    def never(*args, **kwargs):
        raise AssertionError("upper_bound_fd called")

    monkeypatch.setattr("forestry.rings.upper_bound_fd", never)
    assert cli("constants", "--fd", fd) == (2, "", f"error: --fd must be in 3..6, got {fd}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("constants", "--fd", "3", "--max-m", "2"), "--max-m"),
        (("constants", "--fd", "3", "--kind", "trees"), "--kind"),
        (("count", "--catalog", "K4", "g.txt"), "--catalog"),
    ],
)
def test_flags_that_would_be_ignored_are_refused(cli, argv, flag):
    rc, out, err = cli(*argv)
    assert (rc, out) == (2, "")
    assert flag in err
    # refused by the command's own check, not by argparse as an unknown option
    assert "unrecognized arguments" not in err


def test_max_m_above_the_cap_is_refused_before_any_work(cli, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("lift_constant called")

    monkeypatch.setattr("forestry.lifts.lift_constant", never)
    rc, out, err = cli("constants", "--max-m", "9")
    assert (rc, out) == (2, "")
    assert "--max-m" in err and "1..5" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "--theorem", "1", "--max-n", "13"), "--max-n"),
        (("verify", "--theorem", "2", "--max-n", "10"), "--max-n"),
        (("family", "--degrees", "234", "--n", "10"), "--n"),
        (("verify", "--theorem", "2", "--max-n", "2"), "--max-n"),
        (("family", "--degrees", "23", "--n", "2"), "--n"),
        (("family", "--degrees", "234", "--n", "-1"), "--n"),
    ],
)
def test_family_range_errors_name_the_flag(cli, monkeypatch, argv, flag):
    def never(*args, **kwargs):
        raise AssertionError("generation started")

    monkeypatch.setattr("forestry.families.enumerate_family", never)
    monkeypatch.setattr("forestry.sweep.sweep_theorem", never)
    rc, out, err = cli(*argv)
    assert (rc, out) == (2, "")
    limit = {"1": 12, "23": 12, "2": 9, "234": 9}[argv[2]]
    assert f"error: {flag} must be in 3..{limit}, got {argv[-1]}\n" == err


def test_ratio_double_star_json(cli):
    rc, out, _ = cli("ratio", "--suite", "double-star", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    (suite,) = obj["suites"]
    assert len(suite["rows"]) == 15
    assert suite["min"] == "7"
    assert suite["zero_rows"] == []


def test_ratio_all_text(cli):
    rc, out, _ = cli("ratio")
    assert rc == 0
    assert "suite double-star" in out
    assert "min 7 at" in out
    assert "min 81/7" in out
    assert "min 10/3" in out
    assert "suite table2" in out
    assert "all rows match" in out


TABLE2_BROKEN_TEXT = """\
suite table2
  0|1|2|3   16 4 4 4       MISMATCH
  0,1|2|3   12 2 4 4       ok
  0,2|1|3   12 4 2 4       ok
  0,3|1|2   12 4 4 2       ok
  1,2|0|3   12 4 4 2       ok
  1,3|0|2   12 4 2 4       ok
  2,3|0|1   12 2 4 4       ok
  0,1|2,3   9 1 3 3        ok
  0,2|1,3   9 3 1 3        ok
  0,3|1,2   9 3 3 1        ok
  0|1,2,3   8 2 2 2        ok
  1|0,2,3   8 2 2 2        ok
  2|0,1,3   8 2 2 2        ok
  3|0,1,2   8 2 2 2        ok
  0,1,2,3   5 1 1 1        ok
  all rows DO NOT match
"""


def test_a_failing_table2_prints_the_whole_table_then_exits_one(cli, monkeypatch):
    (part, _), *rest = TABLE2_ROWS
    monkeypatch.setattr("forestry.rings.TABLE2_ROWS", ((part, (16, 4, 4, 5)), *rest))
    assert cli("ratio", "--suite", "table2") == (
        1,
        TABLE2_BROKEN_TEXT,
        "error: table2 expectations failed\n",
    )
    rc, out, err = cli("ratio", "--suite", "table2", "--output", "json")
    assert (rc, err) == (1, "error: table2 expectations failed\n")
    (suite,) = json.loads(out)["suites"]
    assert suite["ok"] is False
    assert [row["ok"] for row in suite["rows"]] == [False] + [True] * 14
    assert suite["rows"][0]["expected"] == ["16", "4", "4", "5"]


def test_catalog_table(cli):
    rc, out, _ = cli("catalog")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 30
    k5 = next(line for line in lines if line.startswith("K5 "))
    assert "291" in k5
    assert k5.rstrip().endswith("no")


def test_catalog_single_entry_detail(cli):
    rc, out, _ = cli("catalog", "--name", "H7")
    assert rc == 0
    assert "forests 57631" in out
    assert "degrees 2:0 3:0 4:9" in out


def test_catalog_edgelist_round_trip(cli):
    rc, out, _ = cli("catalog", "--name", "H7", "--emit-edgelist")
    assert rc == 0
    assert out.startswith("# H7\n")
    g = parse_graph(out)
    assert canonical_key(g) == canonical_key(catalog_entry("H7").graph)


def test_catalog_json(cli):
    rc, out, _ = cli("catalog", "--output", "json")
    assert rc == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 29
    h8 = next(e for e in obj["entries"] if e["name"] == "H8")
    assert h8["forests"] == "58975"
    assert "edges" not in h8


def test_catalog_unknown_name(cli):
    rc, _, err = cli("catalog", "--name", "K7")
    assert rc == 2
    assert "unknown catalog graph" in err


def test_count_with_a_bundle_of_300(cli):
    # multiplicities past one byte are escaped in canonical keys
    edges = ["0 1"] * 300 + ["1 2", "0 2"]
    rc, out, err = cli("count", stdin="3 302\n" + "\n".join(edges) + "\n")
    assert (rc, out, err) == (0, "904\n", "")


def test_count_a_400_cycle(cli):
    edges = "".join(f"{i} {(i + 1) % 400}\n" for i in range(400))
    rc, out, err = cli("count", stdin="400 400\n" + edges)
    assert (rc, out, err) == (0, f"{2**400 - 1}\n", "")


@pytest.mark.parametrize("command", ["count", "trees"])
def test_count_refuses_k13_from_stdin(cli, command):
    edges = "".join(f"{i} {j}\n" for i in range(13) for j in range(i + 1, 13))
    rc, out, err = cli(command, stdin="13 78\n" + edges)
    assert (rc, out) == (2, "")
    assert err == "error: over 262144 frontier states: the graph is too dense to count\n"


def test_huge_vertex_count_is_refused_before_allocation(cli, monkeypatch):
    def never(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr("forestry.formats.from_edge_list", never)
    rc, out, err = cli("count", stdin="1000000000 0\n")
    assert rc == 2 and out == ""
    assert "limit" in err


def test_input_conflicts(cli, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    rc, _, err = cli("count", str(path), "--catalog", "K4")
    assert rc == 2
    assert "not both" in err
    assert cli("count", str(tmp_path / "missing.txt"))[0] == 2
    assert cli("count", stdin="definitely not a graph\n")[0] == 2


@pytest.mark.parametrize(
    "stdin, found",
    [("Bw\nCr\n", 2), ("Bw\n3 1\n0 1\n", 3)],
    ids=["two-graph6-lines", "graph6-then-edge-list"],
)
def test_graph6_followed_by_more_lines_is_refused(cli, stdin, found):
    rc, out, err = cli("count", stdin=stdin)
    assert (rc, out) == (2, "")
    assert err == f"error: graph6 input is one line, found {found} lines\n"


@pytest.mark.parametrize(
    "stdin, line",
    [
        ("1_1 0\n", "header"),
        ("2 1\n+0 1\n", "edge line"),
        ("\u0663 \u0662\n\u0660 \u0661\n\u0661 \u0662\n", "header"),
    ],
)
def test_only_ascii_decimal_integers_are_read(cli, stdin, line):
    rc, out, err = cli("count", "--output", "json", stdin=stdin)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {line} must be two integers, got ")


def test_a_5001_digit_token_is_one_error_line(cli):
    rc, out, err = cli("count", stdin="2 1\n0 " + "1" * 5001 + "\n")
    assert (rc, out) == (2, "")
    assert err.startswith("error: edge line must be two integers, got ")
    assert err.count("\n") == 1


# numbers at the edges of what the edge-list reader accepts: the order
# limit and one past it, 18 and 19 digits, negative, and digits that are
# not ASCII
_EXTREME = st.one_of(
    st.sampled_from([MAX_VERTICES, MAX_VERTICES + 1]).map(str),
    st.integers(10**17, 10**18 - 1).map(str),
    st.integers(10**18, 10**19 - 1).map(str),
    st.integers(-(10**19), -1).map(str),
    st.text(st.characters(categories=["Nd"], exclude_characters="0123456789"),
            min_size=1, max_size=3),
)


@st.composite
def edge_list_texts(draw):
    """A small edge list with up to two of its numbers swapped for extreme ones."""
    n = draw(st.integers(0, 6))
    ends = st.integers(0, max(n - 1, 0))
    body = draw(st.lists(st.tuples(ends, ends), max_size=5))
    tokens = [str(n), str(len(body))] + [str(x) for e in body for x in e]
    for i in draw(st.sets(st.integers(0, len(tokens) - 1), max_size=2)):
        tokens[i] = draw(_EXTREME)
    if tokens[0] == str(MAX_VERTICES) and tokens[1] == str(len(body)):
        # what is accepted stays small; the edgeless graph at MAX_VERTICES
        # is an explicit example
        tokens[1] = str(len(body) + 1)
    return "".join(f"{tokens[i]} {tokens[i + 1]}\n" for i in range(0, len(tokens), 2))


def _graph6_order(n):
    """graph6's prefix for an order of n vertices: 1, 4 or 8 characters."""
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + (n >> k & 63)) for k in (12, 6, 0))
    return "~~" + "".join(chr(63 + (n >> k & 63)) for k in (30, 24, 18, 12, 6, 0))


@st.composite
def graph6_texts(draw):
    big = [MAX_VERTICES, MAX_VERTICES + 1, 2**36 - 1]
    n = draw(st.one_of(st.integers(0, 7), st.sampled_from(big)))
    head = _graph6_order(n)
    head = head[: draw(st.integers(1, len(head)))]  # the order may be cut short
    need = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.sampled_from([need - 1, need, need + 1]) if n < 8 else st.integers(0, 4))
    # a full last character may carry non-zero padding bits
    body = draw(st.text(st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=max(size, 0), max_size=max(size, 0)))
    stray = draw(st.one_of(st.just(""), st.sampled_from(["!", "\u00e9"])))
    return draw(st.sampled_from(["", GRAPH6_HEADER])) + head + body + stray + "\n"


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("count",), ("trees",), ("bound",), ("count", "--output", "json")]),
    st.one_of(edge_list_texts(), graph6_texts()),
)
@example(("count",), f"{MAX_VERTICES} 0\n")
def test_every_input_ends_in_an_answer_or_one_error_line(argv, text):
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    finally:
        sys.stdin = stdin
    out, err = out.getvalue(), err.getvalue()
    if rc == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert (rc, err) == (0, "")
        assert out.endswith("\n")


def test_a_count_past_4300_digits_prints():
    # 2^14999 forests, 4516 digits: past the int-to-str limit that
    # CPython sets by default, which the console entry lifts
    path = "15000 14999\n" + "".join(f"{i} {i + 1}\n" for i in range(14999))
    text, js = (
        subprocess.run(
            [sys.executable, "-m", "forestry.cli", "count", *argv],
            input=path, capture_output=True, text=True, timeout=120,
        )
        for argv in ((), ("--output", "json"))
    )
    with decimal.localcontext() as ctx:
        ctx.prec = 5000
        forests = str(decimal.Decimal(2) ** 14999)
    assert (text.returncode, text.stdout, text.stderr) == (0, forests + "\n", "")
    assert (js.returncode, js.stderr) == (0, "")
    assert json.loads(js.stdout) == {
        "v": 1, "n": 15000, "m": 14999, "forests": forests, "trees": "1"
    }


def test_main_leaves_the_int_to_str_limit_to_its_caller(cli):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    assert cli("count", "--catalog", "K4")[0] == 0
    assert limit() == before


def test_an_undecodable_input_file_is_an_input_error(cli, tmp_path):
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xff 0\n")
    rc, out, err = cli("count", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
    )


def test_an_undecodable_byte_reads_the_same_from_stdin_and_a_file(tmp_path):
    # under the C locale Python reads stdin with surrogateescape, so the
    # byte would reach the graph6 parser as '\udcff' if stdin were read as text
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xff 0\n")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
    env["LC_ALL"] = "C"
    argv = [sys.executable, "-m", "forestry.cli", "count"]
    piped = subprocess.run(argv, input=b"\xff 0\n", capture_output=True, env=env, timeout=120)
    read = subprocess.run(argv + [str(path)], capture_output=True, env=env, timeout=120)
    assert (piped.returncode, piped.stdout) == (read.returncode, read.stdout) == (2, b"")
    assert piped.stderr == read.stderr
    assert piped.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")


def test_a_plain_value_error_is_a_defect_not_bad_input(cli, monkeypatch):
    def broken(g):
        raise ValueError("a defect")

    # a traceback, not exit 2: the user's input was fine
    monkeypatch.setattr("forestry.counting.count_forests", broken)
    with pytest.raises(ValueError, match="a defect"):
        cli("count", stdin="3 3\n0 1\n1 2\n0 2\n")


@pytest.mark.parametrize(
    "argv, stdin, err",
    [
        (("count",), "2 1\n0 0\n", "loop at vertex 0 rejected"),
        (("count",), "2 1\n0 5\n", "edge (0, 5) out of range for n=2"),
        (("count",), "100001 0\n", "100001 vertices is above the input limit of 100000"),
        # K5 is 4-regular, outside the {2,3} family that p covers
        (("bound", "--which", "p", "--catalog", "K5"), None, "degrees [4] are outside {2, 3}"),
        (("bound",), TWO_TRIANGLES, "the bounds are stated for connected graphs"),
        # two tokens make a header even with a sign in front: not a graph6 line
        (("count",), "-1 2", "header counts must be nonnegative, got '-1 2'"),
    ],
    ids=["loop", "vertex-range", "too-many-vertices", "degree-family", "disconnected",
         "negative-header"],
)
def test_each_refusal_exits_two_with_its_own_line(cli, argv, stdin, err):
    assert cli(*argv, stdin=stdin) == (2, "", f"error: {err}\n")


def test_a_catalog_mismatch_exits_one_before_any_output(cli, monkeypatch):
    raw = [row[:4] + (row[4] + 1,) + row[5:] if row[0] == "Z3" else row for row in named._RAW]
    monkeypatch.setattr(named, "_RAW", raw)
    monkeypatch.setattr(named, "_CHECKED", {})
    rc, out, err = cli("count", "--catalog", "Z3")
    assert (rc, out) == (1, "")
    assert err == "error: Z3: counted 56101 forests, catalog says 56102\n"


def test_usage_errors(cli):
    assert cli()[0] == 2
    assert cli("frobnicate")[0] == 2
    assert cli("--help")[0] == 0
    assert cli("count", "--catalog", "K4", "--threads", "0")[0] == 2


# stdout of every subcommand as (argv, text, JSON); an output of more than
# a few lines is kept as the sha256 digest of its bytes
PINNED = [
    (
        ('count', '--catalog', 'K4'),
        '38\n',
        '{"forests": "38", "m": 6, "n": 4, "trees": "16", "v": 1}\n',
    ),
    (
        ('trees', '--catalog', 'K5'),
        '125\n',
        '{"forests": "291", "m": 10, "n": 5, "trees": "125", "v": 1}\n',
    ),
    (
        ('bound', '--catalog', 'K4', '--which', 'p'),
        'forests 38\nbound 2^12 3^6 / 4\nverdict LT\n',
        '{"bound": "2^12 3^6 / 4", "forests": "38", "m": 6, "n": 4, "v": 1, "verdict": "LT", "which": "p"}\n',
    ),
    (
        ('bound', '--catalog', 'K5', '--which', 'q'),
        'forests 291\nbound 2^-8 198^12 / 10\nverdict LT\n',
        '{"bound": "2^-8 198^12 / 10", "forests": "291", "m": 10, "n": 5, "v": 1, "verdict": "LT", "which": "q"}\n',
    ),
    (
        ('verify', '--theorem', '1', '--max-n', '6'),
        'theorem 1  family 23  max n 6\nchecked 19  skipped 0\nviolations 1: K4 (n=4)\nequalities 1: K4-e (n=4)\n',
        '{"checked": 19, "equalities": [{"key": "0400000000000101010101", "n": 4, "name": "K4-e"}], "family": "23", "n_max": 6, "skipped": 0, "theorem": "1", "v": 1, "violations": [{"key": "0400000000010101010101", "n": 4, "name": "K4"}]}\n',
    ),
    (
        ('verify', '--theorem', '2', '--max-n', '6'),
        'theorem 2  family 234  max n 6\nchecked 53  skipped 0\nviolations 2: K5 (n=5), K6- (n=6)\nequalities 1: K5-e (n=5)\n',
        'sha256:5fa2a0af691d5a5c5af028b706e91be06389a02dae7385e6a95cee4edbc4601f',
    ),
    (
        ('family', '--degrees', '23', '--n', '6'),
        'Erd_\nE{SW\nE{So\nEr_W\nEr`G\nE{CW\nE{OW\nEqGW\nE}GW\nErdg\nE{Sw\n',
        '{"count": 11, "family": "23", "members": ["Erd_", "E{SW", "E{So", "Er_W", "Er`G", "E{CW", "E{OW", "EqGW", "E}GW", "Erdg", "E{Sw"], "n": 6, "v": 1}\n',
    ),
    (
        ('constants',),
        'sha256:aff3621701a7589766e2c6a9a28c05b19f23abb814e44a99c47208e5194775d7',
        'sha256:45598db95c17efd86a667d8bb0d2f758dd30153c7e078a6f131f2b28e0357ec5',
    ),
    (
        ('constants', '--fd', '3'),
        'd 3  ceiling 2 * 3^(1/4) = 48^(1/4) = 2.6321480259\n',
        '{"d": 3, "index": 4, "inner": 3, "outer": 2, "radicand": 48, "v": 1, "value": 2.6321480259049848}\n',
    ),
    (
        ('constants', '--fd', '4'),
        'd 4  ceiling 396^(1/5) = 3.3077984335\n',
        '{"d": 4, "index": 5, "inner": 396, "outer": 1, "radicand": 396, "v": 1, "value": 3.307798433457187}\n',
    ),
    (
        ('ratio', '--suite', 'all'),
        'sha256:b80538ad1759150356b1585bbfaeb07318ea7ab4af1f2f39a54965b6ec88d8b4',
        'sha256:82151993ac02d3af5dbf678692f03e5ee03f97ba03b0ebf109f29d6532f1e730',
    ),
    (
        ('catalog',),
        'sha256:4a735bba2cb8c7c9b4c1286711550d0fee96aa378830c13891f6c0e0b7b14ced',
        'sha256:f8b4ad8de00829c5df3f7c5e91ff247deaaebbc4c12e413d867a33b4c2cf8ca5',
    ),
    (
        ('catalog', '--name', 'H7'),
        'name H7\nsummary 9-vertex 4-regular graph: triangle whose neighbourhood is a 3-by-3 biclique\nvertices 9\nedges 18\nforests 57631\ntrees 12096\ndegrees 2:0 3:0 4:9\nbound 198^20 / 10\nholds yes\n',
        '{"entries": [{"bound": "198^20 / 10", "degree_counts": [0, 0, 9], "forests": "57631", "holds": true, "m": 18, "n": 9, "name": "H7", "summary": "9-vertex 4-regular graph: triangle whose neighbourhood is a 3-by-3 biclique", "trees": "12096"}], "v": 1}\n',
    ),
    (
        ('catalog', '--emit-edgelist'),
        'sha256:19be055eeb6dcc4adfae7368327364375b05fb6b43dbbe1722171488a1f96e43',
        'sha256:827c59ce0582ff0f375574f6e777e9b42ab13f16f53456e29a7c23e2c1de5c3b',
    ),
]


PINNED_CASES = [
    pytest.param(argv, mode, out, id=" ".join((*argv, mode)))
    for argv, *outs in PINNED
    for mode, out in zip(("text", "json"), outs)
]


@pytest.mark.parametrize("argv, mode, expected", PINNED_CASES)
def test_every_subcommand_prints_the_pinned_bytes(cli, argv, mode, expected):
    rc, out, err = cli(*argv, "--output", mode)
    assert (rc, err) == (0, "")
    if expected.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == expected


def test_stdout_is_deterministic(cli):
    first = cli("verify", "--theorem", "1", "--max-n", "5", "--output", "json")
    second = cli("verify", "--theorem", "1", "--max-n", "5", "--output", "json")
    assert first == second


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "forestry.cli", "count", "--catalog", "K4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "38\n"


def test_a_closed_pipe_ends_the_command_quietly():
    # the reader goes away before a line is written, as `| head -0` would
    with subprocess.Popen(
        [sys.executable, "-m", "forestry.cli", "catalog"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert err == b""
