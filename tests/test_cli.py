import io
import json
import subprocess
import sys

import pytest

from forestry import canonical_key, enumerate_family, format_graph6
from forestry.catalog import catalog_entry
from forestry.cli import main
from forestry.formats import parse_graph
from forestry.sweep import THEOREMS


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
        "cache_hits": 1,
    }
    # both commands count both numbers in JSON, the second from the cache
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
    # K4 has six edges, so a cap of three refuses the brute-force pass
    rc, _, err = cli("count", "--catalog", "K4", "--cross-check", "--brute-cap", "3")
    assert rc == 2
    assert "error" in err
    rc, _, err = cli("count", "--catalog", "K4", "--brute-cap", "0")
    assert rc == 2
    assert "--brute-cap" in err


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


def test_bound_rejects_wrong_family(cli):
    # K5 is 4-regular, outside the {2,3} family that p covers
    rc, _, err = cli("bound", "--catalog", "K5", "--which", "p")
    assert rc == 2
    assert "error" in err


def test_bound_refuses_disconnected_input(cli):
    two_triangles = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"
    for which in ("auto", "p", "q"):
        rc, out, err = cli("bound", "--which", which, stdin=two_triangles)
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


def test_verify_resume_needs_a_store(cli):
    rc, out, err = cli("verify", "--theorem", "1", "--max-n", "5", "--resume")
    assert (rc, out) == (2, "")
    assert "store" in err


def test_verify_resume_reports_stored_violations(cli, tmp_path):
    store = str(tmp_path / "t1.jsonl")
    assert cli("verify", "--theorem", "1", "--max-n", "6", "--store", store)[0] == 0
    rc, out, _ = cli("verify", "--theorem", "1", "--max-n", "7", "--store", store, "--resume")
    assert rc == 0
    assert "violations 1: K4 (n=4)" in out


def test_verify_exit_one_on_unexpected_violation(cli, monkeypatch):
    degree_set, family, bound_fn, _ = THEOREMS["T1"]
    monkeypatch.setitem(THEOREMS, "T1", (degree_set, family, bound_fn, ()))
    rc, _, err = cli("verify", "--theorem", "1", "--max-n", "4")
    assert rc == 1
    assert "error" in err


def test_verify_rejects_nonpositive_max_n(cli):
    rc, _, err = cli("verify", "--theorem", "1", "--max-n", "0")
    assert rc == 2
    assert "--max-n" in err


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
    assert cli("constants", "--fd", "3", "--max-m", "0")[0] == 0


def test_max_m_above_the_cap_is_refused_before_any_work(cli, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("lift_constant called")

    monkeypatch.setattr("forestry.cli.lift_constant", never)
    rc, out, err = cli("constants", "--max-m", "9")
    assert (rc, out) == (2, "")
    assert "--max-m" in err and "1..5" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("family", "--degrees", "23", "--n", "4", "--family-cap", "0"), "--family-cap"),
        (("family", "--degrees", "234", "--n", "4", "--family-cap", "2"), "--family-cap"),
        (("verify", "--theorem", "1", "--max-n", "5", "--family-cap", "2"), "--family-cap"),
        (("verify", "--theorem", "2", "--max-n", "2"), "--max-n"),
        (("family", "--degrees", "23", "--n", "2"), "--n"),
        (("family", "--degrees", "234", "--n", "-1"), "--n"),
    ],
)
def test_family_range_errors_name_the_flag(cli, monkeypatch, argv, flag):
    def never(*args, **kwargs):
        raise AssertionError("generation started")

    monkeypatch.setattr("forestry.cli.enumerate_family", never)
    monkeypatch.setattr("forestry.cli.sweep_theorem", never)
    rc, out, err = cli(*argv)
    assert (rc, out) == (2, "")
    assert f"error: {flag} must be at least 3" in err


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


def test_catalog_table(cli):
    rc, out, _ = cli("catalog")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 29
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
    assert len(obj["entries"]) == 28
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


def test_count_refuses_k13_from_stdin(cli):
    edges = "".join(f"{i} {j}\n" for i in range(13) for j in range(i + 1, 13))
    rc, out, err = cli("count", stdin="13 78\n" + edges)
    assert (rc, out) == (2, "")
    assert "frontier states" in err


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


def test_usage_errors(cli):
    assert cli()[0] == 2
    assert cli("frobnicate")[0] == 2
    assert cli("--help")[0] == 0
    assert cli("count", "--catalog", "K4", "--threads", "0")[0] == 2


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "forestry.cli", "catalog"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait()
    assert err == b""
