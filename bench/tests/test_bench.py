"""Tests of the benchmark's own machinery.  Run: python3 -m pytest bench/tests"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import forestry  # noqa: E402
import forestry.cli  # noqa: E402,F401  (traced like every other module)
from measure import forests_by_merging, kirchhoff_trees, tail  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    LIFT_CONSTANTS,
    GRAPHS,
    SWEEPS,
    WORKLOADS,
    Run,
    _graph6_text,
    _relabel,
    pinned_outcomes,
)


@pytest.mark.parametrize(
    "n, value, percentile",
    [(40, 30, 75.0), (21, 11, 100 * 11 / 21), (3159, 3149, 100 * 3149 / 3159)],
)
def test_tail_leaves_exactly_ten_beyond(n, value, percentile):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    got, pct, beyond = tail(values)
    assert (got, beyond) == (value, 10)
    assert pct == pytest.approx(percentile)
    assert sum(v > got for v in values) == 10


@pytest.mark.parametrize("n", [1, 14, 20])
def test_tail_falls_back_to_the_maximum_when_too_few(n):
    assert tail(list(range(n))) == (n - 1, 100.0, 0)


def test_self_times_subtract_children_and_never_go_negative():
    assert self_times([1.0, 0.3, 0.2, 0.1], [-1, 0, 0, 1]) == pytest.approx([0.5, 0.2, 0.2, 0.1])
    # children whose measured durations overshoot their parent by rounding
    assert self_times([1.0, 0.6, 0.5], [-1, 0, 0]) == [0.0, 0.6, 0.5]


def _namespaces():
    out = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "forestry" or name.startswith("forestry.")):
            for attr, obj in vars(mod).items():
                out[name, attr] = obj
                if isinstance(obj, dict):
                    for key, value in obj.items():
                        out[name, attr, key] = value
    return out


def test_tracer_records_layers_and_restores_every_binding():
    forestry.catalog()  # its lazy table is the one binding a run may change
    before = _namespaces()
    with Tracer(forestry) as tracer:
        assert forestry.sweep.count_forests is not before["forestry.counting", "count_forests"]
        summary = forestry.sweep_theorem("T1", 5, cache=forestry.MemoCache())
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    metrics = tracer.layer_metrics()
    assert metrics["families.members"] == summary.checked
    assert metrics["bounds.calls"] >= 2 * summary.checked  # bound and compare per member
    assert metrics["counting.calls"] == summary.checked
    assert metrics["canon.calls_families"] > 0
    assert min(v for k, v in metrics.items() if k.endswith("self_s")) >= 0.0


def test_tracer_restores_bindings_when_the_body_raises():
    before = _namespaces()
    with pytest.raises(forestry.errors.ForestryError):
        with Tracer(forestry):
            forestry.from_edge_list(2, [(0, 0)])
    assert all(_namespaces()[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["K7", "Petersen", "K5x3", "C10(1,3)"])
def test_forests_by_merging_matches_the_pinned_panel(name):
    n, bundles, forests = GRAPHS[name]
    assert forests_by_merging(n, bundles) == forests


def test_kirchhoff_matches_known_tree_counts():
    n, bundles, _ = GRAPHS["Petersen"]
    assert kirchhoff_trees(n, bundles) == 2000
    n, bundles, _ = GRAPHS["C100"]
    assert kirchhoff_trees(n, bundles) == 100
    assert kirchhoff_trees(3, [(0, 1, 2)]) == 0  # disconnected


def test_graph6_text_is_read_back_as_the_same_graph():
    n, bundles, _ = GRAPHS["Petersen"]
    relabeled = _relabel(n, bundles, random.Random(3))
    got = forestry.parse_graph(_graph6_text(n, relabeled))
    assert sorted(got.bundles()) == relabeled


def test_sweep_gate_flags_a_wrong_count_and_a_wrong_verdict(tmp_path):
    sweep = WORKLOADS["sweep"]
    inputs = (("T1", 5, "23", (4,)),)
    run = sweep.run(forestry, inputs, str(tmp_path))
    assert forestry.sweep.family_levels is forestry.families.family_levels
    assert len(run.items) == len(pinned_outcomes("T1", 5))
    assert sweep.check(forestry, inputs, run)[1] == []
    summary, lines = run.output["T1"]
    good = lines[:]
    line = next(x for x in lines if '"forests": "15"' in x)
    lines[lines.index(line)] = line.replace('"forests": "15"', '"forests": "16"')
    failures = sweep.check(forestry, inputs, run)[1]
    assert len(failures) == 1 and "not pinned" in failures[0]
    lines[:] = good
    line = next(x for x in lines if '"verdict": "GE"' in x)
    lines[lines.index(line)] = line.replace('"verdict": "GE"', '"verdict": "LT"')
    failures = sweep.check(forestry, inputs, run)[1]
    assert any("exception False" in f for f in failures)
    assert any("not pinned" in f for f in failures)


@pytest.mark.parametrize("theorem, n_max, family, exception_orders", SWEEPS)
def test_pinned_sweep_outcomes_match_an_independent_forest_count(
    theorem, n_max, family, exception_orders
):
    degrees = tuple(int(c) for c in family)
    members = [
        (n, forests_by_merging(n, g.bundles()))
        for n, level in forestry.family_levels(degrees, n_max)
        for g in level
        if n >= 3
    ]
    pinned = pinned_outcomes(theorem, n_max)
    assert sorted(members) == [(n, forests) for n, forests, _ in pinned]
    assert sorted(n for n, _, verdict in pinned if verdict == "LT") == list(exception_orders)


def test_cli_gate_flags_wrong_bytes_and_exit_codes():
    cli = WORKLOADS["cli"]
    inputs = [(["count"], "3 3\n0 1\n1 2\n0 2\n", "7\n")] * 3
    run = Run([0.1] * 3, {"results": [(0, "7\n"), (0, "8\n"), (2, "7\n")]})
    checks, failures = cli.check(forestry, inputs, run)
    assert checks == 3 and len(failures) == 2


def test_cli_commands_pass_in_process():
    cli = WORKLOADS["cli"]
    inputs = [c for c in cli.prepare(random.Random(2))[0] if c[0][0] in ("count", "bound")][:6]
    run = cli.run_traced(forestry, inputs, None)
    assert cli.check(forestry, inputs, run) == (len(inputs), [])


def test_lifts_gate_flags_a_wrong_constant_and_a_mismatch():
    lifts = WORKLOADS["lifts"]
    good = {
        "sizes": {1: 1, 2: 4, 3: 20, 4: 276},
        "pairs": {1: 1, 2: 19, 3: 325, 4: 15615, 5: 50000},
        "mismatches": [],
        "constants": {k: list(v) for k, v in LIFT_CONSTANTS.items()},
    }
    assert lifts.check(forestry, [], Run([0.0] * 3, good))[1] == []
    good["constants"]["trees"][2] += 1
    good["mismatches"].append(("00", True, False))
    assert len(lifts.check(forestry, [], Run([0.0] * 3, good))[1]) == 2
