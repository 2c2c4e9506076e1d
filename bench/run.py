"""Run one forestry benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

The workload body repeats, in this one process, until the next
repetition would end past --seconds (at least once), cycling through
the input sets the seed draws; times are medians over repetitions.
Every time is reported in reference seconds: divided by how much
slower than measure.REF_SECONDS a fixed loop ran, so that a shift in
the CPU speed the host grants moves the figures less.  Work done in
this process is scaled by the loop timed here before each repetition;
work done in a child process (set-up, each cli command) by the loop
timed in that child after its work, since a child's speed can differ
from this long-lived process's.  cli.import_ms stays in raw seconds.
The raw seconds of this process's work are kept in the record.
Every output is checked against a route of the benchmark's own.  With
--trace 0 the end-to-end metrics of BENCHMARK.json are printed; with
--trace 1 the body also runs once with every public forestry function
wrapped, and the per-layer metrics are printed instead.  Each metric
goes on its own line with its unit, and the last line is one JSON
object with the keys correct, attempted, failed and metrics.  The full
record, with the seed and machine facts, is written to bench/results/.
The exit code is 0 only when every check passed.

--workload all runs every workload, each in a fresh process.
"""

import argparse
import gc
import json
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

from measure import Speed, machine_facts, median, tail
from tracing import Tracer
from workloads import WORKLOADS, child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 11
# what a user pays before the first answer: the import and the catalog's
# self-check on first access; then the reference loop in the same
# process, since a child may get another CPU speed than this process
SETUP_CODE = (
    "import sys\n"
    "from time import perf_counter as t\n"
    "t0 = t()\n"
    "import forestry\n"
    "t1 = t()\n"
    "forestry.catalog()\n"
    "t2 = t()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from measure import Speed\n"
    "speed = Speed()\n"
    "speed.sample(5)\n"
    "print(t1 - t0, t2 - t1, speed.ratio())\n"
)


def measure_setup(env):
    """Medians over fresh processes: import + first catalog access and the
    first catalog access alone, in reference seconds; the former raw."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, HERE], capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=60, check=True,
        )
        samples.append([float(x) for x in proc.stdout.split()])
    return (
        median([(a + b) / r for a, b, r in samples]),
        median([b / r for _, b, r in samples]),
        median([a + b for a, b, _ in samples]),
    )


def measure_cli_import_ms(env):
    """Wall time of a process that imports forestry.cli, minus a bare interpreter."""
    bare, full = [], []
    for _ in range(SETUP_SAMPLES):
        for code, out in (("pass", bare), ("import forestry.cli", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=60, check=True)
            out.append(perf_counter() - t0)
    return 1e3 * (median(full) - median(bare))


class Tally:
    """Runs bodies on the workload's input sets in turn and counts checks."""

    def __init__(self, workload, F, cycle):
        self.workload, self.F, self.cycle = workload, F, cycle
        self.bodies = 0
        self.attempted = 0
        self.failures = []
        self.speed = Speed()

    def body(self, fn, workdir):
        """Run, time and check one body.

        Returns (wall seconds, item statistics, Run.info) or None.  The
        items and outputs are dropped once summarized and checked: kept
        for every body, they would grow the peak RSS with the body count.
        """
        inputs = self.cycle[self.bodies % len(self.cycle)]
        self.bodies += 1
        self.speed.sample()
        gc.collect()
        t0 = perf_counter()
        try:
            run = fn(self.F, inputs, workdir)
        except Exception as exc:  # a body that raises is one failed check
            self.attempted += 1
            self.failures.append(f"body raised {type(exc).__name__}: {exc}")
            return None
        wall = run.info.get("wall_s", perf_counter() - t0)
        checks, failures = self.workload.check(self.F, inputs, run)
        self.attempted += checks
        self.failures += failures
        return wall, (median(run.items), *tail(run.items), len(run.items)), run.info


def run_bodies(tally, fn, workdir, seconds):
    done = []
    deadline = perf_counter() + seconds
    while True:
        got = tally.body(fn, workdir)
        if got is None:
            return done
        done.append(got)
        if perf_counter() + median([w for w, _, _ in done]) > deadline:
            return done


def item_summary(done):
    """Medians over bodies of each body's item median and tail, with the tail's rank."""
    per_body = [stats for _, stats, _ in done]
    if not per_body:
        return {"p50_s": 0.0, "tail_s": 0.0, "tail_percentile": 0.0, "beyond": 0, "items": 0}
    return {
        "p50_s": median([b[0] for b in per_body]),
        "tail_s": median([b[1] for b in per_body]),
        "tail_percentile": per_body[0][2],
        "beyond": per_body[0][3],
        "items": per_body[0][4],
    }


def end_to_end(args, workload, tally, env, workdir):
    # set-up first, before the bodies heat the machine
    setup_s, _, raw_setup_s = measure_setup(env)
    done = run_bodies(tally, workload.run, workdir, args.seconds)
    who = resource.RUSAGE_CHILDREN if workload.in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    items = item_summary(done)
    # work in child processes was scaled there, by each child's own loop
    ratio = 1.0 if workload.in_children else tally.speed.ratio()
    raw = {
        "wall_s": median([w for w, _, _ in done]),
        "item_p50_ms": 1e3 * items["p50_s"],
        "item_tail_ms": 1e3 * items["tail_s"],
    }
    metrics = {
        "setup_s": setup_s,
        **{k: v / ratio for k, v in raw.items()},
        "ok_frac": 1.0 - len(tally.failures) / max(tally.attempted, 1),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"walls": [w for w, _, _ in done], **items, "speed_ratio": ratio,
                     "raw": None if workload.in_children else raw, "raw_setup_s": raw_setup_s}


def per_layer(args, workload, tally, env, workdir):
    done = run_bodies(tally, workload.run_traced, workdir, args.seconds)
    untraced = median([w for w, _, _ in done])
    with Tracer(tally.F) as tracer:
        traced = tally.body(workload.run_traced, workdir)
    ratio = tally.speed.ratio()
    metrics = tracer.layer_metrics()
    raw = {k: v for k, v in metrics.items() if k.endswith(("_s", ".us_per_call"))}
    raw["cli.main_ms"] = 1e3 * item_summary(done)["p50_s"] if workload.in_children else 0.0
    metrics.update({k: v / ratio for k, v in raw.items()})
    _, catalog_s, _ = measure_setup(env)
    metrics.update(
        {
            "sweep.store_bytes": traced[2].get("store_bytes", 0) if traced else 0,
            "catalog.first_access_s": catalog_s,
            "cli.import_ms": measure_cli_import_ms(env),  # raw: whole processes timed from here
            "trace.overhead_frac": traced[0] / untraced - 1.0 if traced and untraced else 0.0,
            "src.sloc": machine_facts(SRC)["src_sloc"],
            "speed.ratio": ratio,
        }
    )
    # each layer's self time as a share of the traced body; the rest is the
    # benchmark's own code
    shares = {}
    if traced:
        by_layer = sorted(tracer.self_by_layer().items(), key=lambda kv: -kv[1])
        shares = {layer: round(s / traced[0], 4) for layer, s in by_layer}
    return metrics, {"walls": [w for w, _, _ in done], "traced_wall": traced[0] if traced else None,
                     "spans": len(tracer.name), "self_share": shares, "speed_ratio": ratio,
                     "raw": raw}


def run_one(args, declared):
    if not os.path.isfile(os.path.join(SRC, "forestry", "__init__.py")):
        print("error: no src/forestry here; run from the root of a forestry checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import forestry
    import forestry.cli  # noqa: F401  (not imported by the package, and traced too)

    if not os.path.abspath(forestry.__file__).startswith(SRC + os.sep):
        print(f"error: forestry was imported from {forestry.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cycle = workload.prepare(random.Random(args.seed))
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    env = child_env(ROOT)
    forestry.catalog()  # lazy set-up belongs to setup_s, not to the bodies
    tally = Tally(workload, forestry, cycle)
    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, workload, tally, env, workdir)

    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(SRC),
        "detail": detail,
        "failures": tally.failures[:20],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  machine {json.dumps(record['machine'])}")
    print(f"# detail {json.dumps(detail)}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name} {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec["per_layer"] if args.trace else spec["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
