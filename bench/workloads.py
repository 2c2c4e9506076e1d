"""The three benchmark workloads: inputs, the timed bodies, and their checks.

Each workload has ``prepare(rng)``, which draws from the seed the list
of input sets that a run's bodies take in turn; ``run(F, inputs,
workdir)``, the timed body on one set, which calls the forestry package
``F`` and returns a ``Run``; and ``check(F, inputs, run)``,
which compares the outputs against a route of the benchmark's own and
returns ``(checks made, failures)``.  ``run_traced`` is the body the
traced run measures; it differs from ``run`` only for ``cli``, whose
subprocesses cannot be traced from here.

Why these three: ``sweep`` is the paper's headline verification and is
dominated by family generation plus canonical labeling, with counting
sharing one memo over hundreds of small graphs; ``lifts`` is graph
construction and small-multigraph canon with almost no counting;
``cli`` is interpreter start, package import, the catalog self-check
and input parsing, which no other workload weighs.  A panel of larger
graphs counted one by one (grids, circulants, K7, C100) was left out:
under seeded relabelings its per-run figures spread past the bounds.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from time import perf_counter

from measure import kirchhoff_trees
from tracing import Patch

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Run:
    items: list  # seconds per item, in the order run
    output: dict
    info: dict = field(default_factory=dict)


def _relabel(n, bundles, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v, t in bundles:
        a, b = perm[u], perm[v]
        out.append((min(a, b), max(a, b), t))
    out.sort()
    return out


def _pairs(bundles):
    return [(u, v) for u, v, t in bundles for _ in range(t)]


def _edge_list_text(n, bundles):
    pairs = _pairs(bundles)
    return "".join([f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs])


def _graph6_text(n, bundles):
    """graph6 of a simple graph on at most 62 vertices."""
    edges = {(u, v) for u, v, _ in bundles}
    bits = [1 if (u, v) in edges else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chars = [n + 63] + [
        int("".join(map(str, bits[i : i + 6])), 2) + 63 for i in range(0, len(bits), 6)
    ]
    return "".join(map(chr, chars)) + "\n"


def _circulant(n, jumps):
    return [(i, (i + j) % n) for i in range(n) for j in jumps]


def _clique(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


PETERSEN = [(i, (i + 1) % 5) for i in range(5)]
PETERSEN += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
PETERSEN += [(i, i + 5) for i in range(5)]


def _graph(n, pairs, mult=1):
    return n, [(u, v, mult) for u, v in sorted({(min(e), max(e)) for e in pairs})]


# name -> (n, bundles, spanning forests), for the cli workload's inputs
# and the tests of the benchmark's own counters.  K7 is OEIS A001858 and
# C_100 has 2^100 - 1 forests (every edge set but the whole cycle); the
# other counts were pinned after an independent frontier-DP count agreed.
GRAPHS = {
    "C10(1,3)": (*_graph(10, _circulant(10, (1, 3))), 225025),
    "K7": (*_graph(7, _clique(7)), 36961),
    "Petersen": (*_graph(10, PETERSEN), 22292),
    "K5x3": (*_graph(5, _clique(5), 3), 13531),
    "C100": (*_graph(100, _circulant(100, (1,))), 2**100 - 1),
}
# a run's bodies cycle through this many seeded input sets, so one
# unlucky relabeling or sample cannot set a run's median alone
CYCLE = 8


# theorem, largest order, family tag, orders of the known exceptions
SWEEPS = (("T1", 9, "23", (4,)), ("T2", 7, "234", (5, 6)))


def pinned_outcomes(theorem, n_max):
    """The sorted (n, forests, verdict) of every member of order <= n_max.

    Pinned in golden.json for the orders of SWEEPS; the forest counts
    agree with an independent count (see the benchmark's tests).
    """
    return [tuple(x) for x in _golden()["sweep"][theorem] if x[0] <= n_max]


class _MemberClock:
    """Times each member check of a sweep from outside sweep_theorem.

    A member's time runs from the end of the previous member's store
    append, or from the moment its level was generated, to the end of
    its own append: count, bound, compare and record, not generation.
    """

    def __init__(self, sweep_module):
        self.ns = vars(sweep_module)
        self.levels = sweep_module.family_levels
        self.append = sweep_module.run_store_append
        self.patch = Patch()
        self.items = []
        self.last = 0.0

    def _levels(self, *args, **kwargs):
        for level in self.levels(*args, **kwargs):
            self.last = perf_counter()
            yield level

    def _append(self, store, record):
        self.append(store, record)
        now = perf_counter()
        self.items.append(now - self.last)
        self.last = now

    def __enter__(self):
        self.patch.set(self.ns, "family_levels", self._levels)
        self.patch.set(self.ns, "run_store_append", self._append)
        return self

    def __exit__(self, *exc):
        self.patch.restore()
        return False


class Sweep:
    name = "sweep"
    in_children = False  # whether the timed work runs in child processes

    def prepare(self, rng):
        return [SWEEPS]  # nothing to draw: the families are fixed

    def run(self, F, inputs, workdir):
        tmp = tempfile.mkdtemp(dir=workdir)
        output = {}
        try:
            with _MemberClock(F.sweep) as clock:
                for theorem, n_max, _, _ in inputs:
                    store = os.path.join(tmp, theorem + ".jsonl")
                    summary = F.sweep_theorem(theorem, n_max, store=store, cache=F.MemoCache())
                    with open(store, encoding="utf-8") as fh:
                        output[theorem] = (summary, fh.read().splitlines())
            store_bytes = sum(
                os.path.getsize(os.path.join(tmp, name)) for name in os.listdir(tmp)
            )
        finally:
            shutil.rmtree(tmp)
        return Run(clock.items, output, {"store_bytes": store_bytes})

    run_traced = run

    def check(self, F, inputs, run):
        failures = []
        checks = 0
        for theorem, n_max, family, exception_orders in inputs:
            want = pinned_outcomes(theorem, n_max)
            summary, lines = run.output.get(theorem, (None, []))
            checks += 2 + len(lines)
            if summary is None or summary.checked != len(want):
                failures.append(f"{theorem}: expected {len(want)} members checked")
            records = []
            for line in lines:
                try:
                    record = F.sweep.parse_record(line)
                    if F.sweep.record_line(record) != line:
                        raise ValueError("does not round-trip")
                except Exception as exc:  # any defect in one line fails that member
                    failures.append(f"{theorem}: bad store line {line[:60]!r}: {exc}")
                    continue
                if record.family != family or record.exception != (record.verdict == "LT"):
                    failures.append(
                        f"{theorem}: member {record.key.hex()} of family {record.family} has"
                        f" verdict {record.verdict} but exception {record.exception}"
                    )
                records.append(record)
            got = sorted((r.n, r.forests, r.verdict) for r in records)
            if got != want:
                extra = sorted((Counter(got) - Counter(want)).elements())[:3]
                lost = sorted((Counter(want) - Counter(got)).elements())[:3]
                failures.append(f"{theorem}: outcomes {extra} not pinned, pinned {lost} missing")
            if len({r.key for r in records}) != len(records):
                failures.append(f"{theorem}: a member was recorded twice")
            exceptions = {(r.n, r.key) for r in records if r.exception}
            orders = tuple(o for o in exception_orders if o <= n_max)
            if sorted(n for n, _ in exceptions) != list(orders):
                failures.append(f"{theorem}: exceptions at orders {sorted(exceptions)}")
            elif summary is not None and set(summary.violations) != exceptions:
                failures.append(f"{theorem}: summary violations differ from the store's")
        return checks, failures


LEVEL_SIZES = {1: 1, 2: 4, 3: 20, 4: 276}
# pairs checked per order; the orders of LEVEL_SIZES are exhaustive
PAIRS_PER_ORDER = {1: 1, 2: 19, 3: 325, 4: 15615}
# order-5 graphs drawn per body, as (order-4 class, attachment vector)
ORDER5_DRAWS = 40
LIFT_CONSTANTS = {
    "forests": [Fraction(2), Fraction(3), Fraction(27, 7), Fraction(24, 5), Fraction(40, 7)],
    "trees": [Fraction(1), Fraction(2), Fraction(8, 3), Fraction(18, 5), Fraction(9, 2)],
}


def _attach(F, h, vec):
    """h plus a new last vertex joined to vertex v by vec[v] parallel edges."""
    k = h.n
    attached = [(v, k) for v, t in enumerate(vec) for _ in range(t)]
    return F.from_edge_list(k + 1, h.edge_list() + attached)


class Lifts:
    name = "lifts"
    in_children = False

    def prepare(self, rng):
        draws = LEVEL_SIZES[4] * 4**4
        return [sorted(rng.sample(range(draws), ORDER5_DRAWS)) for _ in range(CYCLE)]

    def run(self, F, inputs, workdir):
        # every multigraph class on k vertices with multiplicity <= 3,
        # grown from the classes on k - 1 vertices, in canonical-key order
        levels = {1: [F.from_edge_list(1, [])]}
        for k in range(2, 5):
            seen = {}
            for parent in levels[k - 1]:
                for vec in product(range(4), repeat=k - 1):
                    g = _attach(F, parent, vec)
                    seen.setdefault(F.canonical_key(g), g)
            levels[k] = [g for _, g in sorted(seen.items())]
        sizes = {k: len(v) for k, v in levels.items()}
        vectors = list(product(range(4), repeat=4))
        order5 = {}
        for i in inputs:
            g = _attach(F, levels[4][i // len(vectors)], vectors[i % len(vectors)])
            order5.setdefault(F.canonical_key(g), g)
        classes = [(k, h) for k in range(1, 5) for h in levels[k]]
        classes += [(5, h) for h in order5.values()]

        items = []
        pairs = dict.fromkeys(range(1, 6), 0)
        mismatches = []
        for k, h in classes:
            auts = F.automorphisms(h)
            reps = set()
            for vec in product(range(4), repeat=k):
                if sum(vec) not in (2, 4, 6):
                    continue
                rep = min(tuple(vec[p[i]] for i in range(k)) for p in auts)
                if rep in reps:
                    continue
                reps.add(rep)
                g = _attach(F, h, vec)
                if not F.is_connected(g):
                    continue
                t0 = perf_counter()
                claim = F.lift_feasible_multigraph(g, k)
                found = any(F.is_connected(res) for _, res in F.enumerate_lifts(g, k))
                items.append(perf_counter() - t0)
                pairs[k] += 1
                if claim != found:
                    mismatches.append((F.canonical_key(g).hex(), claim, found))

        cache = F.MemoCache()
        constants = {
            kind: [F.lift_constant(m, kind, cache=cache).value for m in range(1, 6)]
            for kind in LIFT_CONSTANTS
        }
        return Run(items, {"sizes": sizes, "pairs": pairs, "mismatches": mismatches,
                           "constants": constants})

    run_traced = run

    def check(self, F, inputs, run):
        out = run.output
        failures = [f"claim {c} but found {f} at {key}" for key, c, f in out["mismatches"]]
        if out["sizes"] != LEVEL_SIZES:
            failures.append(f"level sizes {out['sizes']}, expected {LEVEL_SIZES}")
        for k, want in PAIRS_PER_ORDER.items():
            if out["pairs"][k] != want:
                failures.append(f"{out['pairs'][k]} pairs on {k} vertices, expected {want}")
        if out["constants"] != LIFT_CONSTANTS:
            failures.append(f"lift constants {out['constants']}, expected {LIFT_CONSTANTS}")
        return len(run.items) + 3, failures


# the catalog graphs counted by name, from small to large; a fixed set,
# so that only the order and the relabelings depend on the seed
CATALOG_FORESTS = {
    "K4": 38, "K33": 328, "Y6p": 722, "K6-": 1083, "X7": 2527, "H1": 14381, "H5": 14763,
    "Z2": 58417,
}


@functools.cache
def _golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ``python -m forestry.cli ARGV``, then, in the same process, the
# reference loop; its last stderr line is "speed <ratio> <seconds spent
# after the command>"
CLI_CODE = """\
import runpy, sys
bench, sys.argv = sys.argv[1], ["forestry.cli", *sys.argv[2:]]
try:
    runpy.run_module("forestry.cli", run_name="__main__", alter_sys=True)
finally:
    from time import perf_counter
    t0 = perf_counter()
    sys.stdout.flush()
    sys.path.insert(0, bench)
    from measure import Speed
    speed = Speed()
    speed.sample(3)
    sys.stderr.write("\\nspeed %r %r\\n" % (speed.ratio(), perf_counter() - t0))
"""


class Cli:
    """A closed loop of one client: each command starts when the last ends."""

    name = "cli"
    in_children = True

    def prepare(self, rng):
        golden = _golden()["cli"]
        return [self._commands(rng, golden) for _ in range(CYCLE)]

    @staticmethod
    def _commands(rng, golden):
        # 20 quick commands and 12 that pay the catalog self-check, so the
        # median is a quick command and the tail (rank 22 of 32) a catalog one
        small = ("Petersen", "K5x3")
        commands = []
        for i in range(8):
            n, bundles, forests = GRAPHS[small[i % 2]]
            text = _edge_list_text(n, _relabel(n, bundles, rng))
            commands.append((["count"], text, f"{forests}\n"))
        for _ in range(4):
            n, bundles, forests = GRAPHS["Petersen"]
            commands.append((["count"], _graph6_text(n, _relabel(n, bundles, rng)), f"{forests}\n"))
        for i in range(4):
            n, bundles, _ = GRAPHS[small[i % 2]]
            relabeled = _relabel(n, bundles, rng)
            text = _edge_list_text(n, relabeled)
            commands.append((["trees"], text, f"{kirchhoff_trees(n, relabeled)}\n"))
        for argv in (["constants"], ["ratio"]) * 2:
            commands.append((argv, None, golden[" ".join(argv)]))
        for name in CATALOG_FORESTS:
            commands.append((["count", "--catalog", name], None, f"{CATALOG_FORESTS[name]}\n"))
        for name in ("K4", "K5", "X7", "H2"):
            argv = ["bound", "--catalog", name]
            commands.append((argv, None, golden[" ".join(argv)]))
        rng.shuffle(commands)
        return commands

    def run(self, F, inputs, workdir):
        """Each command's latency in reference seconds, scaled by the speed
        its own process measured after the command was done."""
        root = os.path.dirname(HERE)
        env = child_env(root)
        items = []
        results = []
        for argv, stdin, _ in inputs:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CLI_CODE, HERE, *argv],
                input=stdin or "",
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
                timeout=120,
            )
            latency = perf_counter() - t0
            try:
                _, ratio, extra = proc.stderr.splitlines()[-1].split()
                items.append((latency - float(extra)) / float(ratio))
            except ValueError:  # no speed line: the process died before it
                items.append(latency)
            results.append((proc.returncode, proc.stdout))
        return Run(items, {"results": results, "wall_s": sum(items)})

    def run_traced(self, F, inputs, workdir):
        """The same commands through cli.main in this process."""
        items = []
        results = []
        saved_stdin = sys.stdin
        try:
            for argv, stdin, _ in inputs:
                sys.stdin = io.StringIO(stdin or "")
                out = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = F.cli.main(list(argv))
                items.append(perf_counter() - t0)
                results.append((rc or 0, out.getvalue()))
        finally:
            sys.stdin = saved_stdin
        return Run(items, {"results": results})

    def check(self, F, inputs, run):
        failures = []
        results = run.output["results"]
        for (argv, _, expected), (rc, stdout) in zip(inputs, results):
            if rc != 0 or stdout != expected:
                failures.append(f"{' '.join(argv)}: exit {rc}, stdout {stdout[:60]!r}")
        if len(results) != len(inputs):
            failures.append(f"{len(results)} of {len(inputs)} commands ran")
        return len(inputs), failures


def child_env(root):
    """The environment for a child interpreter that imports forestry from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


WORKLOADS = {w.name: w for w in (Sweep(), Lifts(), Cli())}
