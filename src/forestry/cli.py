"""Command-line front end.

Eight subcommands share one input convention: a positional file path,
stdin when the path is absent, or --catalog NAME for a built-in graph.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure (a sweep violation, a catalog mismatch, or a
cross-check disagreement), 2 usage or input errors.  Each command
imports the layers it uses when it runs, so a count on stdin never
loads the bounds, rings, lifts, families, sweeps or catalog, and a
--catalog NAME command checks only that entry and loads the bounds but
not the rings.
"""

import argparse
import signal
import sys

from .errors import CatalogMismatch, ForestryError, InputError, ViolationFound

SCHEMA_VERSION = 1  # raised when a JSON field changes meaning


def _check_args(ns):
    """Refuse bad arguments before any real work."""
    args = vars(ns)
    for flag, low in (("max_n", 3), ("family_cap", 3), ("n", 3)):
        if args.get(flag) is not None and args[flag] < low:
            name = "--" + flag.replace("_", "-")
            raise InputError(f"{name} must be at least {low}, got {args[flag]}")
    if ns.subcommand == "constants" and ns.fd is not None:
        # --max-m and --kind choose lift constants, which --fd does not compute
        for flag in ("max_m", "kind"):
            if args[flag] is not None:
                raise InputError(f"--fd takes no --{flag.replace('_', '-')}")
    if args.get("max_m") is not None:
        from .lifts import DEFAULT_CONSTANT_CAP as cap

        if not 1 <= ns.max_m <= cap:
            raise InputError(f"--max-m must be in 1..{cap}, got {ns.max_m}")
    if args.get("catalog") is not None and args["path"] is not None:
        raise InputError("give a file path or --catalog, not both")


def _load_graph(ns):
    if ns.catalog is not None:
        from .named import catalog_entry

        return catalog_entry(ns.catalog).graph
    try:
        if ns.path is not None:
            with open(ns.path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    from .formats import parse_graph

    return parse_graph(text)


def _emit_json(obj):
    import json

    print(json.dumps(obj, sort_keys=True))


def _cmd_count(ns):
    """count and trees: text shows the one count, JSON both."""
    from .counting import count_forests, count_forests_bruteforce, count_trees

    g = _load_graph(ns)
    json_mode = ns.output == "json"
    forests = count_forests(g) if json_mode or ns.subcommand == "count" else None
    trees = count_trees(g) if json_mode or ns.subcommand == "trees" else None
    if getattr(ns, "cross_check", False):
        brute = count_forests_bruteforce(g)
        if brute != forests:
            print(
                f"error: engine counts {forests} forests, brute force {brute}",
                file=sys.stderr,
            )
            return 1
    if json_mode:
        _emit_json(
            {
                "v": SCHEMA_VERSION,
                "n": g.n,
                "m": g.m,
                "forests": str(forests),
                "trees": str(trees),
            }
        )
    else:
        print(forests if ns.subcommand == "count" else trees)
    return 0


def _cmd_bound(ns):
    from .bounds import compare, degree_profile, p_bound, q_bound
    from .counting import count_forests

    g = _load_graph(ns)
    which = ns.which
    if which == "auto":
        which = "q" if degree_profile(g)[2] else "p"
    expr = (p_bound if which == "p" else q_bound)(g)
    forests = count_forests(g)
    verdict = compare(forests, expr)
    if ns.output == "json":
        _emit_json(
            {
                "v": SCHEMA_VERSION,
                "n": g.n,
                "m": g.m,
                "forests": str(forests),
                "which": which,
                "bound": str(expr),
                "verdict": verdict,
            }
        )
    else:
        print(f"forests {forests}")
        print(f"bound {expr}")
        print(f"verdict {verdict}")
    return 0


def _key_names():
    from .multigraph import canonical_key
    from .named import catalog

    names = {}
    for entry in catalog():
        names.setdefault(canonical_key(entry.graph), entry.name)
    return names


def _outcome_list(pairs, names):
    return [
        {"n": n, "key": key.hex(), "name": names.get(key)} for n, key in pairs
    ]


def _outcome_text(pairs, names):
    shown = [
        f"{names.get(key, key.hex())} (n={n})" for n, key in pairs
    ]
    return ", ".join(shown)


def _cmd_verify(ns):
    from .families import DEFAULT_FAMILY_CAPS
    from .sweep import THEOREMS, sweep_theorem

    theorem = "T" + ns.theorem
    degree_set = THEOREMS[theorem][0]
    n_max = ns.max_n or ns.family_cap or DEFAULT_FAMILY_CAPS[frozenset(degree_set)]
    summary = sweep_theorem(
        theorem, n_max, store=ns.store, resume=ns.resume, cap=ns.family_cap
    )
    names = _key_names()
    if ns.output == "json":
        _emit_json(
            {
                "v": SCHEMA_VERSION,
                "theorem": ns.theorem,
                "family": summary.family,
                "n_max": summary.n_max,
                "checked": summary.checked,
                "skipped": summary.skipped,
                "violations": _outcome_list(summary.violations, names),
                "equalities": _outcome_list(summary.equalities, names),
            }
        )
    else:
        print(f"theorem {ns.theorem}  family {summary.family}  max n {summary.n_max}")
        print(f"checked {summary.checked}  skipped {summary.skipped}")
        v = _outcome_text(summary.violations, names)
        e = _outcome_text(summary.equalities, names)
        print(f"violations {len(summary.violations)}" + (f": {v}" if v else ""))
        print(f"equalities {len(summary.equalities)}" + (f": {e}" if e else ""))
    return 0


def _cmd_family(ns):
    from .families import enumerate_family
    from .formats import format_graph6

    degree_set = {"23": (2, 3), "234": (2, 3, 4)}[ns.degrees]
    members = enumerate_family(ns.n, degree_set, cap=ns.family_cap)
    lines = [format_graph6(g) for g in members]
    if ns.output == "json":
        _emit_json(
            {
                "v": SCHEMA_VERSION,
                "family": ns.degrees,
                "n": ns.n,
                "count": len(lines),
                "members": lines,
            }
        )
    else:
        for line in lines:
            print(line)
    return 0


def _edges_text(g):
    return " ".join(f"{u}-{v}" for u, v in g.edge_list())


def _radical_text(rb):
    if rb.inner == 1:
        return str(rb.outer)
    root = f"{rb.inner}^(1/{rb.index})"
    return root if rb.outer == 1 else f"{rb.outer} * {root}"


def _cmd_constants(ns):
    if ns.fd is not None:
        from .rings import upper_bound_fd

        rb = upper_bound_fd(ns.fd)
        if ns.output == "json":
            _emit_json(
                {
                    "v": SCHEMA_VERSION,
                    "d": ns.fd,
                    "radicand": rb.radicand,
                    "index": rb.index,
                    "outer": rb.outer,
                    "inner": rb.inner,
                    "value": rb.value(),
                }
            )
        else:
            plain = f"{rb.radicand}^(1/{rb.index})"
            factored = _radical_text(rb)
            middle = "" if factored == plain else f" = {plain}"
            print(f"d {ns.fd}  ceiling {factored}{middle} = {rb.value():.10f}")
        return 0
    from .lifts import lift_constant

    kinds = (ns.kind,) if ns.kind in ("forests", "trees") else ("forests", "trees")
    rows = [
        lift_constant(m, kind)
        for m in range(1, (ns.max_m or 3) + 1)
        for kind in kinds
    ]
    if ns.output == "json":
        _emit_json(
            {
                "v": SCHEMA_VERSION,
                "constants": [
                    {
                        "m": c.m,
                        "kind": c.kind,
                        "value": str(c.value),
                        "degrees": list(c.degrees),
                        "witness_n": c.witness.n,
                        "witness_edges": [list(e) for e in c.witness.edge_list()],
                    }
                    for c in rows
                ],
            }
        )
    else:
        for c in rows:
            print(
                f"m {c.m}  {c.kind:<7}  value {str(c.value):<6}"
                f"  witness n={c.witness.n} edges {_edges_text(c.witness)}"
            )
    return 0


def _ratio_suites():
    from .rings import Gadget
    from .multigraph import from_edge_list

    double_star = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    two_edges = from_edge_list(4, [(0, 1), (2, 3)])
    diamond = from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    tailed = from_edge_list(
        5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)]
    )
    triangle = from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
    return {
        "double-star": (
            Gadget(double_star, (2, 3, 4, 5)),
            Gadget(two_edges, (0, 1, 2, 3)),
        ),
        "tailed-diamond": (
            Gadget(tailed, (0, 1, 4)),
            Gadget(triangle, (0, 1, 2)),
        ),
        "diamond": (
            Gadget(diamond, (0, 1, 2)),
            Gadget(triangle, (0, 1, 2)),
        ),
    }


def _partition_text(part):
    return "|".join(",".join(str(i) for i in block) for block in part)


def _partition_list(part):
    return [list(block) for block in part]


def _ratio_payload(name, report):
    return {
        "suite": name,
        "rows": [
            {
                "partition": _partition_list(row.partition),
                "numerator": str(row.numerator),
                "denominator": str(row.denominator),
                "ratio": str(row.ratio),
            }
            for row in report.rows
        ],
        "min": str(report.min_ratio),
        "argmin": _partition_list(report.argmin),
        "zero_rows": [_partition_list(row.partition) for row in report.zero_rows],
    }


def _table2_payload(report):
    return {
        "suite": "table2",
        "rows": [
            {
                "partition": _partition_list(row.partition),
                "computed": [str(x) for x in row.computed],
                "expected": [str(x) for x in row.expected],
                "ok": row.ok,
            }
            for row in report.rows
        ],
        "ok": report.ok,
    }


def _cmd_ratio(ns):
    from .rings import min_ratio_check, table2_check

    suites = _ratio_suites()
    chosen = list(suites) + ["table2"] if ns.suite == "all" else [ns.suite]
    payloads = []
    failed = False
    for name in chosen:
        if name == "table2":
            report = table2_check()
            payloads.append(_table2_payload(report))
            failed = failed or not report.ok
        else:
            a, b = suites[name]
            payloads.append(_ratio_payload(name, min_ratio_check(a, b)))
    if ns.output == "json":
        _emit_json({"v": SCHEMA_VERSION, "suites": payloads})
    else:
        for payload in payloads:
            print(f"suite {payload['suite']}")
            if payload["suite"] == "table2":
                for row in payload["rows"]:
                    part = _partition_text(row["partition"])
                    cells = " ".join(row["computed"])
                    mark = "ok" if row["ok"] else "MISMATCH"
                    print(f"  {part:<9} {cells:<14} {mark}")
                print(f"  all rows {'match' if payload['ok'] else 'DO NOT match'}")
            else:
                for row in payload["rows"]:
                    part = _partition_text(row["partition"])
                    print(f"  {part:<9} {row['numerator']}/{row['denominator']}")
                where = _partition_text(payload["argmin"])
                print(f"  min {payload['min']} at {where}")
    if failed:
        print("error: table2 expectations failed", file=sys.stderr)
        return 1
    return 0


def _cmd_catalog(ns):
    from .counting import count_trees
    from .formats import format_edge_list
    from .named import catalog, catalog_entry

    entries = catalog() if ns.name is None else [catalog_entry(ns.name)]
    if ns.output == "json":
        out = []
        for e in entries:
            obj = {
                "name": e.name,
                "summary": e.summary,
                "n": e.graph.n,
                "m": e.graph.m,
                "forests": str(e.forests),
                "trees": str(count_trees(e.graph)),
                "degree_counts": list(e.degree_counts),
                "bound": str(e.bound),
                "holds": e.holds,
            }
            if ns.emit_edgelist:
                obj["edges"] = [list(p) for p in e.graph.edge_list()]
            out.append(obj)
        _emit_json({"v": SCHEMA_VERSION, "entries": out})
        return 0
    if ns.emit_edgelist:
        for e in entries:
            print(f"# {e.name}")
            sys.stdout.write(format_edge_list(e.graph))
        return 0
    if ns.name is not None:
        e = entries[0]
        print(f"name {e.name}")
        print(f"summary {e.summary}")
        print(f"vertices {e.graph.n}")
        print(f"edges {e.graph.m}")
        print(f"forests {e.forests}")
        print(f"trees {count_trees(e.graph)}")
        n2, n3, n4 = e.degree_counts
        print(f"degrees 2:{n2} 3:{n3} 4:{n4}")
        print(f"bound {e.bound}")
        print(f"holds {'yes' if e.holds else 'no'}")
        return 0
    print(f"{'name':<6} {'n':>2} {'m':>2} {'forests':>8}  {'bound':<18} holds")
    for e in entries:
        print(
            f"{e.name:<6} {e.graph.n:>2} {e.graph.m:>2} {e.forests:>8}"
            f"  {str(e.bound):<18} {'yes' if e.holds else 'no'}"
        )
    return 0


_DISPATCH = {
    "count": _cmd_count,
    "trees": _cmd_count,
    "bound": _cmd_bound,
    "verify": _cmd_verify,
    "family": _cmd_family,
    "constants": _cmd_constants,
    "ratio": _cmd_ratio,
    "catalog": _cmd_catalog,
}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="output mode (default: text)",
    )

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument(
        "path",
        nargs="?",
        default=None,
        help="input file (edge list or graph6); stdin when absent",
    )
    graph_in.add_argument(
        "--catalog",
        default=None,
        metavar="NAME",
        help="use the named built-in graph instead of reading input",
    )

    top = argparse.ArgumentParser(
        prog="forestry",
        description="Exact spanning-forest and spanning-tree counts,"
        " lower-bound checks, and exhaustive verification sweeps.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser(
        "count",
        parents=[common, graph_in],
        help="number of spanning forests",
    )
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also count by brute-force edge-subset enumeration"
        " (refused beyond 24 edges)",
    )

    sub.add_parser(
        "trees",
        parents=[common, graph_in],
        help="number of spanning trees",
    )

    p = sub.add_parser(
        "bound",
        parents=[common, graph_in],
        help="compare the forest count against its lower bound",
    )
    p.add_argument(
        "--which",
        choices=("auto", "p", "q"),
        default="auto",
        help="p needs degrees in {2,3}, q in {2,3,4};"
        " auto picks p when it applies (default: auto)",
    )

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="sweep a whole degree family against its bound",
    )
    p.add_argument(
        "--theorem",
        choices=("1", "2"),
        required=True,
        help="1: {2,3} degrees vs p; 2: {2,3,4} degrees vs q",
    )
    p.add_argument(
        "--max-n",
        type=int,
        default=None,
        metavar="N",
        help="largest order to sweep (default: the family cap)",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="append one JSON line per graph to PATH",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="skip graphs already recorded in --store",
    )
    p.add_argument(
        "--family-cap",
        type=int,
        default=None,
        metavar="N",
        help="raise the family order cap (default: 12 for theorem 1, 9 for 2)",
    )

    p = sub.add_parser(
        "family",
        parents=[common],
        help="list the connected graphs of one order in a degree family",
    )
    p.add_argument(
        "--degrees",
        choices=("23", "234"),
        required=True,
        help="allowed vertex degrees",
    )
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument(
        "--family-cap",
        type=int,
        default=None,
        metavar="N",
        help="raise the family order cap",
    )

    p = sub.add_parser(
        "constants",
        parents=[common],
        help="extremal lift-drop constants, or a regular-family growth ceiling",
    )
    p.add_argument(
        "--max-m",
        type=int,
        default=None,
        metavar="M",
        help="compute constants for half-degrees 1..M (default: 3)",
    )
    p.add_argument(
        "--kind",
        choices=("forests", "trees", "both"),
        default=None,
        help="which count the constant governs (default: both)",
    )
    p.add_argument(
        "--fd",
        type=int,
        default=None,
        metavar="D",
        help="print the D-regular per-vertex growth ceiling instead",
    )

    p = sub.add_parser(
        "ratio",
        parents=[common],
        help="worst-case extension-count ratios for the gadget suites",
    )
    p.add_argument(
        "--suite",
        choices=("double-star", "tailed-diamond", "diamond", "table2", "all"),
        default="all",
        help="which suite to run (default: all)",
    )

    p = sub.add_parser(
        "catalog",
        parents=[common],
        help="the built-in named graphs with their counts and bounds",
    )
    p.add_argument("--name", default=None, help="show a single entry")
    p.add_argument(
        "--emit-edgelist",
        action="store_true",
        help="print parseable edge lists",
    )

    return top


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_args(ns)
        return _DISPATCH[ns.subcommand](ns)
    except (ViolationFound, CatalogMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ForestryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    # a reader that stops early, as in `forestry catalog | head`, ends us quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
