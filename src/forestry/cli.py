"""Command-line front end.

Eight subcommands share one input convention: a positional file path,
stdin when the path is absent, or --catalog NAME for a built-in graph.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure (a CheckFailed: a sweep violation, a catalog
mismatch or a cross-check disagreement; or a failed table2 check), 2
usage or input errors.  Each handler returns one result, the JSON object without its
"v" and the text lines rendered from that object, and main alone prints
it in the chosen form.  Each command imports the layers it uses when it
runs, so a count on stdin never loads the bounds, rings, lifts,
families, sweeps or catalog, and a --catalog NAME command checks only
that entry and loads the bounds but not the rings.
"""

import argparse
import signal
import sys

from .errors import CheckFailed, ForestryError, InputError

SCHEMA_VERSION = 1  # raised when a JSON field changes meaning


def _degree_set(ns):
    """The degree set that verify --theorem or family --degrees names."""
    tag = ns.degrees if ns.subcommand == "family" else {"1": "23", "2": "234"}[ns.theorem]
    return frozenset(map(int, tag))


def _check_args(ns):
    """Refuse bad arguments before any real work."""
    args = vars(ns)
    if ns.subcommand in ("verify", "family"):
        from .families import DEFAULT_FAMILY_CAPS

        flag, order = ("--max-n", ns.max_n) if ns.subcommand == "verify" else ("--n", ns.n)
        limit = DEFAULT_FAMILY_CAPS[_degree_set(ns)]
        if order is not None and not 3 <= order <= limit:
            raise InputError(f"{flag} must be in 3..{limit}, got {order}")
    if ns.subcommand == "constants" and ns.fd is not None:
        # --max-m and --kind choose lift constants, which --fd does not compute
        for flag in ("max_m", "kind"):
            if args[flag] is not None:
                raise InputError(f"--fd takes no --{flag.replace('_', '-')}")
        from .rings import DEFAULT_FD_CAP

        if not 3 <= ns.fd <= DEFAULT_FD_CAP:
            raise InputError(f"--fd must be in 3..{DEFAULT_FD_CAP}, got {ns.fd}")
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
            # strict UTF-8 as for a file, whatever the locale; a stream
            # without bytes underneath is already text
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    from .formats import parse_graph

    return parse_graph(text)


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
            raise CheckFailed(f"engine counts {forests} forests, brute force {brute}")
    payload = {
        "n": g.n,
        "m": g.m,
        "forests": str(forests),
        "trees": str(trees),
    }
    return payload, [payload["forests" if ns.subcommand == "count" else "trees"]]


def _cmd_bound(ns):
    from .bounds import compare, degree_profile, p_bound, q_bound
    from .counting import count_forests

    g = _load_graph(ns)
    which = ns.which
    if which == "auto":
        which = "q" if degree_profile(g)[2] else "p"
    expr = (p_bound if which == "p" else q_bound)(g)
    forests = count_forests(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "forests": str(forests),
        "which": which,
        "bound": str(expr),
        "verdict": compare(forests, expr),
    }
    return payload, [f"{key} {payload[key]}" for key in ("forests", "bound", "verdict")]


def _cmd_verify(ns):
    from .families import DEFAULT_FAMILY_CAPS
    from .named import catalog_names
    from .sweep import sweep_theorem

    n_max = ns.max_n or DEFAULT_FAMILY_CAPS[_degree_set(ns)]
    summary = sweep_theorem("T" + ns.theorem, n_max, store=ns.store, resume=ns.resume)
    # keying the catalog costs 28 canonical searches, so only when there is a graph to name
    names = catalog_names() if summary.violations or summary.equalities else {}
    payload = {
        "theorem": ns.theorem,
        "family": summary.family,
        "n_max": summary.n_max,
        "checked": summary.checked,
        "skipped": summary.skipped,
    }
    lines = [
        f"theorem {payload['theorem']}  family {payload['family']}  max n {payload['n_max']}",
        f"checked {payload['checked']}  skipped {payload['skipped']}",
    ]
    for kind in ("violations", "equalities"):
        payload[kind] = [
            {"n": n, "key": key.hex(), "name": names.get(key)} for n, key in getattr(summary, kind)
        ]
        shown = ", ".join(f"{o['name'] or o['key']} (n={o['n']})" for o in payload[kind])
        lines.append(f"{kind} {len(payload[kind])}" + (f": {shown}" if shown else ""))
    return payload, lines


def _cmd_family(ns):
    from .families import enumerate_family
    from .formats import format_graph6

    members = [format_graph6(g) for g in enumerate_family(ns.n, _degree_set(ns))]
    payload = {
        "family": ns.degrees,
        "n": ns.n,
        "count": len(members),
        "members": members,
    }
    return payload, members


def _radical_text(rb):
    if rb.inner == 1:
        return str(rb.outer)
    root = f"{rb.inner}^(1/{rb.index})"
    return root if rb.outer == 1 else f"{rb.outer} * {root}"


def _cmd_constants(ns):
    if ns.fd is not None:
        from .rings import upper_bound_fd

        rb = upper_bound_fd(ns.fd)
        payload = {
            "d": ns.fd,
            "radicand": rb.radicand,
            "index": rb.index,
            "outer": rb.outer,
            "inner": rb.inner,
            "value": rb.value(),
        }
        plain = f"{rb.radicand}^(1/{rb.index})"
        factored = _radical_text(rb)
        middle = "" if factored == plain else f" = {plain}"
        return payload, [f"d {ns.fd}  ceiling {factored}{middle} = {payload['value']:.10f}"]
    from .lifts import lift_constant

    kinds = (ns.kind,) if ns.kind in ("forests", "trees") else ("forests", "trees")
    constants = [lift_constant(m, kind) for m in range(1, (ns.max_m or 3) + 1) for kind in kinds]
    rows = [
        {
            "m": c.m,
            "kind": c.kind,
            "value": str(c.value),
            "degrees": c.degrees,
            "witness_n": c.witness.n,
            "witness_edges": c.witness.edge_list(),
        }
        for c in constants
    ]
    lines = [
        f"m {r['m']}  {r['kind']:<7}  value {r['value']:<6}"
        f"  witness n={r['witness_n']} edges "
        + " ".join(f"{u}-{v}" for u, v in r["witness_edges"])
        for r in rows
    ]
    return {"constants": rows}, lines


def _ratio_suites():
    from .rings import Gadget
    from .multigraph import from_edge_list

    triangle = Gadget(from_edge_list(3, [(0, 1), (0, 2), (1, 2)]), (0, 1, 2))
    return {
        "double-star": (
            Gadget(from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]), (2, 3, 4, 5)),
            Gadget(from_edge_list(4, [(0, 1), (2, 3)]), (0, 1, 2, 3)),
        ),
        "tailed-diamond": (
            Gadget(
                from_edge_list(5, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)]),
                (0, 1, 4),
            ),
            triangle,
        ),
        "diamond": (
            Gadget(from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), (0, 1, 2)),
            triangle,
        ),
    }


def _partition_text(part):
    return "|".join(",".join(str(i) for i in block) for block in part)


def _cmd_ratio(ns):
    """Every chosen suite; a failed table2 check comes back as a third item."""
    from .rings import min_ratio_check, table2_check

    suites = _ratio_suites()
    chosen = list(suites) + ["table2"] if ns.suite == "all" else [ns.suite]
    payloads = []
    lines = []
    failure = []
    for name in chosen:
        lines.append(f"suite {name}")
        if name == "table2":
            report = table2_check()
            payload = {
                "suite": name,
                "rows": [
                    {
                        "partition": row.partition,
                        "computed": [str(x) for x in row.computed],
                        "expected": [str(x) for x in row.expected],
                        "ok": row.ok,
                    }
                    for row in report.rows
                ],
                "ok": report.ok,
            }
            for row in payload["rows"]:
                cells = " ".join(row["computed"])
                mark = "ok" if row["ok"] else "MISMATCH"
                lines.append(f"  {_partition_text(row['partition']):<9} {cells:<14} {mark}")
            lines.append(f"  all rows {'match' if payload['ok'] else 'DO NOT match'}")
            if not payload["ok"]:
                failure = ["table2 expectations failed"]
        else:
            report = min_ratio_check(*suites[name])
            payload = {
                "suite": name,
                "rows": [
                    {
                        "partition": row.partition,
                        "numerator": str(row.numerator),
                        "denominator": str(row.denominator),
                        "ratio": str(row.ratio),
                    }
                    for row in report.rows
                ],
                "min": str(report.min_ratio),
                "argmin": report.argmin,
                "zero_rows": [row.partition for row in report.zero_rows],
            }
            for row in payload["rows"]:
                part = _partition_text(row["partition"])
                lines.append(f"  {part:<9} {row['numerator']}/{row['denominator']}")
            lines.append(f"  min {payload['min']} at {_partition_text(payload['argmin'])}")
        payloads.append(payload)
    return {"suites": payloads}, lines, *failure


def _cmd_catalog(ns):
    from .counting import count_trees
    from .formats import format_edge_list
    from .named import catalog, catalog_entry

    entries = catalog() if ns.name is None else [catalog_entry(ns.name)]
    # the table and the edge lists show no tree count, so text skips them there
    with_trees = ns.output == "json" or (ns.name is not None and not ns.emit_edgelist)
    payloads = []
    for e in entries:
        obj = {
            "name": e.name,
            "summary": e.summary,
            "n": e.graph.n,
            "m": e.graph.m,
            "forests": str(e.forests),
            "trees": str(count_trees(e.graph)) if with_trees else None,
            "degree_counts": e.degree_counts,
            "bound": str(e.bound),
            "holds": e.holds,
        }
        if ns.emit_edgelist:
            obj["edges"] = e.graph.edge_list()
        payloads.append(obj)
    if ns.emit_edgelist:
        lines = [
            line
            for e in entries
            for line in (f"# {e.name}", *format_edge_list(e.graph).splitlines())
        ]
    elif ns.name is not None:
        (obj,) = payloads
        n2, n3, n4 = obj["degree_counts"]
        lines = [
            f"name {obj['name']}",
            f"summary {obj['summary']}",
            f"vertices {obj['n']}",
            f"edges {obj['m']}",
            f"forests {obj['forests']}",
            f"trees {obj['trees']}",
            f"degrees 2:{n2} 3:{n3} 4:{n4}",
            f"bound {obj['bound']}",
            f"holds {'yes' if obj['holds'] else 'no'}",
        ]
    else:
        lines = [f"{'name':<6} {'n':>2} {'m':>2} {'forests':>8}  {'bound':<18} holds"]
        lines += [
            f"{o['name']:<6} {o['n']:>2} {o['m']:>2} {o['forests']:>8}"
            f"  {o['bound']:<18} {'yes' if o['holds'] else 'no'}"
            for o in payloads
        ]
    return {"entries": payloads}, lines


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
        help="largest order to sweep, 3..12 for theorem 1 and 3..9 for"
        " theorem 2 (default: the largest)",
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
    p.add_argument(
        "--n",
        type=int,
        required=True,
        help="number of vertices, 3..12 for degrees 23 and 3..9 for 234",
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
        payload, lines, *failure = _DISPATCH[ns.subcommand](ns)
        if ns.output == "json":
            import json

            print(json.dumps({"v": SCHEMA_VERSION, **payload}, sort_keys=True))
        else:
            for line in lines:
                print(line)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ForestryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure:
        print(f"error: {failure[0]}", file=sys.stderr)
        return 1
    return 0


def entry():
    # a reader that stops early, as in `forestry catalog | head`, ends us quietly
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # a count can pass the 4300 digits that str() of an int allows by
    # default (2^14999 for a 15000-vertex path); the limit belongs to the
    # process, so it is lifted where the process starts and a caller of
    # main keeps its own
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is not None:
        set_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    entry()
