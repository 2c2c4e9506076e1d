"""The package namespace loads lazily, and a command imports only its layers.

Each check runs in a fresh interpreter, since this one has long since
loaded every module.  A site ``.pth`` file may import standard-library
modules before any of ours, so a check on those compares ``sys.modules``
before and after the code it runs.
"""

import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import forestry
from forestry.errors import InputError

EXPORTS = {
    "automorphisms", "BoundExpr", "canonical_key", "catalog", "catalog_entry",
    "CatalogEntry", "compare", "contract_edge", "count_forests",
    "count_forests_bruteforce", "count_trees", "degree_counts", "delete_edge",
    "enumerate_family", "enumerate_lifts", "family_levels", "FamilySeries",
    "format_edge_list", "format_graph6", "from_edge_list", "Gadget", "identify",
    "is_connected", "lift_constant", "lift_feasible_multigraph", "LiftConstant",
    "MemoCache", "min_ratio_check", "MultiGraph", "p_bound", "parse_edge_list",
    "parse_graph", "parse_graph6", "q_bound", "RatioReport", "ring_family",
    "run_store_append", "run_store_resume", "sweep_theorem", "SweepRecord",
    "SweepSummary", "table2_check", "upper_bound_fd",
}
ROOT = Path(__file__).resolve().parent.parent


def _python(*args, stdin=""):
    proc = subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def _loaded(code):
    """The forestry modules loaded once `code` has run in a fresh interpreter."""
    code += "\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('forestry'))))"
    return set(_python("-c", "import sys\n" + code)[0].split())


def test_the_package_exports_the_same_names():
    assert len(EXPORTS) == 43
    assert _loaded("import forestry\nassert set(forestry.__all__) == %r" % EXPORTS) == {
        "forestry"
    }


def _names_used(path):
    """Every name, attribute and imported name that the file mentions in code."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def _caller_files():
    # a caller is another module of the package, the benchmark or the
    # acceptance file; what only its own unit tests use is not kept
    files = [p for p in sorted((ROOT / "src" / "forestry").glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


def test_every_export_has_a_caller():
    used = set().union(*map(_names_used, _caller_files()))
    unused = sorted(set(forestry.__all__) - used)
    assert not unused, f"exported, but nothing calls: {unused}"


def test_every_defaulted_parameter_has_a_caller():
    # a default that no caller overrides is a constant, not a setting
    defaulted = {}
    for path in sorted((ROOT / "src" / "forestry").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                params = [p.arg for p in a.posonlyargs + a.args]
                # each defaulted parameter with the position that passes it
                for i in range(len(params) - len(a.defaults), len(params)):
                    defaulted[(node.name, params[i])] = i
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        defaulted[(node.name, p.arg)] = math.inf
    passed = set()
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = getattr(node.func, "id", getattr(node.func, "attr", None))
                given = {k.arg for k in node.keywords}
                for (fname, name), pos in defaulted.items():
                    if fname == func and (name in given or pos < len(node.args)):
                        passed.add((fname, name))
    unset = sorted(f"{f}({p}=)" for f, p in set(defaulted) - passed)
    assert not unset, f"defaulted, but no caller sets: {unset}"


# (module, function) of the two raises that report a defect, not bad input
DEFECT_SITES = [("counting.py", "insert"), ("rings.py", "ring_family")]
# one class per outcome: InputError exits 2, CheckFailed exits 1, the run
# store skips a CorruptRecord line
OUTCOMES = ["ForestryError", "InputError", "CheckFailed", "IoError", "CorruptRecord"]
SRC = ROOT / "src" / "forestry"


def _raises(path):
    """(file, enclosing function, class) of each `raise` that names a class."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = getattr(child.exc, "func", child.exc)
                found.append((path.name, where, getattr(exc, "id", None)))
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_refusal_is_a_forestry_error():
    # the CLI maps CheckFailed to exit 1 and any other ForestryError to exit 2,
    # so a stdlib error raised on purpose would print a traceback; only the
    # defect reports, and the AttributeError that a __getattr__ must raise, may
    sites = sorted(site for path in SRC.glob("*.py") for site in _raises(path))
    others = [site for site in sites if site[2] not in OUTCOMES]
    allowed = [("__init__.py", "__getattr__", "AttributeError")]
    allowed += [(f, fn, "ValueError") for f, fn in DEFECT_SITES]
    assert others == allowed, f"raised besides the five: {sorted(set(others) - set(allowed))}"
    cli_names = _names_used(SRC / "cli.py")
    assert cli_names.isdisjoint({"ValueError", "KeyError", "_resolve_catalog"})


@pytest.mark.parametrize(
    "call",
    [
        lambda: forestry.upper_bound_fd("3"),
        lambda: forestry.upper_bound_fd(4.0),
        lambda: next(forestry.family_levels(None, 5)),
        lambda: forestry.enumerate_family(5, 23),
        lambda: forestry.from_edge_list(3, None),
        lambda: forestry.sweep_theorem(["T1"], 5),
        lambda: forestry.catalog_entry(["K4"]),
        lambda: forestry.ring_family(forestry.catalog_entry("K4").graph, 0, 1, 5),
        lambda: forestry.parse_graph(b"2 1\n0 1"),
    ],
    ids=["fd-str", "fd-float", "levels-none", "family-int", "edges-none", "theorem-list",
         "catalog-list", "ring-int", "parse-bytes"],
)
def test_a_wrong_typed_argument_is_an_input_error(call):
    # each failed in the standard library with a TypeError before it was checked
    with pytest.raises(InputError):
        call()


def test_errors_defines_only_the_five_outcomes():
    # a class or an alias beside the five would be a second name for an exit code
    tree = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    defined = [n.name for n in tree.body if isinstance(n, ast.ClassDef)]
    defined += [t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets]
    assert defined == OUTCOMES, f"besides the five: {sorted(set(defined) - set(OUTCOMES))}"


def _writes_output(node):
    """Whether the node prints, writes to sys.stdout, imports json or names SCHEMA_VERSION."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) == "print"
    if isinstance(node, ast.Attribute):
        return node.attr == "stdout" and getattr(node.value, "id", None) == "sys"
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return "json" in {a.name for a in node.names} or getattr(node, "module", None) == "json"
    return isinstance(node, ast.Name) and node.id == "SCHEMA_VERSION"


def test_only_main_writes_a_result():
    # each handler returns its result, and main renders it as text or JSON,
    # so the two forms of one answer cannot drift apart
    tree = ast.parse((ROOT / "src" / "forestry" / "cli.py").read_text(encoding="utf-8"))
    handlers = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("_cmd_")]
    assert len(handlers) >= 7
    writers = sorted({f.name for f in handlers for node in ast.walk(f) if _writes_output(node)})
    assert not writers, f"these handlers write their own output: {writers}"


# what CPython needs before it specializes reads of forestry.name: a plain
# module whose namespace holds no __getattr__
PLAIN = (
    "\nimport forestry, types\nassert type(forestry) is types.ModuleType"
    "\nassert '__getattr__' not in vars(forestry)"
)
TABLE = {f"forestry.{module}" for module in forestry._EXPORTS}


def test_the_hook_loads_on_first_use_and_then_removes_itself():
    assert len(TABLE) == 9
    before = "import forestry\nassert '__getattr__' in vars(forestry)"
    assert _loaded(before) == {"forestry"}
    code = "import forestry\nforestry.catalog()" + PLAIN
    code += "\nassert all(n in vars(forestry) for n in %r)" % EXPORTS
    code += "\nassert all(getattr(forestry, m) is sys.modules['forestry.' + m] for m in %r)" % (
        sorted(forestry._EXPORTS),
    )
    assert TABLE <= _loaded(code)


def test_an_unknown_name_is_refused_without_loading_anything():
    code = "import forestry\nassert not hasattr(forestry, 'no_such_name')"
    # the refusal leaves the hook for the first real use
    code += "\nassert '__getattr__' in vars(forestry)"
    assert _loaded(code) == {"forestry"}


def test_a_star_import_binds_every_name_and_leaves_a_plain_module():
    code = "from forestry import *\nassert all(n in globals() for n in %r)" % EXPORTS
    assert TABLE <= _loaded(code + PLAIN)


def _package_imports(path):
    """The names that the file imports from the package's own namespace."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
            (node.level == 1 and node.module is None)
            or (node.level == 0 and node.module == "forestry")
        ):
            names.update(alias.name for alias in node.names)
    return names


def test_no_module_imports_the_table_from_the_package():
    # such an import, run while the hook loads the table, would ask the hook
    # again and bind names from modules that are still half loaded
    exported = set(forestry._EXPORTS) | set(forestry.__all__)
    found = {p.name: _package_imports(p) & exported for p in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), {k: sorted(v) for k, v in found.items() if v}
    assert _package_imports(SRC / "multigraph.py") == {"canon"}  # not in the table


def test_every_file_parses_at_the_requires_python_floor():
    # only the CI leg on the floor would otherwise catch syntax newer than it
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    version = (int(floor[1]), int(floor[2]))
    files = [p for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))]
    assert len(files) > 25
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_a_module_of_the_table_loads_the_namespace():
    code = "import forestry\nassert forestry.sweep.__name__ == 'forestry.sweep'"
    assert "forestry.named" in _loaded(code)


def test_catalog_stays_a_function_after_a_submodule_import():
    out, _ = _python(
        "-c", "import forestry.sweep\nimport forestry\nprint(len(forestry.catalog()))"
    )
    assert out == "29\n"


def _cli_imports(*argv, stdin=""):
    """stdout of `forestry ARGV` and the modules it adds to sys.modules.

    sys.modules, not ``-X importtime``: the package's first-use hook loads
    its modules through importlib, which ``-X importtime`` does not report.
    """
    code = (
        "import runpy, sys\n"
        "before = set(sys.modules)\n"
        "sys.argv = ['forestry', *%r]\n"
        "try:\n"
        "    runpy.run_module('forestry.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    sys.stderr.write('\\n' + ' '.join(set(sys.modules) - before))\n"
    ) % (argv,)
    out, err = _python("-c", code, stdin=stdin)
    return out, set(err.splitlines()[-1].split())


@pytest.mark.parametrize("stdin", ["3 3\n0 1\n1 2\n0 2\n", "Bw\n"])
def test_a_stdin_count_loads_no_other_layer(stdin):
    out, loaded = _cli_imports("count", stdin=stdin)
    assert out == "7\n"
    assert "forestry.counting" in loaded
    unused = ("bounds", "rings", "lifts", "families", "sweep", "named")
    assert loaded.isdisjoint(f"forestry.{name}" for name in unused)


@pytest.mark.parametrize(
    "argv, first",
    [(("count", "--catalog", "K4"), "38"), (("bound", "--catalog", "H2"), "forests 52485")],
)
def test_a_catalog_command_loads_the_bounds_but_not_the_rings(argv, first):
    out, loaded = _cli_imports(*argv)
    assert out.splitlines()[0] == first
    assert {"forestry.named", "forestry.bounds"} <= loaded
    unused = ("rings", "lifts", "families", "sweep")
    assert loaded.isdisjoint(f"forestry.{name}" for name in unused)


def test_a_family_command_loads_neither_the_counting_layer_nor_the_catalog():
    out, loaded = _cli_imports("family", "--degrees", "23", "--n", "4")
    assert len(out.splitlines()) == 3
    assert "forestry.families" in loaded
    assert loaded.isdisjoint({"forestry.counting", "forestry.named"})


def test_a_ratio_command_loads_the_rings():
    out, loaded = _cli_imports("ratio", "--suite", "diamond")
    assert out.startswith("suite diamond\n")
    assert "forestry.rings" in loaded


# standard-library modules that no record type or one-shot command needs;
# dataclasses brings inspect along
FIRST_USE_SKIPS = {"dataclasses", "inspect", "logging", "json"}


def test_first_use_loads_no_dataclasses_logging_or_json():
    code = (
        "before = set(sys.modules)\nimport forestry\nforestry.catalog()\n"
        "print(' '.join(set(sys.modules) - before))"
    )
    added = set(_python("-c", "import sys\n" + code)[0].split())
    assert "forestry.sweep" in added
    assert added.isdisjoint(FIRST_USE_SKIPS)
    out, added = _cli_imports("count", "--catalog", "K4")
    assert out == "38\n" and "forestry.named" in added
    assert added.isdisjoint(FIRST_USE_SKIPS)
