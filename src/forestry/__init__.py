"""Exact spanning-forest and spanning-tree counting on loopless multigraphs.

The package provides the counting engine, lifting operations and their
extremal constants, exact lower-bound comparators for degree-restricted
graphs, ring families and gadget ratios, a named-graph catalog,
exhaustive family generators, theorem sweeps with a persistent run
store, and a command-line front end.

Importing the package loads none of its modules.  The first use of a
name below, or of a module that exports them, goes to the module-level
``__getattr__`` (PEP 562), which imports every such module, binds every
name and then removes itself: the namespace is complete, and CPython
specializes later reads of ``forestry.name`` only on a module without
one.  Any other name is refused at once and leaves the hook in place.  A
module of the package must not ``from . import`` a module of the table:
that asks this namespace for it in the middle of the load.
"""

# module -> the names the package exports from it
_EXPORTS = {
    "multigraph": (
        "MultiGraph", "automorphisms", "canonical_key", "contract_edge", "degree_counts",
        "delete_edge", "from_edge_list", "identify", "is_connected",
    ),
    "counting": (
        "MemoCache", "count_forests", "count_forests_bruteforce", "count_trees",
    ),
    "formats": (
        "format_edge_list", "format_graph6", "parse_edge_list", "parse_graph", "parse_graph6",
    ),
    "bounds": ("BoundExpr", "compare", "p_bound", "q_bound"),
    "rings": (
        "FamilySeries", "Gadget", "RatioReport", "min_ratio_check", "ring_family",
        "table2_check", "upper_bound_fd",
    ),
    "lifts": (
        "LiftConstant", "enumerate_lifts", "lift_constant", "lift_feasible_multigraph",
    ),
    "families": ("enumerate_family", "family_levels"),
    "named": ("CatalogEntry", "catalog", "catalog_entry"),
    "sweep": (
        "SweepRecord", "SweepSummary", "run_store_append", "run_store_resume", "sweep_theorem",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        mod = import_module(f".{module}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    globals().pop("__getattr__", None)
    return globals()[name]
