"""Exact spanning-forest and spanning-tree counting on loopless multigraphs.

The package provides the counting engine, lifting operations and their
extremal constants, exact lower-bound comparators for degree-restricted
graphs, a named-graph catalog, exhaustive family generators, theorem
sweeps with a persistent run store, and a command-line front end.
"""

from .bounds import (
    BoundExpr,
    FamilySeries,
    Gadget,
    RatioReport,
    compare,
    girth_limit,
    min_ratio_check,
    p_bound,
    q_bound,
    ring_family,
    table2_check,
    upper_bound_fd,
)
from .catalog import CatalogEntry, catalog, catalog_entry
from .families import enumerate_family, family_levels
from .counting import (
    MemoCache,
    count_forests,
    count_forests_bruteforce,
    count_forests_separating,
    count_trees,
    extension_count,
)
from .formats import format_edge_list, format_graph6, parse_edge_list, parse_graph, parse_graph6
from .lifts import (
    LiftConstant,
    LiftPlan,
    complete_lift,
    enumerate_lifts,
    lift_constant,
    lift_feasible_multigraph,
    lift_feasible_simple,
)
from .sweep import SweepRecord, SweepSummary, run_store_append, run_store_resume, sweep_theorem
from .multigraph import (
    MultiGraph,
    automorphisms,
    canonical_key,
    components,
    contract_edge,
    contract_set,
    degree_counts,
    delete_bundle,
    delete_edge,
    delete_vertex,
    from_edge_list,
    induced,
    is_connected,
    relabel,
)

__all__ = [
    "automorphisms",
    "BoundExpr",
    "canonical_key",
    "catalog",
    "catalog_entry",
    "CatalogEntry",
    "compare",
    "complete_lift",
    "components",
    "contract_edge",
    "contract_set",
    "count_forests",
    "count_forests_bruteforce",
    "count_forests_separating",
    "count_trees",
    "degree_counts",
    "delete_bundle",
    "delete_edge",
    "delete_vertex",
    "enumerate_family",
    "enumerate_lifts",
    "extension_count",
    "family_levels",
    "FamilySeries",
    "format_edge_list",
    "format_graph6",
    "from_edge_list",
    "Gadget",
    "girth_limit",
    "induced",
    "is_connected",
    "lift_constant",
    "lift_feasible_multigraph",
    "lift_feasible_simple",
    "LiftConstant",
    "LiftPlan",
    "MemoCache",
    "min_ratio_check",
    "MultiGraph",
    "p_bound",
    "parse_edge_list",
    "parse_graph",
    "parse_graph6",
    "q_bound",
    "RatioReport",
    "relabel",
    "ring_family",
    "run_store_append",
    "run_store_resume",
    "sweep_theorem",
    "SweepRecord",
    "SweepSummary",
    "table2_check",
    "upper_bound_fd",
]
