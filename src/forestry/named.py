"""A library of named graphs with frozen forest counts.

Each entry stores only what cannot be derived: its name, a summary, the
graph, its forest count and whether the degree-{2, 3, 4} bound holds.
Each entry is built from its edge list and re-counted the first time it
is used, and only that entry; catalog() checks all 28, and
catalog_names(), which only names graphs, checks none.  A disagreement
with the stored count or verdict raises CheckFailed instead of
letting a bad transcription leak into downstream checks.
"""

from typing import NamedTuple

from .bounds import LESS, compare, degree_profile, q_bound
from .counting import count_forests
from .errors import CheckFailed, InputError
from .multigraph import MultiGraph, canonical_key, from_edge_list


class CatalogEntry(NamedTuple):
    name: str
    summary: str
    graph: MultiGraph
    forests: int
    holds: bool  # forests >= bound

    @property
    def degree_counts(self):
        """How many vertices have degree 2, 3 and 4."""
        return degree_profile(self.graph)

    @property
    def bound(self):
        """The degree-{2, 3, 4} lower bound of the graph."""
        return q_bound(self.graph)


def _clique(n, shift=0):
    return [(i + shift, j + shift) for i in range(n) for j in range(i + 1, n)]


def _prism():
    return [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (1, 4), (0, 5)]


def _octahedron():
    return [(u, v) for u, v in _clique(6) if (u, v) not in ((0, 1), (2, 3), (4, 5))]


# name, summary, vertex count, edges, forests, holds
_RAW = [
    (
        "K3",
        "triangle",
        3,
        _clique(3),
        7,
        True,
    ),
    (
        "K4",
        "complete graph on 4 vertices",
        4,
        _clique(4),
        38,
        True,
    ),
    (
        "K4-e",
        "complete graph on 4 vertices with one edge removed",
        4,
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        24,
        True,
    ),
    (
        "K5",
        "complete graph on 5 vertices",
        5,
        _clique(5),
        291,
        False,
    ),
    (
        "K5-e",
        "complete graph on 5 vertices with one edge removed",
        5,
        [(u, v) for u, v in _clique(5) if (u, v) != (0, 1)],
        198,
        True,
    ),
    (
        "K6-",
        "complete graph on 6 vertices with a perfect matching removed",
        6,
        _octahedron(),
        1083,
        False,
    ),
    (
        "K33",
        "complete bipartite graph with parts of size 3",
        6,
        [(i, 3 + j) for i in range(3) for j in range(3)],
        328,
        True,
    ),
    (
        "R1",
        "triangular prism: two triangles joined by a perfect matching",
        6,
        _prism(),
        314,
        True,
    ),
    (
        "R2",
        "complete graph on 4 vertices with one edge subdivided",
        5,
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (1, 4)],
        86,
        True,
    ),
    (
        "X6",
        "complete graph on 5 vertices with one edge subdivided",
        6,
        [(u, v) for u, v in _clique(5) if (u, v) != (0, 1)] + [(0, 5), (1, 5)],
        687,
        True,
    ),
    (
        "X7",
        "6-vertex 4-regular graph with one edge subdivided",
        7,
        [(u, v) for u, v in _octahedron() if (u, v) != (0, 2)] + [(0, 6), (2, 6)],
        2527,
        True,
    ),
    (
        "Y5",
        "4-clique plus a new vertex joined to two of its corners",
        5,
        _clique(4) + [(4, 0), (4, 1)],
        128,
        True,
    ),
    (
        "Y5p",
        "4-clique plus a new vertex joined to three of its corners",
        5,
        _clique(4) + [(4, 0), (4, 1), (4, 2)],
        198,
        True,
    ),
    (
        "Y6",
        "4-clique plus two new vertices, each joined to a different pair",
        6,
        _clique(4) + [(4, 0), (4, 1), (5, 2), (5, 3)],
        431,
        True,
    ),
    (
        "Y6p",
        "4-clique plus two adjacent new vertices on disjoint corner pairs",
        6,
        _clique(4) + [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5)],
        722,
        True,
    ),
    (
        "D4",
        "two triangles sharing an edge",
        4,
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        24,
        True,
    ),
    (
        "D5",
        "two triangles sharing an edge, plus a vertex joined to that edge",
        5,
        [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 2), (4, 3)],
        81,
        True,
    ),
    (
        "H1",
        "two 4-cliques joined by a perfect matching",
        8,
        _clique(4) + _clique(4, 4) + [(0, 4), (1, 5), (2, 6), (3, 7)],
        14381,
        True,
    ),
    (
        "H2",
        "4-clique matched onto the rim of a 4-spoke wheel",
        9,
        _clique(4, 4)
        + [(0, 1), (1, 2), (2, 3), (0, 3)]
        + [(8, 0), (8, 1), (8, 2), (8, 3)]
        + [(0, 4), (1, 5), (2, 6), (3, 7)],
        52485,
        True,
    ),
    (
        "H3",
        "4-clique plus two adjacent 4-valent vertices sharing a 2-valent one",
        7,
        _clique(4)
        + [(4, 0), (4, 1), (5, 2), (5, 3), (4, 5), (4, 6), (5, 6)],
        2457,
        True,
    ),
    (
        "H4",
        "complete bipartite 4-by-3 plus two edges pairing up the 4-side",
        7,
        [(i, 4 + j) for i in range(4) for j in range(3)] + [(0, 1), (2, 3)],
        4061,
        True,
    ),
    (
        "H5",
        "8-vertex 4-regular graph",
        8,
        [
            (0, 1),
            (0, 5),
            (0, 6),
            (0, 7),
            (1, 5),
            (1, 6),
            (1, 7),
            (2, 3),
            (2, 4),
            (2, 6),
            (2, 7),
            (3, 4),
            (3, 5),
            (3, 7),
            (4, 5),
            (4, 6),
        ],
        14763,
        True,
    ),
    (
        "H6",
        "7-vertex 4-regular graph",
        7,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 5),
            (1, 6),
            (2, 4),
            (2, 5),
            (3, 4),
            (3, 5),
            (3, 6),
            (4, 6),
            (5, 6),
        ],
        4019,
        True,
    ),
    (
        "H7",
        "9-vertex 4-regular graph: triangle whose neighbourhood is a 3-by-3 biclique",
        9,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 7),
            (1, 4),
            (1, 6),
            (1, 8),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 6),
            (3, 8),
            (4, 5),
            (4, 8),
            (5, 6),
            (5, 7),
            (6, 7),
            (7, 8),
        ],
        57631,
        True,
    ),
    (
        "H8",
        "twin of H7 with two biclique spokes rewired",
        9,
        [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 7),
            (1, 4),
            (1, 6),
            (1, 8),
            (2, 3),
            (2, 4),
            (2, 5),
            (3, 6),
            (3, 8),
            (4, 5),
            (4, 7),
            (5, 6),
            (5, 8),
            (6, 7),
            (7, 8),
        ],
        58975,
        True,
    ),
    (
        "Z1",
        "prism and triangle joined by aligned spokes",
        9,
        _prism() + [(6, 7), (7, 8), (6, 8)]
        + [(6, 0), (6, 3), (7, 1), (7, 4), (8, 2), (8, 5)],
        57631,
        True,
    ),
    (
        "Z2",
        "prism and triangle joined by once-crossed spokes",
        9,
        _prism() + [(6, 7), (7, 8), (6, 8)]
        + [(6, 0), (6, 4), (7, 1), (7, 3), (8, 2), (8, 5)],
        58417,
        True,
    ),
    (
        "Z3",
        "prism and triangle joined by twice-crossed spokes",
        9,
        _prism() + [(6, 7), (7, 8), (6, 8)]
        + [(6, 0), (6, 5), (7, 1), (7, 4), (8, 2), (8, 3)],
        56101,
        True,
    ),
]

_CHECKED = {}  # name -> entry, filled as each entry passes its check


def _check(entry):
    actual = count_forests(entry.graph)
    if actual != entry.forests:
        raise CheckFailed(
            "%s: counted %d forests, catalog says %d"
            % (entry.name, actual, entry.forests)
        )
    if (compare(entry.forests, entry.bound) != LESS) != entry.holds:
        raise CheckFailed("%s: bound verdict flipped" % entry.name)


def catalog():
    """All named graphs in table order, each verified on first use."""
    return [catalog_entry(row[0]) for row in _RAW]


def catalog_names():
    """Each named graph's canonical key -> its name, the first of two names.

    Naming a graph needs no forest count, so no entry is checked here.
    """
    names = {}
    for name, _, n, edges, _, _ in _RAW:
        names.setdefault(canonical_key(from_edge_list(n, edges)), name)
    return names


def catalog_entry(name):
    """The named graph, verified against its stored count on first use."""
    if name not in _CHECKED:
        row = next((row for row in _RAW if row[0] == name), None)
        if row is None:
            raise InputError(
                f"unknown catalog graph {name!r}; run the catalog subcommand for names"
            )
        _, summary, n, edges, forests, holds = row
        entry = CatalogEntry(name, summary, from_edge_list(n, edges), forests, holds)
        _check(entry)
        _CHECKED[name] = entry
    return _CHECKED[name]
