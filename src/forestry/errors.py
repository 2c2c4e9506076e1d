"""Exception types shared across the package.

Everything raised on purpose derives from ForestryError so the CLI can
map failures to exit codes without enumerating modules.  A plain
ValueError or KeyError from the package is a defect, not a refusal.
"""


class ForestryError(Exception):
    pass


class InputError(ForestryError, ValueError):
    """Text or arguments a caller got wrong; also a ValueError, like JSONDecodeError."""


class LoopRejected(ForestryError):
    """An edge with equal endpoints was supplied."""


class VertexOutOfRange(ForestryError):
    """A vertex id is not in 0..n-1."""


class EdgeAbsent(ForestryError):
    """The named edge does not exist (or has multiplicity 0)."""


class TooLarge(ForestryError):
    """Input exceeds the brute-force edge cap or a parser's or writer's size limit."""


class InvalidPartition(ForestryError):
    """Blocks are empty, overlap, or do not cover the attachment vertices."""


class OddDegree(ForestryError):
    """A lift was requested at a vertex of odd degree."""


class NotSimple(ForestryError):
    """A simple-graph operation was applied to a multigraph."""


class CapExceeded(ForestryError):
    """A size past a fixed enumeration limit was asked for."""


class DegreeOutOfFamily(ForestryError):
    """A vertex degree falls outside the degree set of the requested bound."""


class BridgeEdge(ForestryError):
    """The designated edge is a bridge where a non-bridge is required."""


class Disconnected(ForestryError):
    """A connected graph is required."""


class AttachmentMismatch(ForestryError):
    """Two gadgets declare incompatible attachment vertex lists."""


class CatalogMismatch(ForestryError):
    """A catalog entry's computed value disagrees with its stored expectation."""


class CrossCheckFailed(ForestryError):
    """The counting engine and the brute-force count disagree on a graph."""


class ViolationFound(ForestryError):
    """A sweep found a graph violating a bound that should hold."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


class IoError(ForestryError):
    """A run store could not be read or written."""


class CorruptRecord(ForestryError):
    """A run-store line could not be parsed."""
