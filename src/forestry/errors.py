"""Exception types shared across the package: one class per outcome.

Everything raised on purpose derives from ForestryError.  The CLI maps
a CheckFailed to exit 1 and any other ForestryError to exit 2, and the
run store skips a line that raises CorruptRecord.  A plain ValueError
or KeyError from the package is a defect, not a refusal.
"""


class ForestryError(Exception):
    pass


class InputError(ForestryError, ValueError):
    """Text, arguments or a graph that a caller got wrong; also a ValueError."""


class CheckFailed(ForestryError):
    """A recount, cross-check or sweep disagreed; keys names the graphs a sweep blames."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = tuple(keys)


class IoError(ForestryError):
    """A run store could not be read or written."""


class CorruptRecord(ForestryError):
    """A run-store line could not be parsed."""
