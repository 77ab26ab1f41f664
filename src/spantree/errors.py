"""Exception hierarchy shared across the package."""


class SpantreeError(Exception):
    """Base class for package-specific errors."""


class EdgeListParseError(SpantreeError):
    """Input the CLI cannot read: malformed edge-list text (bad header,
    out-of-range, loop or duplicate edge), an unreadable file, a bad
    ``--ferrers`` or ``--multipartite`` list, or a bad
    ``SPANTREE_ORACLE_LIMIT``."""


class CapabilityExceededError(SpantreeError):
    """The input is larger than a configured enumeration guard.

    Raised instead of silently returning a wrong or partial answer; the guard
    can be lifted by the caller.
    """


class ExactnessError(SpantreeError):
    """A division that is guaranteed to be exact left a remainder.

    This always signals an implementation bug or an input that violated a
    documented precondition, never a legitimate runtime condition.
    """


class TriangularityError(SpantreeError):
    """A rank-one update that should have been upper triangular was not."""


class OrderInconsistencyError(SpantreeError):
    """A recognizer contradicted itself: a peeled order that breaks the
    construction condition, or a shrunk non-member that induces no
    forbidden pattern.
    """
