"""Exception types shared across the package."""


class PotseqError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PotseqError, ValueError):
    """A parameter lies outside an operation's documented domain."""


class NotGraphical(PotseqError, ValueError):
    """The degree sequence admits no simple graph."""


class InvalidInterchange(PotseqError, ValueError):
    """An edge interchange violates its preconditions."""


class AttachmentInfeasible(PotseqError, RuntimeError):
    """No degree-matched attachment set is available."""


class BelowThreshold(PotseqError, ValueError):
    """The degree sum is below the guaranteed-witness threshold."""


class KnownException(PotseqError, ValueError):
    """The input is the documented exceptional sequence."""


class TooSmall(PotseqError, ValueError):
    """The sequence is shorter than the algorithm supports."""


class CorruptCache(PotseqError, ValueError):
    """A verdict cache file holds a malformed or conflicting line."""
