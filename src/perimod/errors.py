"""Exception hierarchy shared by all perimod modules.

The CLI maps these onto exit statuses: usage and domain errors exit 1,
resource errors exit 2.
"""


class PerimodError(Exception):
    """Base class for all errors raised by perimod."""


class UsageError(PerimodError):
    """Caller error: mismatched rings, malformed input, bad flag values."""


class DomainError(PerimodError):
    """Mathematically invalid input (e.g. zero polynomial, empty population)."""


class ResourceError(PerimodError):
    """A requested computation exceeds one of the limits in perimod.budget."""
