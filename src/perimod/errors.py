"""Exception hierarchy shared by all perimod modules, and require_type, the
one type check of a library entry point's arguments.

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


def require_type(name: str, value: object, kind: type) -> None:
    """UsageError unless value's type is kind itself (so a bool is no int):
    a wrong type fails here, not as a raw TypeError or a silent miscount."""
    if type(value) is not kind:
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise UsageError(f"{name} must be {article} {kind.__name__}, got {value!r}")
