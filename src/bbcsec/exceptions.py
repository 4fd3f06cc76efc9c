"""Exception hierarchy shared by all modules."""


class BbcsecError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(BbcsecError, ValueError):
    """An input violates a contract: bad distribution, dimension mismatch,
    malformed file, out-of-range index."""


class GuardError(BbcsecError, RuntimeError):
    """A resource guard tripped: the requested instance is too large for the
    exhaustive desk-scale algorithms. The message names the limit."""


def _guard(size, limit, what: str) -> None:
    """The one resource-guard raise, when `size` exceeds `limit`."""
    if size > limit:
        raise GuardError(f"{what} exceeds the limit {limit}")
