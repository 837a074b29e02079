"""Exception types shared across the library."""


class DunklError(Exception):
    """Base class for all library errors."""


class DomainError(DunklError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(DunklError, ValueError):
    """An argument or a result exceeds the numerical range of an algorithm
    or of double precision."""


class UsageError(DunklError, ValueError):
    """The operation was invoked in a way its contract does not permit
    (wrong regime, mismatched dimensions, malformed config)."""


class CalibrationError(DunklError, RuntimeError):
    """A constructed object failed its internal consistency gate."""
