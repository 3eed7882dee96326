"""Exception hierarchy shared by all modules.

The CLI maps these onto process exit codes, so keep the split stable:
spec problems, enumeration budget, and numeric failures are distinct.
"""


class MultishiftError(Exception):
    """Base class for all errors raised by this package."""


class SpecError(MultishiftError):
    """A shift specification violates its invariants."""


class EmptyShiftError(SpecError):
    """The block graph has no cycle: the shift is empty and has no Perron root."""


class BudgetError(MultishiftError):
    """An enumeration would exceed the configured budget."""


class NumericError(MultishiftError):
    """A numeric/algebraic computation cannot proceed."""


class SingularMatrixError(NumericError):
    """Matrix inversion or linear solve hit a singular matrix."""


class RootBracketError(NumericError):
    """No real root inside the requested bracket."""


class RouteMismatchError(NumericError):
    """Two independent computation routes disagree beyond tolerance."""
