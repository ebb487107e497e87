"""Exception types shared across the package, and the one rule for integer
arguments: whatever operator.index accepts is taken as that int (numpy
ints included), anything else (2.0, 2.5, "2", None) is refused with
InputError before any work, and so is a count below its least value."""

from operator import index


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class StateBudgetExceeded(RuntimeError):
    """A game would need more positions (or sub-move states, sub-move arcs
    or removal-table pairs) than the configured budget allows, or a played
    trace more rounds than its limit."""


def _as_int(value, what: str) -> int:
    """value as an int, for whatever operator.index accepts; anything else
    raises InputError."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None


def _at_least(value, low: int, what: str) -> int:
    """value as an int (see _as_int), refused with InputError below low."""
    value = _as_int(value, what)
    if value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")
    return value
