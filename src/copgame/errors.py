"""Exception types shared across the package, and the check of integer
arguments that raises one."""

from operator import index


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class StateBudgetExceeded(RuntimeError):
    """A game would need more positions (or sub-move states and arcs) than
    the configured budget allows, or a played trace more rounds than its
    limit."""


def _as_int(value, what: str) -> int:
    """value as an int, for whatever operator.index accepts; anything else
    (2.0, 2.5, "2") raises InputError before any work is done."""
    try:
        return index(value)
    except TypeError:
        raise InputError(f"{what} must be an integer, got {value!r}") from None
