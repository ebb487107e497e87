"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's preconditions."""


class StateBudgetExceeded(RuntimeError):
    """A game would need more positions (or sub-move states and arcs) than
    the configured budget allows, or a played trace more rounds than its
    limit."""
