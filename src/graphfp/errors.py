"""Exception types shared across the package."""


class TruncationError(ValueError):
    """The stored truncation is too short for the requested tail bound."""


class InvalidRowError(ValueError):
    """A density or tangent vector, or one row of a stack of them, fails its
    check; ``row`` is the row's flat index over the leading axes of the
    stack, 0 for a single vector, and ``reason`` the message without the
    row."""

    def __init__(self, message, row, reason):
        super().__init__(message)
        self.row, self.reason = row, reason


class InsufficientDataError(ValueError):
    """Not enough usable points for a statistical fit."""


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed; carries the diagnostic state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without converging."""


class InvariantBreachError(RuntimeError):
    """A recorded state violated a contract the integrator must maintain."""


class NearTieWarning(UserWarning):
    """Potential values are nearly but not exactly equal.

    Branch membership is decided by exact comparison, so values this close
    almost certainly indicate an unintended tie-breaking situation.
    """
