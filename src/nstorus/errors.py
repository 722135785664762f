"""Exception types shared across the solver."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative solve fails to contract within its budget.

    Carries the number of iterations performed, the norm of the last update
    and the last measured update ratio (nan when fewer than two updates were
    taken), so callers can report how far outside the smallness regime the
    data sits.
    """

    def __init__(self, message, iterations=0, last_update=float("nan"),
                 last_ratio=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.last_update = last_update
        self.last_ratio = last_ratio


class WorkerError(RuntimeError):
    """Raised when the convolution's worker process dies, or sends an
    answer that cannot be read: the call's products are lost, and the next
    call forks a fresh worker."""


class CheckpointError(ValueError):
    """Raised when a field checkpoint cannot be read back safely."""


class ConfigError(ValueError):
    """Raised on malformed or constraint-violating run configuration."""


def refuse_assignment(obj, name, value=None):
    """__setattr__ and __delattr__ of the package's immutable classes, whose
    __init__ sets each attribute once through object.__setattr__."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(obj).__name__} is immutable")
