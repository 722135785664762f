"""Solver parameters and their admissibility constraints."""

from __future__ import annotations

import math

from .errors import refuse_assignment

__all__ = ["SolverParams", "DEFAULT_DECAY_C"]

# Decay rate of the weighted remainder norm, exp(-c sqrt(m) |k|) with
# c = 1/sqrt(3): the rate produced when Gaussian-in-m decay is relaxed to
# exponential-in-|k| decay on the integer lattice (m |k| >= 1 there).
DEFAULT_DECAY_C = 1.0 / math.sqrt(3.0)


class SolverParams:
    """Numerical parameters of the induction and oracle solvers.

    epsilon sets the data-space weight alpha = 2 + epsilon and must satisfy
    0 < 3 epsilon < 1; beta > 3 is the polynomial weight of the remainder
    norm; delta is the smallness scale of the initial data, positive and
    finite.

    DEFAULTS is the ordered table of the keys and their defaults (a
    subclass extends it). The keyword-only constructor takes any of them,
    fills the rest from DEFAULTS and validates the whole; instances are
    immutable, equal and hashed by their values, and replace(**changes)
    builds, and validates, a changed copy.
    """

    DEFAULTS = {"epsilon": 0.25, "beta": 3.5, "delta": 1e-3, "decay_c": DEFAULT_DECAY_C,
                "fp_tol": 1e-11, "fp_max_iter": 50, "substeps": 8, "eps_div": 1e-12}

    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, **values):
        unknown = values.keys() - self.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"{type(self).__name__} has no keys {sorted(unknown)}")
        self.__dict__.update({**self.DEFAULTS, **values})
        self._validate()

    def _validate(self) -> None:
        if not 0 < 3 * self.epsilon < 1:
            raise ValueError(f"3*epsilon must be in (0, 1), got epsilon={self.epsilon}")
        if not 3 < self.beta < math.inf:
            raise ValueError(f"beta must be > 3 and finite, got {self.beta}")
        for name in ("delta", "decay_c", "fp_tol", "eps_div"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.fp_max_iter < 1:
            raise ValueError(f"fp_max_iter must be >= 1, got {self.fp_max_iter}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.DEFAULTS}

    def __eq__(self, other):
        return self._asdict() == other._asdict() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({pairs})"

    def replace(self, **changes):
        """A copy with changes applied, validated as a new instance."""
        return type(self)(**{**self._asdict(), **changes})

    @property
    def alpha(self) -> float:
        return 2.0 + self.epsilon
