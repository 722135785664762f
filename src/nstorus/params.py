"""Solver parameters and their admissibility constraints."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SolverParams", "DEFAULT_DECAY_C"]

# Decay rate of the weighted remainder norm, exp(-c sqrt(m) |k|) with
# c = 1/sqrt(3): the rate produced when Gaussian-in-m decay is relaxed to
# exponential-in-|k| decay on the integer lattice (m |k| >= 1 there).
DEFAULT_DECAY_C = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class SolverParams:
    """Numerical parameters of the induction and oracle solvers.

    epsilon sets the data-space weight alpha = 2 + epsilon and must satisfy
    0 < 3 epsilon < 1; beta > 3 is the polynomial weight of the remainder
    norm; delta is the smallness scale of the initial data, positive and
    finite.
    """

    epsilon: float = 0.25
    beta: float = 3.5
    delta: float = 1e-3
    decay_c: float = DEFAULT_DECAY_C
    fp_tol: float = 1e-11
    fp_max_iter: int = 50
    substeps: int = 8
    eps_div: float = 1e-12

    def __post_init__(self):
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

    @property
    def alpha(self) -> float:
        return 2.0 + self.epsilon
