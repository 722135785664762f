"""Reference solver: direct Picard iteration of the mild spectral equation.

No decomposition is involved: iterate

    v(t) = heat(v0, t) + integral_0^t exp(-(t-s)|k|^2) conv(v(s), v(s)) ds

on the full grid over [0, horizon] until the sup-over-slices data-norm
change drops below tolerance. Each iterate is one TimeSlicedField over the
whole grid, and so is the result: a PicardTrajectory is the last iterate's
(S+1, N, 3) array plus the update norm of every iteration. The lattice and
quadrature rule are shared with the induction solver, so discrepancies
between the two isolate decomposition and fixed-point logic rather than
discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .fields import SpectralField, TimeSlicedField, phi_norm
from .induction import _DIVERGENCE_CAP, DecompositionState, assemble_heat_part
from .operators import star_product
from .params import SolverParams

__all__ = ["PicardTrajectory", "picard_solve", "integer_time_deviations"]


@dataclass(frozen=True, eq=False)
class PicardTrajectory(TimeSlicedField):
    """Mild solution sampled on the substep grid over [0, horizon].

    data is the last iterate. update_norms holds the sup-over-slices
    data-norm change of every iteration, so convergence speed can be
    inspected after the fact.
    """

    update_norms: tuple[float, ...]

    @property
    def iterations_used(self) -> int:
        return len(self.update_norms)

    @property
    def final_update_norm(self) -> float:
        return self.update_norms[-1]


def picard_solve(v0: SpectralField, horizon: float, params: SolverParams) -> PicardTrajectory:
    """Iterate the mild equation from the zero trajectory until stationary.

    horizon must be a positive multiple of the substep width 1/substeps.
    Raises ConvergenceError when the iteration exhausts its budget or
    produces non-finite values (data too large for the small-data regime).
    """
    n_sub = round(horizon * params.substeps)
    if n_sub < 1 or abs(n_sub / params.substeps - horizon) > 1e-9:
        raise ValueError(
            f"horizon {horizon} is not a positive multiple of the substep width "
            f"1/{params.substeps}"
        )
    times = tuple(i / params.substeps for i in range(n_sub + 1))
    # the heat flow of v0: the heat part of a decomposition with no history
    heat = assemble_heat_part(DecompositionState.initial(v0), times)
    current = TimeSlicedField.zero(v0.lattice, times)
    alpha = params.alpha

    change = math.inf
    update_norms: list[float] = []
    for iteration in range(1, params.fp_max_iter + 1):
        nxt = heat + star_product(current, current)
        # release the old iterate before the norm and the update before the
        # next star product: each is a whole-grid array
        update, current = nxt - current, nxt
        change = phi_norm(update, alpha)
        del update
        if not math.isfinite(change) or change > _DIVERGENCE_CAP:
            raise ConvergenceError(
                f"Picard iteration diverged after {iteration} iterations "
                f"(update norm {change:.3e})",
                iterations=iteration,
                last_update=change,
            )
        update_norms.append(change)
        if change < params.fp_tol:
            return PicardTrajectory(times, v0.lattice, current.data, tuple(update_norms))
    raise ConvergenceError(
        f"Picard iteration did not converge within {params.fp_max_iter} iterations "
        f"(last update {change:.3e})",
        iterations=params.fp_max_iter,
        last_update=change,
    )


def integer_time_deviations(trajectory: PicardTrajectory, velocities,
                            substeps: int) -> np.ndarray:
    """Max mode-wise |v_m - trajectory(m)| at each integer time m = 0, 1, ...

    velocities holds one field per integer time of the trajectory, whose
    grid has substeps slices per unit time; one deviation per velocity.
    """
    diff = np.stack([v.data for v in velocities]) - trajectory.data[::substeps]
    return np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=2)).max(axis=1, initial=0.0)
