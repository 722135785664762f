"""Reference solver: direct Picard iteration of the mild spectral equation.

No decomposition is involved: iterate

    v(t) = heat(v0, t) + integral_0^t exp(-(t-s)|k|^2) conv(v(s), v(s)) ds

on the full grid over [0, horizon] from the zero trajectory (so the first
iterate is the heat flow) until the sup-over-slices data-norm change drops
below tolerance. The heat flow, the loop, the lattice and the quadrature
rule are the induction solver's, so discrepancies between the two solvers
isolate the decomposition. A PicardTrajectory is the last iterate's
(S+1, N, 3) array plus the update norm of every iteration.

An iteration holds two whole-grid arrays, (S+1) N 48 bytes each: the
current iterate and the next one. The next one is the star product's own
array: the heat flow is added into it a run of slices at a time, built from
v0 and the cached heat weights, so no heat grid stands beside the iterates,
and the loop measures each update a run at a time (see fixed_point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, TimeSlicedField, phi_norm, site_magnitudes, slice_runs
from .induction import fixed_point, heat_flow, heat_weights
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
    weights = heat_weights(v0.lattice, 0, times)

    def add_heat(out):
        """out <- heat + out, with heat = v0.data * weights built a run of
        slices at a time: a run's heat and numpy's buffer of the weights
        cast to complex take up to three times the run's bytes."""
        for run in slice_runs(len(out), 3 * out[0].nbytes):
            np.add(v0.data * weights[run], out[run], out=out[run])

    # the heat flow is iterate 1, held by the loop alone
    solution, update_norms = fixed_point(
        heat_flow(v0, 0, times), lambda v: star_product(v, v, addend=add_heat),
        lambda u: phi_norm(u, params.alpha), params.fp_tol, params.fp_max_iter)
    return PicardTrajectory(times, v0.lattice, solution.data, update_norms)


def integer_time_deviations(trajectory: PicardTrajectory, velocities,
                            substeps: int) -> np.ndarray:
    """Max mode-wise |v_m - trajectory(m)| at each integer time m = 0, 1, ...

    velocities holds one field per integer time of the trajectory, whose
    grid has substeps slices per unit time; one deviation per velocity.
    """
    diff = np.stack([v.data for v in velocities]) - trajectory.data[::substeps]
    return site_magnitudes(diff).max(axis=1, initial=0.0)
