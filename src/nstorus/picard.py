"""Reference solver: direct Picard iteration of the mild spectral equation.

No decomposition is involved: iterate

    v(t) = heat(v0, t) + integral_0^t exp(-(t-s)|k|^2) conv(v(s), v(s)) ds

on the full grid over [0, horizon] from the zero trajectory (so the first
iterate is the heat flow) until the sup-over-slices data-norm change drops
below tolerance. The heat flow, the loop, the lattice and the quadrature
rule are the induction solver's, so discrepancies between the two solvers
isolate the decomposition. A PicardTrajectory is the last iterate's
(S+1, N, 3) array plus the update norm of every iteration.

An iteration holds one whole-grid array, (S+1) N 48 bytes: the iterate,
which it overwrites in place. The Duhamel rule is causal, so slice n of
the next iterate reads only slices <= n of the current one, and an
iteration sweeps the grid in two runs of consecutive slices, the first
ceil((S+1)/2) and then the rest. For each run, one star product of the
run's slices of the iterate, one bilinear call whose Duhamel recurrence
resumes from the previous run's last sample and integral, writes into a
half-grid buffer; the heat flow is added, a few slices at a time, from v0
and the cached heat weights; the run's update is measured a run of
slice_runs at a time; and the buffer is copied over the run's slices. A
slice's products are the same operations in any call, the recurrence runs
the same operations in the same order over any cut, and the update norm
is a sup over slices, so the iterates and their update norms are bit for
bit those of a whole-grid iteration. More runs would save more memory,
but each costs a bilinear call.
"""

from __future__ import annotations

import numpy as np

from .fields import SpectralField, TimeSlicedField, phi_norm, site_magnitudes, slice_runs
from .induction import fixed_point, heat_weights, update_norm
from .operators import star_product
from .params import SolverParams

__all__ = ["PicardTrajectory", "picard_solve", "integer_time_deviations"]


class PicardTrajectory(TimeSlicedField):
    """Mild solution sampled on the substep grid over [0, horizon].

    data is the last iterate. update_norms holds the sup-over-slices
    data-norm change of every iteration, so convergence speed can be
    inspected after the fact.
    """

    def __init__(self, times, lattice, data, update_norms: tuple[float, ...]):
        super().__init__(times, lattice, data)
        object.__setattr__(self, "update_norms", update_norms)

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
    lat = v0.lattice
    weights = heat_weights(lat, 0, times)
    x = v0.data * weights   # iterate 1, the heat flow (heat_flow's product)
    half = -(-len(times) // 2)
    runs = (slice(0, half), slice(half, len(times)))
    buf = np.empty_like(x[:half])

    def norm_fn(u):
        return phi_norm(u, params.alpha)

    def sweep(_):
        """Overwrite x with the next iterate, one causal run at a time, and
        return the norm of the update."""
        carry, updates = [], []
        for run in runs:
            out = buf[: run.stop - run.start]
            # wrapping a view leaves x writable
            field = TimeSlicedField(times[run], lat, x[run])
            star_product(field, field, out=out, carry=carry)
            # a few slices of heat at a time: their heat and numpy's buffers
            # for its broadcast operands take up to three times their bytes
            heat = weights[run]
            for sub in slice_runs(len(out), 3 * out[0].nbytes):
                np.add(v0.data * heat[sub], out[sub], out=out[sub])
            updates.append(update_norm(norm_fn, field._like(out), field))
            x[run] = out
        return float(np.max(updates))   # keeps a nan

    # wrap views of x alone, so that the sweeps may write it
    _, update_norms = fixed_point(TimeSlicedField(times, lat, x[...]), sweep, norm_fn,
                                  params.fp_tol, params.fp_max_iter)
    return PicardTrajectory(times, lat, x, update_norms)


def integer_time_deviations(trajectory: PicardTrajectory, velocities,
                            substeps: int) -> np.ndarray:
    """Max mode-wise |v_m - trajectory(m)| at each integer time m = 0, 1, ...

    velocities holds one field per integer time of the trajectory, whose
    grid has substeps slices per unit time; one deviation per velocity.
    """
    diff = np.stack([v.data for v in velocities]) - trajectory.data[::substeps]
    return site_magnitudes(diff).max(axis=1, initial=0.0)
