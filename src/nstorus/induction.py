"""Unit-interval induction solver.

The velocity field is advanced one unit interval at a time. At integer time
m the solution is split into three parts:

  * heat part        -- the initial data under m units of pure heat decay,
  * gaussian part    -- a family of corrections, one per completed interval,
                        each decaying like exp(-j |k|^2 / 2) in its age j and
                        carrying an explicit |k|^(2 epsilon) rescaling,
  * remainder part   -- a family of slowly decaying remainders bounded in the
                        exp(-c sqrt(m) |k|) weighted norm.

Inside the interval the new gaussian correction is the heat part's
self-interaction, while the new remainder solves

    g = forcing + linear(g) + quadratic(g)

where the forcing collects the eight ordered products of the three
assembled parts except heat*heat (that pairing is the gaussian correction),
summed by bilinearity as two star products; the linear map couples g
against the parts' sum from both sides, and the quadratic term is g against
itself (two star products per evaluation, see remainder_maps). For small
data the map contracts in the weighted remainder norm and plain iteration
from zero converges.

Histories are frozen at their interval-end values; the decomposition is
exact at the discrete level, so the composed interval solves agree with a
global Picard solve on the same grid to fixed-point tolerance.

Every part is a TimeSlicedField over the interval's grid. The history
parts are one heat-decayed sum over ages j, each age adding an
(S+1, N)-weighted term to every grid time at once. induction_steps is the
one loop over steps: runs, the smallness bisection and the scripts all
advance through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .fields import SpectralField, UNDERFLOW_FLOOR
from .operators import (
    TimeSlicedField,
    grid_index,
    sliced_fmc_norm,
    star_product,
    unit_times,
)
from .params import SolverParams

__all__ = [
    "DecompositionState",
    "IntervalSolution",
    "FixedPointResult",
    "assemble_heat_part",
    "compute_gaussian_correction",
    "assemble_gaussian_part",
    "assemble_remainder_part",
    "assemble_forcing",
    "iterate_contraction",
    "remainder_maps",
    "solve_remainder",
    "solve_interval",
    "apply_interval",
    "induction_steps",
    "reconstruct_velocity",
]

# Update norms beyond this are treated as divergence even before hitting
# the iteration budget or producing non-finite values.
_DIVERGENCE_CAP = 1e50


@dataclass(frozen=True, eq=False)
class DecompositionState:
    """Induction record at integer time m.

    initial_field is the t = 0 velocity; the histories hold one entry per
    completed interval j = 1..m, frozen at that interval's end. Gaussian
    history entries are stored with their |k|^(2 epsilon) factor multiplied
    in; assembly divides it back out.
    """

    m: int
    initial_field: SpectralField
    gaussian_history: tuple[SpectralField, ...] = ()
    remainder_history: tuple[SpectralField, ...] = ()

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if len(self.gaussian_history) != self.m or len(self.remainder_history) != self.m:
            raise ValueError("history lengths must both equal m")
        lat = self.initial_field.lattice
        for f in (*self.gaussian_history, *self.remainder_history):
            if f.lattice != lat:
                raise ValueError("history fields must share the initial field's lattice")

    @classmethod
    def initial(cls, v0: SpectralField) -> "DecompositionState":
        return cls(0, v0)

    @property
    def lattice(self):
        return self.initial_field.lattice


def _heat_weights(ages: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Heat weights exp(-a|k|^2), one row per age a, with underflow pruning."""
    w = np.exp(-ages[:, None] * q)
    w[w < UNDERFLOW_FLOOR] = 0.0
    return w


def _add_decayed_history(state: DecompositionState, history, times, acc: np.ndarray):
    """acc[n] += sum_j exp(-(m - j + t_n)|k|^2) history[j-1] at every grid
    time t_n, added one age j at a time in increasing order; returns acc."""
    t = np.asarray(times, dtype=np.float64)
    for j, h in enumerate(history, start=1):
        acc += _heat_weights(state.m - j + t, state.lattice.norm_sq_f)[:, :, None] * h.data
    return acc


def assemble_heat_part(state: DecompositionState, times) -> TimeSlicedField:
    """Initial data decayed to absolute time m + t for each grid time t."""
    times = tuple(times)
    w = _heat_weights(state.m + np.asarray(times, dtype=np.float64), state.lattice.norm_sq_f)
    return TimeSlicedField(times, state.lattice, state.initial_field.data * w[:, :, None])


def compute_gaussian_correction(heat_part: TimeSlicedField, params: SolverParams) -> TimeSlicedField:
    """|k|^(2 epsilon) times the heat part's self star product."""
    qe = heat_part.lattice.norm_sq_f ** params.epsilon
    prod = star_product(heat_part, heat_part)
    return TimeSlicedField(prod.times, prod.lattice, prod.data * qe[:, None])


def assemble_gaussian_part(
    state: DecompositionState,
    correction: TimeSlicedField,
    times,
    params: SolverParams,
) -> TimeSlicedField:
    """Heat-decayed gaussian history plus the current-interval correction,
    all carrying the common 1/|k|^(2 epsilon) factor."""
    times = tuple(times)
    if correction.times != times:
        raise ValueError("correction grid does not match the interval grid")
    qe = state.lattice.norm_sq_f ** params.epsilon
    acc = _add_decayed_history(state, state.gaussian_history, times, correction.data.copy())
    return TimeSlicedField(times, state.lattice, acc / qe[:, None])


def assemble_remainder_part(state: DecompositionState, times) -> TimeSlicedField:
    """Heat-decayed remainder history (no current-interval term)."""
    times = tuple(times)
    acc = np.zeros((len(times), len(state.lattice), 3), dtype=np.complex128)
    return TimeSlicedField(times, state.lattice,
                           _add_decayed_history(state, state.remainder_history, times, acc))


def assemble_forcing(
    heat_part: TimeSlicedField,
    gaussian_part: TimeSlicedField,
    remainder_part: TimeSlicedField,
) -> TimeSlicedField:
    """Sum of the eight ordered star products of the three parts, excluding
    heat*heat (that pairing is the gaussian correction, not forcing), as
    S(H, G+R) + S(G+R, H+G+R): two star products and no subtraction."""
    rest = gaussian_part + remainder_part
    return star_product(heat_part, rest) + star_product(rest, heat_part + rest)


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """Converged remainder plus the measurements taken along the way.

    measurements holds one (iterate_norm, linear_norm, quadratic_norm)
    triple per map evaluation at a nonzero iterate, including one final
    evaluation at the accepted solution (which also yields the residual).
    """

    solution: TimeSlicedField
    iterations: int
    ratios: tuple[float, ...]
    update_norms: tuple[float, ...]
    forcing_norm: float
    measurements: tuple[tuple[float, float, float], ...]
    residual: float
    solution_norm: float


def iterate_contraction(forcing, maps, norm_fn, tol: float, max_iter: int) -> FixedPointResult:
    """Solve x = forcing + linear(x) + quadratic(x) by plain iteration from 0,
    where maps(x) returns the pair (linear(x), quadratic(x)).

    Both maps vanish at zero, so the first iterate is the forcing itself
    and the maps are first evaluated at it. Stops when the norm of the
    update falls below tol; raises ConvergenceError when the budget is
    exhausted, the update norm exceeds the divergence cap, or a non-finite
    update appears. After acceptance the
    map is evaluated once more at the solution to measure the residual and
    the linear/quadratic gains used by the certificates.
    """
    prev = forcing * 0.0
    prev_norm = 0.0
    updates: list[float] = []
    ratios: list[float] = []
    measurements: list[tuple[float, float, float]] = []
    forcing_norm = norm_fn(forcing)
    iterations = 0
    converged = False
    for _ in range(max_iter):
        nxt = forcing
        if iterations:
            lin, quad = maps(prev)
            if prev_norm > 0:
                measurements.append((prev_norm, norm_fn(lin), norm_fn(quad)))
            nxt = forcing + lin + quad
        iterations += 1
        d = norm_fn(nxt - prev)
        if not math.isfinite(d) or d > _DIVERGENCE_CAP:
            raise ConvergenceError(
                f"fixed-point iteration diverged after {iterations} iterations "
                f"(update norm {d:.3e}); the data is outside the contraction regime",
                iterations=iterations,
                last_update=d,
                last_ratio=(d / updates[-1]) if updates and updates[-1] > 0 else float("nan"),
            )
        if updates and updates[-1] > 0:
            ratios.append(d / updates[-1])
        updates.append(d)
        prev = nxt
        prev_norm = norm_fn(nxt)
        if d < tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {iterations} iterations "
            f"(last update {updates[-1]:.3e}, last ratio "
            f"{ratios[-1] if ratios else float('nan'):.3e})",
            iterations=iterations,
            last_update=updates[-1],
            last_ratio=ratios[-1] if ratios else float("nan"),
        )
    # certification pass at the accepted solution
    lin, quad = maps(prev)
    if prev_norm > 0:
        measurements.append((prev_norm, norm_fn(lin), norm_fn(quad)))
    residual = norm_fn(forcing + lin + quad - prev)
    return FixedPointResult(
        solution=prev,
        iterations=iterations,
        ratios=tuple(ratios),
        update_norms=tuple(updates),
        forcing_norm=forcing_norm,
        measurements=tuple(measurements),
        residual=residual,
        solution_norm=prev_norm,
    )


def remainder_maps(total: TimeSlicedField):
    """The fixed-point map's parts at g, as maps(g) = (linear, quadratic):
    linear = S(T, g) + S(g, T) and quadratic = S(g, g) for T = total.
    S(g, T) and S(g, g) share their left factor, so they are one star
    product: two interaction matrices per slice instead of three."""

    def maps(g):
        g_total, g_g = star_product(g, total, g)
        return star_product(total, g) + g_total, g_g

    return maps


def solve_remainder(
    forcing: TimeSlicedField,
    heat_part: TimeSlicedField,
    gaussian_part: TimeSlicedField,
    remainder_part: TimeSlicedField,
    params: SolverParams,
    m_next: int,
) -> FixedPointResult:
    """Fixed point for the new remainder on the full substep grid.

    The convergence metric is the weighted remainder norm at index m_next
    with rate decay_c, maximized over grid slices.
    """
    maps = remainder_maps(heat_part + gaussian_part + remainder_part)

    def norm_fn(x):
        return sliced_fmc_norm(x, m_next, params.decay_c, params.beta)

    return iterate_contraction(forcing, maps, norm_fn, params.fp_tol, params.fp_max_iter)


@dataclass(frozen=True, eq=False)
class IntervalSolution:
    """All per-interval fields produced while advancing one unit interval."""

    times: tuple[float, ...]
    heat_part: TimeSlicedField
    gaussian_part: TimeSlicedField
    remainder_part: TimeSlicedField
    correction: TimeSlicedField
    fixed_point: FixedPointResult

    @cached_property
    def velocity(self) -> TimeSlicedField:
        """The velocity on the step's grid: the three parts plus the new
        remainder."""
        return self.heat_part + self.gaussian_part + self.remainder_part + self.fixed_point.solution

    def velocity_slices(self) -> tuple[SpectralField, ...]:
        return self.velocity.slices

    def velocity_at(self, t: float) -> SpectralField:
        return self.velocity.at_time(t)


def solve_interval(state: DecompositionState, params: SolverParams) -> IntervalSolution:
    """Assemble the three parts on the substep grid and solve for the new
    remainder; raises ConvergenceError outside the contraction regime."""
    times = unit_times(params.substeps)
    heat_part = assemble_heat_part(state, times)
    correction = compute_gaussian_correction(heat_part, params)
    gaussian_part = assemble_gaussian_part(state, correction, times, params)
    remainder_part = assemble_remainder_part(state, times)
    forcing = assemble_forcing(heat_part, gaussian_part, remainder_part)
    fixed_point = solve_remainder(forcing, heat_part, gaussian_part,
                                  remainder_part, params, state.m + 1)
    return IntervalSolution(times, heat_part, gaussian_part, remainder_part,
                            correction, fixed_point)


def apply_interval(state: DecompositionState, sol: IntervalSolution, params: SolverParams):
    """Append the interval-end correction and remainder to the histories and
    emit the step's certificate record."""
    from .certificates import build_record  # local import to avoid a cycle

    new_state = DecompositionState(
        m=state.m + 1,
        initial_field=state.initial_field,
        gaussian_history=state.gaussian_history + (sol.correction.last_slice(),),
        remainder_history=state.remainder_history + (sol.fixed_point.solution.last_slice(),),
    )
    record = build_record(state.m, new_state, sol, params)
    return new_state, record


def induction_steps(state: DecompositionState, params: SolverParams, count: int):
    """Advance count unit intervals from state, yielding
    (interval solution, new state, certificate record) after each step.

    A ConvergenceError propagates from the step that failed; the last state
    yielded before it is the state that step started from.
    """
    for _ in range(count):
        sol = solve_interval(state, params)
        state, record = apply_interval(state, sol, params)
        yield sol, state, record


def reconstruct_velocity(state: DecompositionState, t: float, params: SolverParams) -> SpectralField:
    """Velocity at absolute time state.m + t for a grid time t in [0, 1].

    At t = 0 this is the frozen decomposition itself, summed as the
    interval's assembly sums its t = 0 slice. For t > 0 the
    current-interval correction and remainder are required, so the interval
    is solved and the four parts are summed at t.
    """
    if grid_index(unit_times(params.substeps), t) == 0:
        times = (0.0,)
        gaussian = assemble_gaussian_part(state, TimeSlicedField.zero(state.lattice, times),
                                          times, params)
        parts = assemble_heat_part(state, times) + gaussian + assemble_remainder_part(state, times)
        return parts.slices[0]
    return solve_interval(state, params).velocity_at(t)
