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

A frozen entry only decays afterwards, so each history is carried as its
running sum

    R_m = sum_{j <= m} exp(-(m-j)|k|^2) h_j,   R_{m+1} = exp(-|k|^2) R_m + h_{m+1},

and its part at grid time t of the interval is exp(-t|k|^2) R_m. The
decay factor exp(-|k|^2) and the grid-time weights are heat weights, set to
zero below UNDERFLOW_FLOOR like every other. A single term can no longer
be pruned by its own age, since R has merged the terms: an old term stays
in R and decays until it leaves the normal floating-point range, where the
component is flushed to zero, so no stored R entry is subnormal.

Against adding every term with its own weight w_j = exp(-(m-j+t)|k|^2),
this changes a part, per site and component and to first order in the
rounding, by at most

    2^-52 sum_j (3(m-j) + 4 + 2(m-j+t)|k|^2) w_j |h_j|
        + UNDERFLOW_FLOOR (1 + sum_j |h_j|).

A term goes through m-j rounded decays and additions here and through up
to m-j+1 additions there, and exp(-x) of a rounded argument x carries a
relative error of up to about 2^-52 x in either sum; the second line covers
the terms the floor would have pruned by age, and the flushed subnormals.
With the certificate record fitting only the new age (see
certificates.build_record), the cost of a step no longer grows with m.

Every part is a TimeSlicedField over the interval's grid. induction_steps
is the one loop over steps: runs, the smallness bisection and the scripts
all advance through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError
from .fields import SpectralField, TimeSlicedField, UNDERFLOW_FLOOR, fmc_norm
from .operators import star_product, unit_times
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

    gaussian_sum and remainder_sum are the histories' running sums R_m (see
    the module docstring). Left out, they are built from the histories, and
    every entry is checked; apply_interval passes them extended by the new
    pair instead, and then only that pair is checked.
    """

    m: int
    initial_field: SpectralField
    gaussian_history: tuple[SpectralField, ...] = ()
    remainder_history: tuple[SpectralField, ...] = ()
    gaussian_sum: SpectralField | None = field(default=None, repr=False)
    remainder_sum: SpectralField | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if len(self.gaussian_history) != self.m or len(self.remainder_history) != self.m:
            raise ValueError("history lengths must both equal m")
        if (self.gaussian_sum is None) != (self.remainder_sum is None):
            raise ValueError("give both running sums or neither")
        lat = self.initial_field.lattice
        fresh = self.gaussian_sum is None
        checked = ((*self.gaussian_history, *self.remainder_history) if fresh else
                   (*self.gaussian_history[-1:], *self.remainder_history[-1:],
                    self.gaussian_sum, self.remainder_sum))
        if any(f.lattice != lat for f in checked):
            raise ValueError("history fields must share the initial field's lattice")
        if fresh:
            for name, history in (("gaussian_sum", self.gaussian_history),
                                  ("remainder_sum", self.remainder_history)):
                total = SpectralField.zero(lat)
                for h in history:
                    total = _extend_sum(total, h)
                object.__setattr__(self, name, total)

    @classmethod
    def initial(cls, v0: SpectralField) -> "DecompositionState":
        return cls(0, v0)

    @property
    def lattice(self):
        return self.initial_field.lattice


def _heat_weights(ages: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Heat weights exp(-a|k|^2), one row per age a >= 0, with underflow
    pruning."""
    if (ages < 0).any():
        raise ValueError("heat weights need non-negative ages")
    w = np.exp(-ages[:, None] * q)
    w[w < UNDERFLOW_FLOOR] = 0.0
    return w


_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _extend_sum(total: SpectralField, entry: SpectralField) -> SpectralField:
    """The running sum one age on, exp(-|k|^2) total + entry, with every
    component below the normal range flushed to zero."""
    lat = entry.lattice
    data = _heat_weights(np.ones(1), lat.norm_sq_f)[0][:, None] * total.data + entry.data
    parts = data.view(np.float64)
    parts[np.abs(parts) < _SMALLEST_NORMAL] = 0.0
    return SpectralField(lat, data)


def _decayed(total: SpectralField, times) -> np.ndarray:
    """exp(-t|k|^2) total at every grid time t; (S+1, N, 3)."""
    w = _heat_weights(np.asarray(times, dtype=np.float64), total.lattice.norm_sq_f)
    return w[:, :, None] * total.data


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
    acc = correction.data + _decayed(state.gaussian_sum, times)
    return TimeSlicedField(times, state.lattice, acc / qe[:, None])


def assemble_remainder_part(state: DecompositionState, times) -> TimeSlicedField:
    """Heat-decayed remainder history (no current-interval term)."""
    times = tuple(times)
    return TimeSlicedField(times, state.lattice, _decayed(state.remainder_sum, times))


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
        return fmc_norm(x, m_next, params.decay_c, params.beta)

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


def apply_interval(state: DecompositionState, sol: IntervalSolution, params: SolverParams,
                   previous=None):
    """Append the interval-end correction and remainder to the histories,
    extending their running sums, and emit the step's certificate record.

    previous is the certificate record of the step that ended at state.m;
    the new record extends its running constants by the new age alone.
    Without it every age is fitted.
    """
    from .certificates import build_record  # local import to avoid a cycle

    h, g = sol.correction.last_slice(), sol.fixed_point.solution.last_slice()
    new_state = DecompositionState(
        m=state.m + 1,
        initial_field=state.initial_field,
        gaussian_history=state.gaussian_history + (h,),
        remainder_history=state.remainder_history + (g,),
        gaussian_sum=_extend_sum(state.gaussian_sum, h),
        remainder_sum=_extend_sum(state.remainder_sum, g),
    )
    record = build_record(state.m, new_state, sol, params, previous)
    return new_state, record


def induction_steps(state: DecompositionState, params: SolverParams, count: int):
    """Advance count unit intervals from state, yielding
    (interval solution, new state, certificate record) after each step;
    each record is handed to the next step, which extends it.

    A ConvergenceError propagates from the step that failed; the last state
    yielded before it is the state that step started from.
    """
    record = None
    for _ in range(count):
        sol = solve_interval(state, params)
        state, record = apply_interval(state, sol, params, record)
        yield sol, state, record

