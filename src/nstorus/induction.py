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
from zero converges in fixed_point, the one loop, which the Picard oracle
runs too; iterate_contraction adds the certificates' gains. One
heat flow, heat_flow, gives the heat part and each history's part from
its running sum; the oracle forms the same product from the same cached
weights (heat_weights) in arrays of its own.

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
The certificate constants over ages are carried the same way: the state
folds only the new age's fit into them (see DecompositionState.extended).
So the state holds no per-age entry, and neither the cost nor the memory
of a step grows with m; a caller that wants the entries takes them from
the steps induction_steps yields, as IntervalSolution.h and .g.

Every part is a TimeSlicedField over the interval's grid. induction_steps
is the one loop over steps: runs, the smallness bisection and the scripts
all advance through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .certificates import (build_record, check_gaussian_envelope, fit_gaussian_bound,
                           fit_remainder_bound)
from .errors import ConvergenceError
from .fields import SpectralField, TimeSlicedField, UNDERFLOW_FLOOR, fmc_norm, slice_runs
from .operators import star_product, unit_times
from .params import SolverParams

__all__ = [
    "DecompositionState",
    "IntervalSolution",
    "FixedPointResult",
    "heat_flow",
    "heat_weights",
    "compute_gaussian_correction",
    "assemble_gaussian_part",
    "assemble_remainder_part",
    "assemble_forcing",
    "fixed_point",
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
    """Induction record at integer time m, built by DecompositionState.initial
    and grown one interval at a time by extended.

    initial_field is the t = 0 velocity. The two histories have one entry
    per completed interval j = 1..m, frozen at that interval's end, but the
    state holds no per-age entry: it holds what a step reads, the
    histories' running sums R_m (gaussian_sum and remainder_sum, see the
    module docstring) and bounds = (gaussian_D, remainder_D,
    remainder_decay), the certificate constants over ages 1..m: the maxima
    of the per-age minimal D and the minimum of the finite fitted decay
    rates (nan while there is none). Gaussian entries carry their
    |k|^(2 epsilon) factor multiplied in; assembly divides it back out.
    """

    initial_field: SpectralField
    m: int
    gaussian_sum: SpectralField = field(repr=False)
    remainder_sum: SpectralField = field(repr=False)
    bounds: tuple[float, float, float]

    @classmethod
    def initial(cls, v0: SpectralField) -> "DecompositionState":
        zero = SpectralField.zero(v0.lattice)
        return cls(v0, 0, zero, zero, (0.0, 0.0, math.nan))

    @property
    def lattice(self):
        return self.initial_field.lattice

    def extended(self, h: SpectralField, g: SpectralField,
                 params: SolverParams) -> "DecompositionState":
        """The state at m + 1, with h and g as the histories' age-(m + 1)
        entries: both running sums extended and the new age's fitted
        constants folded into bounds."""
        if h.lattice != self.lattice or g.lattice != self.lattice:
            raise ValueError("history fields must share the initial field's lattice")
        age = self.m + 1
        gauss_d, rem_d, rate = self.bounds
        new_rem_d, new_rate = fit_remainder_bound(g, age, params)
        bounds = (float(np.maximum(gauss_d, fit_gaussian_bound(h, age, params))),
                  float(np.maximum(rem_d, new_rem_d)), float(np.fmin(rate, new_rate)))
        return DecompositionState(self.initial_field, age, _extend_sum(self.gaussian_sum, h),
                                  _extend_sum(self.remainder_sum, g), bounds)


_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _extend_sum(total: SpectralField, entry: SpectralField) -> SpectralField:
    """The running sum one age on, exp(-|k|^2) total + entry, with every
    component below the normal range flushed to zero."""
    lat = entry.lattice
    data = heat_flow(total, 1, (0.0,)).data[0] + entry.data
    parts = data.view(np.float64)
    parts[np.abs(parts) < _SMALLEST_NORMAL] = 0.0
    return SpectralField(lat, data)


def heat_flow(f: SpectralField, m, times) -> TimeSlicedField:
    """exp(-(m+t)|k|^2) f at each grid time t: with f the initial data, the
    heat part of the step from integer time m (with m = 0 the Picard
    oracle's first iterate, which it forms as the same product in its own
    array); with f a running sum, that history's part.
    Weights below UNDERFLOW_FLOOR are zero, and a negative age m + t raises
    ValueError."""
    times = tuple(times)
    return TimeSlicedField(times, f.lattice, f.data * heat_weights(f.lattice, m, times))


@lru_cache(maxsize=8)
def heat_weights(lattice, m, times: tuple) -> np.ndarray:
    """heat_flow's weights exp(-(m+t)|k|^2), zero below UNDERFLOW_FLOOR, as a
    read-only (S+1, N, 1) array over the grid times t and the sites. Built
    once per lattice, m and grid and kept for the few most recent ones:
    the history parts, (0, times), and the running sums' decay, (1, (0.0,)),
    are the same on every step. A negative age raises ValueError."""
    ages = m + np.asarray(times, dtype=np.float64)
    if (ages < 0).any():
        raise ValueError("heat weights need non-negative ages")
    w = np.exp(-ages[:, None, None] * lattice.norm_sq_f[:, None])
    w[w < UNDERFLOW_FLOOR] = 0.0
    w.setflags(write=False)
    return w


def compute_gaussian_correction(heat_part: TimeSlicedField, params: SolverParams) -> TimeSlicedField:
    """|k|^(2 epsilon) times the heat part's self star product."""
    qe = heat_part.lattice.norm_sq_f ** params.epsilon
    prod = star_product(heat_part, heat_part, out=np.empty_like(heat_part.data))
    return heat_part._like(np.multiply(prod, qe[:, None], out=prod))


def assemble_gaussian_part(
    state: DecompositionState,
    correction: TimeSlicedField,
    params: SolverParams,
) -> TimeSlicedField:
    """Heat-decayed gaussian history plus the current-interval correction,
    all carrying the common 1/|k|^(2 epsilon) factor, on the correction's
    grid."""
    qe = state.lattice.norm_sq_f ** params.epsilon
    acc = correction.data + heat_flow(state.gaussian_sum, 0, correction.times).data
    return correction._like(np.divide(acc, qe[:, None], out=acc))


def assemble_remainder_part(state: DecompositionState, times) -> TimeSlicedField:
    """Heat-decayed remainder history (no current-interval term)."""
    return heat_flow(state.remainder_sum, 0, times)


def assemble_forcing(
    heat_part: TimeSlicedField,
    gaussian_part: TimeSlicedField,
    remainder_part: TimeSlicedField,
) -> TimeSlicedField:
    """Sum of the eight ordered star products of the three parts, excluding
    heat*heat (that pairing is the gaussian correction, not forcing), as
    S(H, G+R) + S(G+R, H+G+R): two star products and no subtraction. The
    second is added into the first's own array, and built first, so that
    H+G+R is dropped before the first exists."""
    rest = gaussian_part + remainder_part
    late = star_product(rest, heat_part + rest)
    early = star_product(heat_part, rest, out=np.empty_like(rest.data))
    return rest._like(np.add(early, late.data, out=early))


@dataclass(frozen=True, eq=False)
class FixedPointResult:
    """The one record of a remainder solve: the accepted solution, the norm
    of every update, the coefficients of the norm inequality and the
    residual |map(g) - g| and norm |g| at the solution g.

    linear_gain (c2) and quadratic_gain (c3) are the largest |linear(x)|/|x|
    and |quadratic(x)|/|x|^2 over the map evaluations at nonzero iterates,
    the final one at the solution included; 0.0 and nan when every iterate
    was zero. c1 is forcing_norm.
    """

    solution: TimeSlicedField
    update_norms: tuple[float, ...]
    linear_gain: float
    quadratic_gain: float
    residual: float
    solution_norm: float

    @property
    def iterations(self) -> int:
        return len(self.update_norms)

    @property
    def forcing_norm(self) -> float:
        """c1: the first update is the forcing itself."""
        return self.update_norms[0]

    @property
    def contracts(self) -> bool:
        """The sufficient local contraction condition c2 + 2 c3 |g| < 1."""
        g = self.solution_norm
        quad_term = 0.0 if g == 0 else 2.0 * self.quadratic_gain * g
        return bool(self.linear_gain + quad_term < 1.0)


def fixed_point(first, step, norm_fn, tol: float, max_iter: int):
    """Iterate x <- step(x) from the iterate first until the norm of the
    update falls below tol; returns (x, update_norms). first is iterate 1,
    the update from a zero start. Raises ConvergenceError after max_iter
    iterates, or at an update norm that is non-finite or above the
    divergence cap.

    step(x) returns the next iterate, or it overwrites x's data in place
    with the next iterate and returns the norm of the update as a float
    (x is then a view of an array the step owns, as in picard_solve).

    The iterates are sliced fields on one grid, and norm_fn must be a sup
    over slices, as fmc_norm and phi_norm are: its value on a field is the
    largest of its values on runs of consecutive slices that cover the
    grid, and nan when any of them is nan. Each update is measured so, a
    run at a time (update_norm), first included, and no update array is
    built; the loop drops first once it holds it as x. So beyond what step
    builds, the loop holds two whole-grid arrays, the iterate and the next
    one, or one when the step overwrites the iterate."""
    x, d = first, update_norm(norm_fn, first)
    del first
    updates: list[float] = []
    while True:
        ratio = d / updates[-1] if updates and updates[-1] > 0 else math.nan
        if not math.isfinite(d) or d > _DIVERGENCE_CAP:
            raise ConvergenceError(
                f"fixed-point iteration diverged after {len(updates) + 1} iterations "
                f"(update norm {d:.3e}, last ratio {ratio:.3e}); the data is outside "
                "the contraction regime",
                iterations=len(updates) + 1, last_update=d, last_ratio=ratio)
        updates.append(d)
        if d < tol:
            return x, tuple(updates)
        if len(updates) == max_iter:
            raise ConvergenceError(
                f"fixed-point iteration did not converge within {max_iter} iterations "
                f"(last update {d:.3e}, last ratio {ratio:.3e})",
                iterations=max_iter, last_update=d, last_ratio=ratio)
        nxt = step(x)
        if isinstance(nxt, float):   # x was overwritten in place
            d = nxt
        else:
            d = update_norm(norm_fn, nxt, x)
            x = nxt


def update_norm(norm_fn, new: TimeSlicedField, old: TimeSlicedField | None = None) -> float:
    """norm_fn(new - old), or norm_fn(new) without old, for norm_fn a sup
    over slices, from runs of slices (slice_runs), each built and measured
    alone, so that no temporary of norm_fn is as large as the grid. The
    runs' values are reduced by np.max, which keeps a nan wherever it
    stands: a running max() or a `d > best` test would drop a nan run,
    since nan compares false."""
    if old is not None:
        new._check_operand(old)
    return float(np.max([norm_fn(TimeSlicedField(
        new.times[run], new.lattice,
        new.data[run] if old is None else new.data[run] - old.data[run]))
        for run in slice_runs(len(new.data), new.data[0].nbytes)]))


def _sum(fields, out=None) -> TimeSlicedField:
    """The sum of sliced fields on one grid, added left to right as
    a + b + ... adds them, into out when given (an array of their shape,
    which one of them may view), else into one new array."""
    first, *rest = fields
    for f in rest:
        first._check_operand(f)
    acc = np.add(first.data, rest[0].data, out=out)
    for f in rest[1:]:
        np.add(acc, f.data, out=acc)
    return first._like(acc)


def iterate_contraction(forcing, maps, norm_fn, tol: float, max_iter: int) -> FixedPointResult:
    """Solve x = forcing + linear(x) + quadratic(x) by plain iteration from 0,
    where maps(x) returns the pair (linear(x), quadratic(x)) of sliced
    fields on x's grid. It may return a third item, an array that holds
    linear(x) and that nothing else reads: the image forcing + linear(x) +
    quadratic(x) is then summed into it once the gains are measured, so no
    array is built for the image (remainder_maps hands over linear's own).

    Both maps vanish at zero, so the first iterate of fixed_point is the
    forcing itself. After acceptance the map is evaluated once more at the
    solution to measure the residual and the last pair of gains.
    """
    gains: list[tuple[float, float]] = []

    def evaluate(x):
        """(|x|, the map at x), recording the gains at a nonzero x."""
        lin, quad, *own = maps(x)
        x_norm = norm_fn(x)
        if x_norm > 0:
            # x_norm ** 2 would underflow to 0.0 below x_norm ~ 1e-162
            gains.append((norm_fn(lin) / x_norm, norm_fn(quad) / x_norm / x_norm))
        return x_norm, _sum((forcing, lin, quad), *own)

    solution, updates = fixed_point(forcing, lambda x: evaluate(x)[1], norm_fn, tol, max_iter)
    # certification pass at the accepted solution
    solution_norm, image = evaluate(solution)
    linear_gain, quadratic_gain = map(max, zip(*gains)) if gains else (0.0, math.nan)
    return FixedPointResult(solution, updates, linear_gain, quadratic_gain,
                            update_norm(norm_fn, image, solution), solution_norm)


def remainder_maps(total: TimeSlicedField):
    """The fixed-point map's parts at g, as maps(g) = (linear, quadratic,
    linear's array): linear = S(T, g) + S(g, T) and quadratic = S(g, g) for
    T = total. S(g, T) and S(g, g) share their left factor, so they are one
    star product, whose two views they are: two interaction matrices per
    slice instead of three, and nothing copied out. S(g, T) is added into
    S(T, g)'s own array, which iterate_contraction then sums the image
    into: an evaluation builds three whole-grid arrays."""

    def maps(g):
        g_total, g_g = star_product(g, total, g)
        lin = star_product(total, g, out=np.empty_like(g.data))
        np.add(lin, g_total.data, out=lin)
        return g._like(lin[...]), g_g, lin

    return maps


def solve_remainder(forcing: TimeSlicedField, total: TimeSlicedField,
                    params: SolverParams, m_next: int) -> FixedPointResult:
    """Fixed point for the new remainder on the full substep grid, with total
    the sum of the three assembled parts.

    The convergence metric is the weighted remainder norm at index m_next
    with rate decay_c, maximized over grid slices.
    """
    maps = remainder_maps(total)

    def norm_fn(x):
        return fmc_norm(x, m_next, params.decay_c, params.beta)

    return iterate_contraction(forcing, maps, norm_fn, params.fp_tol, params.fp_max_iter)


@dataclass(frozen=True, eq=False)
class IntervalSolution:
    """What one unit interval's readers use: the assembled gaussian part's
    envelope constant (certificates.check_gaussian_envelope, at the step's
    m), the remainder solve and the velocity on the step's grid (the three
    parts plus the new remainder), and the interval-end fields, each a
    copy. h and g, the new gaussian correction and remainder at the
    interval's end, are the histories' age-(m + 1) entries that
    apply_interval folds into the state; v is the velocity at time m + 1.
    A run checkpoints them as h_, g_ and v_."""

    envelope_D: float
    fixed_point: FixedPointResult
    velocity: TimeSlicedField
    h: SpectralField
    g: SpectralField
    v: SpectralField

    @property
    def times(self) -> tuple[float, ...]:
        return self.velocity.times


def solve_interval(state: DecompositionState, params: SolverParams) -> IntervalSolution:
    """Assemble the three parts on the substep grid and solve for the new
    remainder; raises ConvergenceError outside the contraction regime.

    Each whole-grid array is built once, and dropped once the forcing and
    the total are built: the step keeps the correction's last slice and
    the gaussian part's envelope constant, so the remainder solve runs
    beside two standing grids, the forcing and the total.

    The parts of data too large for the contraction regime may overflow; the
    forcing is then non-finite and fixed_point raises at its norm, so numpy's
    overflow and invalid-value warnings are silenced while they are built."""
    times = unit_times(params.substeps)
    heat_part = heat_flow(state.initial_field, state.m, times)
    with np.errstate(over="ignore", invalid="ignore"):
        correction = compute_gaussian_correction(heat_part, params)
        h = correction.last_slice()
        gaussian_part = assemble_gaussian_part(state, correction, params)
        del correction
        envelope_d = check_gaussian_envelope(gaussian_part, state.m, params)
        remainder_part = assemble_remainder_part(state, times)
        forcing = assemble_forcing(heat_part, gaussian_part, remainder_part)
        total = _sum((heat_part, gaussian_part, remainder_part))
        del heat_part, gaussian_part, remainder_part
    fixed_point = solve_remainder(forcing, total, params, state.m + 1)
    del forcing
    velocity = total + fixed_point.solution
    return IntervalSolution(envelope_d, fixed_point, velocity, h,
                            fixed_point.solution.last_slice(), velocity.last_slice())


def apply_interval(state: DecompositionState, sol: IntervalSolution, params: SolverParams):
    """Extend state by the step's history entries sol.h and sol.g, and emit
    the step's certificate record."""
    new_state = state.extended(sol.h, sol.g, params)
    return new_state, build_record(new_state, sol, params)


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
