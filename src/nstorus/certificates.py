"""Numerical certificates: fit the minimal constants that make the solver's
decay bounds hold and track their stability across induction steps.

Nothing here assumes a value for any constant. Each fitter returns the
smallest admissible constant on the truncated lattice (a sup over supported
modes, evaluated in log space where Gaussian weights would overflow), and
the per-step record collects them so that boundedness in m can be checked
empirically. Checks use grid suprema only; restricting a pointwise-in-t
bound to grid times weakens it but cannot falsify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import TimeSlicedField, fmc_norm, phi_norm
from .induction import DecompositionState, FixedPointResult, IntervalSolution
from .params import SolverParams

__all__ = [
    "CertificateRecord",
    "ContractionEstimate",
    "fit_gaussian_bound",
    "fit_remainder_bound",
    "check_gaussian_envelope",
    "contraction_coefficients",
    "build_record",
]


@dataclass(frozen=True)
class CertificateRecord:
    """Fitted constants and fixed-point diagnostics for one induction step.

    gaussian_D:      max over ages j of the minimal D in
                     |h_j(k)| <= D delta^2 exp(-j|k|^2/2) / |k|^(2 eps)
    remainder_D:     max over j of the minimal D in
                     |g_j(k)| <= D delta^2 exp(-decay_c sqrt(j)|k|) / |k|^beta
    remainder_decay: min over j of the least-squares fitted decay rate of
                     g_j (nan when no fit was possible)
    envelope_D:      minimal D in the assembled gaussian-part envelope
                     (D delta^2/|k|^(2 eps)) (1-exp(-t|k|^2/2))/|k|^2 exp(-(m+1)|k|^2/2)
    c1, c2, c3:      measured forcing norm, linear gain and quadratic gain
                     of the remainder fixed point (c3 is nan when the
                     iterates stayed at zero)
    phi_sup:         sup over the step's grid times of the data-norm of v
    """

    m: int
    gaussian_D: float
    remainder_D: float
    remainder_decay: float
    envelope_D: float
    c1: float
    c2: float
    c3: float
    contraction_ok: bool
    fp_iterations: int
    phi_sup: float


@dataclass(frozen=True)
class ContractionEstimate:
    c1: float
    c2: float
    c3: float
    satisfied: bool


def fit_gaussian_bound(history, params: SolverParams, first_age: int = 1) -> np.ndarray:
    """Per-age minimal D with |h_j(k)| <= D delta^2 exp(-j|k|^2/2)/|k|^(2 eps),
    for history[i] of age j = first_age + i.

    Evaluated in log space: the compensating weight exp(+j|k|^2/2) overflows
    long before the products do.
    """
    out = np.zeros(len(history))
    log_d2 = 2.0 * math.log(params.delta)
    for idx, h in enumerate(history):
        j = first_age + idx
        q = h.lattice.norm_sq_f
        mags = h.magnitudes()
        mask = mags > 0
        if not mask.any():
            continue
        logs = (np.log(mags[mask]) + params.epsilon * np.log(q[mask])
                + 0.5 * j * q[mask] - log_d2)
        out[idx] = math.exp(float(logs.max()))
    return out


def fit_remainder_bound(history, params: SolverParams, first_age: int = 1):
    """Per-age (minimal D at the configured decay rate, fitted decay rate),
    for history[i] of age j = first_age + i.

    The D column is the weighted remainder norm at index j divided by
    delta^2. The decay rate is least-squares fitted from
    log|g_j(k)| + beta log|k| against sqrt(j)|k| over supported modes; the
    fit is skipped (nan) when fewer than 4 supported modes remain or all
    supported modes share one |k| shell.
    """
    d_vals = np.zeros(len(history))
    rate_vals = np.full(len(history), np.nan)
    for idx, g in enumerate(history):
        j = first_age + idx
        d_vals[idx] = fmc_norm(g, j, params.decay_c, params.beta) / params.delta ** 2
        q = g.lattice.norm_sq_f
        mags = g.magnitudes()
        mask = mags > 0
        if mask.sum() < 4:
            continue
        kabs = np.sqrt(q[mask])
        if kabs.min() == kabs.max():   # one |k| shell; np.unique would import numpy.ma
            continue
        x = math.sqrt(j) * kabs
        y = np.log(mags[mask]) + params.beta * np.log(kabs)
        slope = np.polyfit(x, y, 1)[0]
        rate_vals[idx] = -slope
    return d_vals, rate_vals


def check_gaussian_envelope(gaussian_part: TimeSlicedField, m: int,
                            params: SolverParams) -> float:
    """Minimal D bounding the assembled gaussian part by
    (D delta^2/|k|^(2 eps)) (1 - exp(-t|k|^2/2))/|k|^2 exp(-(m+1)|k|^2/2)
    over all grid (t, k) with t > 0, as one masked (S, N) expression.

    The t = 0 slice is excluded: its envelope factor is exactly zero while
    the slice still carries history terms, so the bound form is degenerate
    there.
    """
    log_d2 = 2.0 * math.log(params.delta)
    t = np.asarray(gaussian_part.times)
    later = t > 0
    mags = gaussian_part.magnitudes()[later]
    q = gaussian_part.lattice.norm_sq_f
    log_mags = np.log(mags, out=np.full_like(mags, -np.inf), where=mags > 0)
    logs = (log_mags + (params.epsilon + 1.0) * np.log(q) + 0.5 * (m + 1) * q
            - np.log(-np.expm1(-0.5 * t[later, None] * q)) - log_d2)
    return math.exp(float(logs.max(initial=-np.inf)))


def contraction_coefficients(fp: FixedPointResult) -> ContractionEstimate:
    """Measured coefficients of the remainder equation's norm inequality.

    c1 is the forcing norm; c2 the largest measured linear gain over the
    iterates; c3 the largest measured quadratic gain (nan when every
    iterate was zero, e.g. zero data). satisfied reports the sufficient
    local contraction condition c2 + 2 c3 |g| < 1.
    """
    c1 = fp.forcing_norm
    if fp.measurements:
        c2 = max(lin / gn for gn, lin, _ in fp.measurements)
        c3 = max(quad / gn ** 2 for gn, _, quad in fp.measurements)
    else:
        c2 = 0.0
        c3 = float("nan")
    quad_term = 0.0 if fp.solution_norm == 0 else 2.0 * c3 * fp.solution_norm
    satisfied = bool(c2 + quad_term < 1.0)
    return ContractionEstimate(c1, c2, c3, satisfied)


def build_record(prev_m: int, new_state: DecompositionState,
                 sol: IntervalSolution, params: SolverParams,
                 previous: CertificateRecord | None = None) -> CertificateRecord:
    """Fill the per-step certificate from the step's fields and histories.

    The history constants are running extrema over ages. Given previous,
    the record of the step that ended at prev_m, only the new age is
    fitted and folded into previous's extrema, which gives the same values
    as fitting every age; without it every age is fitted.
    """
    gauss_hist, rem_hist, first_age = new_state.gaussian_history, new_state.remainder_history, 1
    if previous is not None:
        if previous.m != prev_m:
            raise ValueError(f"previous record is for m={previous.m}, not {prev_m}")
        gauss_hist, rem_hist, first_age = gauss_hist[-1:], rem_hist[-1:], new_state.m
    gauss = fit_gaussian_bound(gauss_hist, params, first_age)
    rem_d, rem_rate = fit_remainder_bound(rem_hist, params, first_age)
    if previous is not None:
        gauss = np.append(gauss, previous.gaussian_D)
        rem_d = np.append(rem_d, previous.remainder_D)
        rem_rate = np.append(rem_rate, previous.remainder_decay)
    envelope = check_gaussian_envelope(sol.gaussian_part, prev_m, params)
    ce = contraction_coefficients(sol.fixed_point)
    finite_rates = rem_rate[np.isfinite(rem_rate)]
    return CertificateRecord(
        m=new_state.m,
        gaussian_D=float(gauss.max(initial=0.0)),
        remainder_D=float(rem_d.max(initial=0.0)),
        remainder_decay=float(finite_rates.min()) if finite_rates.size else float("nan"),
        envelope_D=envelope,
        c1=ce.c1,
        c2=ce.c2,
        c3=ce.c3,
        contraction_ok=ce.satisfied,
        fp_iterations=sol.fixed_point.iterations,
        phi_sup=phi_norm(sol.velocity, params.alpha),
    )
