"""Numerical certificates: fit the minimal constants that make the solver's
decay bounds hold and track their stability across induction steps.

Nothing here assumes a value for any constant. Each fitter takes one
history entry and its age, the unit a step adds, and returns the smallest
admissible constant on the truncated lattice (a sup over supported modes,
evaluated in log space where Gaussian weights would overflow).
DecompositionState.extended folds each new age's constants into running
extrema, which the per-step record collects so that boundedness in m can be
checked empirically; `check` re-fits a run's saved entries one age at a
time. Checks use grid suprema only; restricting a pointwise-in-t bound to
grid times weakens it but cannot falsify it.

Magnitudes come from fields.site_magnitudes, so no nonzero entry leaves
the support. The fits keep subnormal magnitudes (below 2^-1022): each is
within a few units of 2^-1074, which moves its log by at most about log 2,
while dropping them would bias a fitted rate towards the remaining shells.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .fields import SpectralField, TimeSlicedField, fmc_weights, phi_norm, weighted_sup
from .params import SolverParams

__all__ = [
    "CertificateRecord",
    "fit_gaussian_bound",
    "fit_remainder_bound",
    "check_gaussian_envelope",
    "build_record",
]


class CertificateRecord(NamedTuple):
    """Fitted constants and fixed-point diagnostics for one induction step:
    certificates.csv's columns (_fields) and one of its rows.

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
                     iterates stayed at zero); contraction_ok is the
                     sufficient local contraction condition c2 + 2 c3 |g| < 1.
                     On long runs the quadratic term underflows to zero and
                     c3 reads 0.0 (seed 0, delta 0.03: from m = 172 at k_max 2
                     and from m = 182 at k_max 4); contraction_ok then
                     tests c2 < 1 alone and says nothing about c3. Tiny
                     delta underflows the same way from the first step
                     (k_max 2, seed 0): c3 reads 0.0 at delta = 1e-60
                     (0.194 at 1e-50), c2 at 1e-90, and c1 and
                     remainder_D at 1e-110, each run exiting 0 with
                     contraction_ok true; below delta ~ 1.57e-162 every
                     product in a step underflows, and every record
                     reads gaussian_D, remainder_D, envelope_D, c1 and
                     c2 = 0.0, c3 = nan and contraction_ok = true, a
                     certificate that says nothing
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


def _log_magnitudes(mags: np.ndarray) -> np.ndarray:
    """log of the magnitudes, -inf at zero sites, so a sup in log space
    skips them."""
    return np.log(mags, out=np.full_like(mags, -np.inf), where=mags > 0)


def fit_gaussian_bound(h: SpectralField, age: int, params: SolverParams) -> float:
    """Minimal D with |h(k)| <= D delta^2 exp(-age|k|^2/2)/|k|^(2 eps) for
    the gaussian history entry h of that age, as one masked expression over
    the sites; an all-zero entry gives 0.

    Evaluated in log space: the compensating weight exp(+age|k|^2/2)
    overflows long before the products do.
    """
    q = h.lattice.norm_sq_f
    logs = (_log_magnitudes(h.magnitudes()) + params.epsilon * np.log(q) + 0.5 * age * q
            - 2.0 * math.log(params.delta))
    return math.exp(float(logs.max(initial=-np.inf)))


def fit_remainder_bound(g: SpectralField, age: int, params: SolverParams) -> tuple[float, float]:
    """(minimal D at the configured decay rate, fitted decay rate) for the
    remainder history entry g of that age.

    D is the weighted remainder norm at index age (fields.fmc_norm, from
    the same magnitudes as the fit) divided by delta twice. The decay rate
    is least-squares fitted from log|g(k)| + beta log|k| against
    sqrt(age)|k| over supported modes; the fit is skipped (nan) when fewer
    than 4 supported modes remain or all supported modes share one |k|
    shell.
    """
    mags = g.magnitudes()   # once, for D and for the fit
    fmc = weighted_sup(mags, fmc_weights(g.lattice, age, params.decay_c, params.beta))
    # delta^2 is never formed: it overflows above delta ~ 1.34e154 and
    # underflows to 0.0 below delta ~ 1.57e-162
    d = fmc / params.delta / params.delta
    mask = mags > 0
    kabs = np.sqrt(g.lattice.norm_sq_f[mask])
    # one |k| shell has no slope; np.unique would import numpy.ma
    if kabs.size < 4 or kabs.min() == kabs.max():
        return d, math.nan
    y = np.log(mags[mask]) + params.beta * np.log(kabs)
    # the least-squares slope from centred sums: np.polyfit would page in
    # LAPACK, about 1 MB of code, to fit this one line
    x = math.sqrt(age) * kabs
    xc = x - x.mean()
    return d, -float(xc @ (y - y.mean()) / (xc @ xc))


def check_gaussian_envelope(gaussian_part: TimeSlicedField, m: int,
                            params: SolverParams) -> float:
    """Minimal D bounding the assembled gaussian part by
    (D delta^2/|k|^(2 eps)) (1 - exp(-t|k|^2/2))/|k|^2 exp(-(m+1)|k|^2/2)
    over all grid (t, k) with t > 0, as one masked (S, N) expression.

    The t = 0 slice is excluded: its envelope factor is exactly zero while
    the slice still carries history terms, so the bound form is degenerate
    there.
    """
    t = np.asarray(gaussian_part.times)
    later = t > 0
    mags = gaussian_part.magnitudes()[later]
    q = gaussian_part.lattice.norm_sq_f
    logs = (_log_magnitudes(mags) + (params.epsilon + 1.0) * np.log(q) + 0.5 * (m + 1) * q
            - np.log(-np.expm1(-0.5 * t[later, None] * q)) - 2.0 * math.log(params.delta))
    return math.exp(float(logs.max(initial=-np.inf)))


def build_record(state, sol, params: SolverParams) -> CertificateRecord:
    """Fill the certificate of the step that solved sol and ended at state.

    The history constants are state.bounds, the running extrema over ages
    1..m that DecompositionState.extended keeps; the fixed-point
    coefficients are its record's, the envelope constant is the one the
    step measured on its gaussian part, and phi_sup comes from its velocity.
    """
    gaussian_d, remainder_d, remainder_decay = state.bounds
    fp = sol.fixed_point
    return CertificateRecord(
        m=state.m,
        gaussian_D=gaussian_d,
        remainder_D=remainder_d,
        remainder_decay=remainder_decay,
        envelope_D=sol.envelope_D,
        c1=fp.forcing_norm,
        c2=fp.linear_gain,
        c3=fp.quadratic_gain,
        contraction_ok=fp.contracts,
        fp_iterations=fp.iterations,
        phi_sup=phi_norm(sol.velocity, params.alpha),
    )
