import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import nstorus.fields
from nstorus import (
    CertificateRecord,
    SolverParams,
    SpectralField,
    TimeSlicedField,
    check_gaussian_envelope,
    fit_gaussian_bound,
    fit_remainder_bound,
    fmc_norm,
    unit_times,
)
from nstorus.induction import (DecompositionState, apply_interval, induction_steps,
                               iterate_contraction, solve_interval)
from util import random_field, random_sliced

PARAMS = SolverParams()
ROOT = Path(__file__).resolve().parents[1]


def unit_perp_directions(lat):
    dirs = np.zeros((len(lat), 3))
    for i, (kx, ky, kz) in enumerate(lat.sites.tolist()):
        perp = np.array([-ky, kx, 0.0]) if (kx, ky) != (0, 0) else np.array([1.0, 0.0, 0.0])
        dirs[i] = perp / np.linalg.norm(perp)
    return dirs


def planted_gaussian_entry(lat, j, params, constant=1.0):
    """|h_j(k)| = constant * delta^2 exp(-j|k|^2/2) / |k|^(2 eps) exactly."""
    q = lat.norm_sq_f
    mags = constant * params.delta ** 2 * np.exp(-0.5 * j * q) / q ** params.epsilon
    return SpectralField(lat, unit_perp_directions(lat) * mags[:, None])


def planted_remainder_entry(lat, j, params, constant=1.0, rate=None):
    rate = params.decay_c if rate is None else rate
    q = lat.norm_sq_f
    mags = (constant * params.delta ** 2
            * np.exp(-rate * math.sqrt(j) * np.sqrt(q)) / q ** (params.beta / 2.0))
    return SpectralField(lat, unit_perp_directions(lat) * mags[:, None])


# -- gaussian-family bound ------------------------------------------------------

def test_gaussian_fit_zero_history(ball2):
    for age in (1, 2, 3):
        assert fit_gaussian_bound(SpectralField.zero(ball2), age, PARAMS) == 0.0


def test_gaussian_fit_recovers_planted_constant(ball2):
    for age in (1, 2, 3):
        h = planted_gaussian_entry(ball2, age, PARAMS)
        assert fit_gaussian_bound(h, age, PARAMS) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_fit_scale_covariant(ball2):
    h = planted_gaussian_entry(ball2, 1, PARAMS)
    base = fit_gaussian_bound(h, 1, PARAMS)
    scaled = fit_gaussian_bound(h * 7.5, 1, PARAMS)
    assert scaled == pytest.approx(7.5 * base, rel=1e-12)


def test_gaussian_fit_survives_extreme_ages(ball2):
    # weights exp(+j|k|^2/2) overflow in linear arithmetic long before age 400
    age = 400
    assert fit_gaussian_bound(SpectralField.zero(ball2), age - 1, PARAMS) == 0.0
    h = planted_gaussian_entry(ball2, age, PARAMS, constant=2.0)
    assert fit_gaussian_bound(h, age, PARAMS) == pytest.approx(2.0, rel=1e-9)


# -- remainder-family bound -----------------------------------------------------

def test_remainder_fit_zero_history(ball2):
    for age in (1, 2):
        d, rate = fit_remainder_bound(SpectralField.zero(ball2), age, PARAMS)
        assert d == 0.0
        assert math.isnan(rate)


def test_remainder_fit_recovers_planted_constant_and_rate(ball2):
    for age in (1, 2):
        d, rate = fit_remainder_bound(planted_remainder_entry(ball2, age, PARAMS), age, PARAMS)
        assert d == pytest.approx(1.0, rel=1e-12)
        assert rate == pytest.approx(PARAMS.decay_c, rel=1e-6)


def test_remainder_fit_reads_the_magnitudes_once(ball2, monkeypatch):
    # D and the rate fit share one magnitude pass, and D is still the
    # fmc norm divided by delta twice, bit for bit
    g = planted_remainder_entry(ball2, 2, PARAMS, constant=0.5, rate=0.9)
    want = fmc_norm(g, 2, PARAMS.decay_c, PARAMS.beta) / PARAMS.delta / PARAMS.delta
    calls = []
    site_magnitudes = nstorus.fields.site_magnitudes

    def counting(data):
        calls.append(1)
        return site_magnitudes(data)

    monkeypatch.setattr(nstorus.fields, "site_magnitudes", counting)
    d, rate = fit_remainder_bound(g, 2, PARAMS)
    assert len(calls) == 1
    assert d == want
    assert rate == pytest.approx(0.9, rel=1e-6)


def test_remainder_fit_recovers_other_rates(ball2):
    g = planted_remainder_entry(ball2, 3, PARAMS, constant=0.5, rate=0.9)
    _, rate = fit_remainder_bound(g, 3, PARAMS)
    assert rate == pytest.approx(0.9, rel=1e-6)


def polyfit_rate(g, age, params):
    """The remainder fit's rate as np.polyfit gives it: the reference for
    the closed-form slope, which needs no LAPACK."""
    mags = g.magnitudes()
    kabs = np.sqrt(g.lattice.norm_sq_f[mags > 0])
    y = np.log(mags[mags > 0]) + params.beta * np.log(kabs)
    return -float(np.polyfit(math.sqrt(age) * kabs, y, 1)[0])


@pytest.mark.parametrize("age", [1, 2, 50, 400])
def test_remainder_fit_rate_equals_polyfit(ball2, ball3, age):
    rng = np.random.default_rng(age)
    entries = [planted_remainder_entry(ball2, age, PARAMS),
               planted_remainder_entry(ball3, age, PARAMS, constant=0.5, rate=0.9),
               *(random_field(lat, rng, scale=1e-3) for lat in (ball2, ball3) for _ in range(3))]
    for g in entries:
        rate = fit_remainder_bound(g, age, PARAMS)[1]
        assert rate == pytest.approx(polyfit_rate(g, age, PARAMS), rel=1e-14, abs=0)


def test_remainder_fit_reads_entries_below_the_squares_range(ball2):
    # every entry is below 1e-155, where the squares of the components are
    # subnormal or zero: read from them, the outer shells lose bits or leave
    # the support and the fitted rate turns negative
    constant = 10.0 ** -160.9 / PARAMS.delta ** 2
    g = planted_remainder_entry(ball2, 1, PARAMS, constant=constant)
    assert g.magnitudes().max() < 1e-155
    d, rate = fit_remainder_bound(g, 1, PARAMS)
    assert g.support_size == len(ball2)
    assert rate > 0
    assert rate == pytest.approx(PARAMS.decay_c, rel=1e-6)
    assert d == pytest.approx(constant, rel=1e-12, abs=0)


def test_remainder_fit_skipped_for_sparse_support(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1e-9, 0.0),
                                         (0, 1, 0): (1e-9, 0.0, 0.0)})
    d, rate = fit_remainder_bound(f, 1, PARAMS)
    assert d > 0
    assert math.isnan(rate)


def test_remainder_fit_skipped_for_one_shell(ball2):
    # six supported modes, all with |k| = 1: no slope to fit
    f = SpectralField.from_modes(ball2, {s: (1e-9, 1e-9, 0.0) for s in
                                         [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                          (0, -1, 0), (0, 0, 1), (0, 0, -1)]})
    d, rate = fit_remainder_bound(f, 1, PARAMS)
    assert f.support_size == 6 and d > 0
    assert math.isnan(rate)


def test_induction_step_imports_no_masked_arrays():
    # numpy.ma costs about 20 ms to import, paid inside the first timed
    # solve of a process if anything on the step's path pulls it in
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from nstorus import LatticeSpec, SolverParams, get_lattice
        from nstorus.induction import DecompositionState, induction_steps
        sys.path.insert(0, sys.argv[1])
        from util import random_field
        v0 = random_field(get_lattice(LatticeSpec(3)), np.random.default_rng(5), 1e-3)
        state = DecompositionState.initial(v0)
        for _, _, rec in induction_steps(state, SolverParams(), 1):
            assert not np.isnan(rec.remainder_decay)   # the fit ran
        print("numpy.ma" in sys.modules)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "tests")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_remainder_fit_scale_covariant(ball2):
    g = planted_remainder_entry(ball2, 2, PARAMS)
    base = fit_remainder_bound(g, 2, PARAMS)[0]
    scaled = fit_remainder_bound(g * 3.0, 2, PARAMS)[0]
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


# -- assembled gaussian-part envelope ----------------------------------------------

def test_envelope_zero_part(ball2):
    part = TimeSlicedField.zero(ball2, unit_times(4))
    assert check_gaussian_envelope(part, 0, PARAMS) == 0.0


def test_envelope_recovers_planted_constant(ball2):
    m = 2
    times = unit_times(4)
    q = ball2.norm_sq_f
    dirs = unit_perp_directions(ball2)
    slices = []
    for t in times:
        mags = (PARAMS.delta ** 2 / q ** PARAMS.epsilon
                * -np.expm1(-0.5 * t * q) / q * np.exp(-0.5 * (m + 1) * q))
        slices.append(SpectralField(ball2, dirs * mags[:, None]))
    part = TimeSlicedField.from_slices(times, tuple(slices))
    assert check_gaussian_envelope(part, m, PARAMS) == pytest.approx(1.0, rel=1e-12)


def test_envelope_ignores_degenerate_initial_slice(ball2):
    # a nonzero t = 0 slice (history terms) must not blow the fit up
    times = unit_times(4)
    h = random_field(ball2, np.random.default_rng(0), scale=1e-8)
    slices = [h] + [SpectralField.zero(ball2)] * 4
    part = TimeSlicedField.from_slices(times, tuple(slices))
    assert check_gaussian_envelope(part, 0, PARAMS) == 0.0


# -- contraction coefficients -------------------------------------------------------

def norm_fn(x):
    return fmc_norm(x, 1, PARAMS.decay_c, PARAMS.beta)


def test_contraction_zero_data(ball2):
    zero = TimeSlicedField.zero(ball2, unit_times(2))
    fp = iterate_contraction(zero, lambda g: (g * 0.0, g * 0.0),
                             norm_fn, tol=1e-12, max_iter=5)
    assert fp.forcing_norm == 0.0 and fp.linear_gain == 0.0
    assert math.isnan(fp.quadratic_gain)
    assert fp.contracts


def test_contraction_measures_synthetic_linear_gain(ball2):
    forcing = random_sliced(ball2, unit_times(2), np.random.default_rng(3), scale=1e-4)
    fp = iterate_contraction(forcing, lambda g: (g * 0.3, g * 0.0),
                             norm_fn, tol=1e-14, max_iter=80)
    assert fp.linear_gain == pytest.approx(0.3, abs=1e-10)
    assert fp.contracts


def test_contraction_measures_quadratic_gain(ball2):
    forcing = random_sliced(ball2, unit_times(2), np.random.default_rng(4), scale=1e-5)

    def quad(g):
        return g * (norm_fn(g) * 0.25)  # |quad(g)| = 0.25 |g|^2

    fp = iterate_contraction(forcing, lambda g: (g * 0.0, quad(g)),
                             norm_fn, tol=1e-16, max_iter=80)
    assert fp.quadratic_gain == pytest.approx(0.25, rel=1e-8)


# -- the per-step ledger ------------------------------------------------------------

def test_ledger_records_equal_full_refits(ball2):
    # each step fits only its new age and folds it into the state's running
    # extrema: the same values as fitting every age again
    params = SolverParams(delta=0.03)
    state = DecompositionState.initial(random_field(ball2, np.random.default_rng(2), 0.01))
    finite_rates = 0
    entries = []
    for sol, state, record in induction_steps(state, params, 32):
        entries.append((sol.h, sol.g))
        gaussian_d, remainder_d, remainder_decay = state.bounds
        gauss = [fit_gaussian_bound(h, age, params) for age, (h, _) in enumerate(entries, 1)]
        rem_d, rem_rate = zip(*(fit_remainder_bound(g, age, params)
                                for age, (_, g) in enumerate(entries, 1)))
        rates = [rate for rate in rem_rate if math.isfinite(rate)]
        assert gaussian_d == max(gauss)
        assert remainder_d == max(rem_d)
        if rates:
            finite_rates += 1
            assert remainder_decay == min(rates)
        else:
            assert math.isnan(remainder_decay)
        assert (record.gaussian_D, record.remainder_D) == (gaussian_d, remainder_d)
    assert finite_rates > 0 and gaussian_d > 0 and remainder_d > 0


def test_apply_interval_loop_records_equal_induction_steps(ball2):
    # a caller that loops solve_interval + apply_interval itself passes no
    # record along and still gets induction_steps' running constants
    params = SolverParams(delta=0.03)
    v0 = random_field(ball2, np.random.default_rng(2), 0.01)
    state = DecompositionState.initial(v0)
    looped = []
    for _ in range(8):
        sol = solve_interval(state, params)
        state, record = apply_interval(state, sol, params)
        looped.append(record)
    stepped = [r for _, _, r in induction_steps(DecompositionState.initial(v0), params, 8)]
    assert len(looped) == len(stepped) == 8
    for a, b in zip(looped, stepped):
        for name in CertificateRecord._fields:
            x, y = getattr(a, name), getattr(b, name)
            assert x == y or (math.isnan(x) and math.isnan(y)), (a.m, name)


def looped_envelope(gaussian_part, m, params):
    """check_gaussian_envelope as one masked fit per slice."""
    log_d2 = 2.0 * math.log(params.delta)
    best = 0.0
    for t, sl in zip(gaussian_part.times, gaussian_part.slices):
        if t <= 0:
            continue
        q = sl.lattice.norm_sq_f
        mags = sl.magnitudes()
        mask = mags > 0
        if not mask.any():
            continue
        qm = q[mask]
        logs = (np.log(mags[mask]) + (params.epsilon + 1.0) * np.log(qm)
                + 0.5 * (m + 1) * qm - np.log(-np.expm1(-0.5 * t * qm)) - log_d2)
        best = max(best, math.exp(float(logs.max())))
    return best


@pytest.mark.parametrize("seed", range(6))
def test_envelope_equals_per_slice_loop(ball3, seed):
    rng = np.random.default_rng(seed)
    times = (0.0, *np.sort(rng.uniform(0, 3, 6)))
    part = TimeSlicedField.from_slices(times, [
        random_field(ball3, rng, scale=10.0 ** rng.uniform(-12, 0), sparsity=rng.uniform(0, 1))
        for _ in times])
    m = int(rng.integers(0, 40))
    assert check_gaussian_envelope(part, m, PARAMS) == looped_envelope(part, m, PARAMS)
