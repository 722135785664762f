import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import (
    DecompositionState,
    PicardTrajectory,
    SpectralField,
    TimeSlicedField,
    assemble_heat_part,
    fmc_norm,
    phi_norm,
    unit_times,
)
from nstorus.induction import _heat_weights
from util import ball, random_field


def saturating_phi_field(lat, alpha):
    """|v(k)| = |k|^-alpha with amplitudes orthogonal to k on every site."""
    data = np.zeros((len(lat), 3), dtype=np.complex128)
    for i, (kx, ky, kz) in enumerate(lat.sites.tolist()):
        # a unit vector orthogonal to k
        perp = np.array([-ky, kx, 0.0]) if (kx, ky) != (0, 0) else np.array([1.0, 0.0, 0.0])
        perp = perp / np.linalg.norm(perp)
        data[i] = perp * lat.norm_sq_f[i] ** (-alpha / 2.0)
    return SpectralField(lat, data)


# -- phi norm ----------------------------------------------------------------

def test_phi_norm_zero_field(ball2):
    assert phi_norm(SpectralField.zero(ball2), 2.25) == 0.0


def test_phi_norm_saturating_field(ball2):
    f = saturating_phi_field(ball2, 2.25)
    assert phi_norm(f, 2.25) == pytest.approx(1.0, rel=1e-14)


def test_phi_norm_single_entry(ball2):
    f = SpectralField.from_modes(ball2, {(1, 1, 1): (0.0, 2.0, 0.0)})
    # |k|^alpha |f| at the single site: 3^(2.25/2) * 2
    assert phi_norm(f, 2.25) == pytest.approx(2.0 * 3.0 ** 1.125, rel=1e-13)


# -- weighted remainder norm ---------------------------------------------------

def test_fmc_norm_zero_field(ball2):
    assert fmc_norm(SpectralField.zero(ball2), 4, 0.5, 3.5) == 0.0


def test_fmc_norm_saturating_field(ball2):
    m, c, beta = 4, 0.5, 3.5
    q = ball2.norm_sq_f
    data = np.zeros((len(ball2), 3), dtype=np.complex128)
    for i, (kx, ky, kz) in enumerate(ball2.sites.tolist()):
        perp = np.array([-ky, kx, 0.0]) if (kx, ky) != (0, 0) else np.array([1.0, 0.0, 0.0])
        perp = perp / np.linalg.norm(perp)
        mag = q[i] ** (-beta / 2.0) * math.exp(-c * math.sqrt(m) * math.sqrt(q[i]))
        data[i] = perp * mag
    f = SpectralField(ball2, data)
    assert fmc_norm(f, m, c, beta) == pytest.approx(1.0, rel=1e-13)


def test_fmc_norm_single_entry(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    # weight exp(c sqrt(m) |k|) = exp(0.5 * 2 * 1) = e at |k| = 1
    assert fmc_norm(f, 4, 0.5, 3.5) == pytest.approx(math.e, rel=1e-14)


def test_fmc_norm_zero_field_at_large_m():
    # the weight overflows to inf at |k| = 8 for m = 1e6; empty sites
    # must not turn that into nan
    assert fmc_norm(SpectralField.zero(ball(8)), 1e6, 1 / math.sqrt(3), 3.5) == 0.0


def test_fmc_norm_low_mode_field_finite_at_large_m():
    lat = ball(8)
    f = SpectralField.from_modes(lat, {(1, 0, 0): (0.0, 1.0, 0.0), (0, 0, -1): (1.0, 0.0, 0.0)})
    c = 1 / math.sqrt(3)
    value = fmc_norm(f, 1e6, c, 3.5)
    assert math.isfinite(value)
    assert value == pytest.approx(math.exp(c * 1e3), rel=1e-12)


def test_fmc_norm_rejects_small_beta(ball2):
    with pytest.raises(ValueError):
        fmc_norm(SpectralField.zero(ball2), 1, 0.5, 3.0)


def supported_fmc_norm(f, m, c, beta):
    """fmc_norm of one field with the weights evaluated on its support only."""
    mags = f.magnitudes()
    q = f.lattice.norm_sq_f[mags > 0]
    with np.errstate(over="ignore"):
        weights = q ** (beta / 2.0) * np.exp(c * np.sqrt(float(m)) * np.sqrt(q))
    return float(np.max(weights * mags[mags > 0], initial=0.0))


@pytest.mark.parametrize("seed", range(6))
def test_per_slice_norms_equal_per_slice_calls(seed):
    # norm_series.csv's columns: one masked reduction per slice, equal to
    # one call per slice field; m up to 1e6 overflows weights at empty sites
    lat = ball(3)
    rng = np.random.default_rng(seed)
    times = tuple(float(t) for t in range(5))
    f = TimeSlicedField.from_slices(times, [
        random_field(lat, rng, scale=10.0 ** rng.uniform(-12, 0), sparsity=rng.uniform(0, 1))
        for _ in times])
    m = float(rng.choice([1, 7, 1e6]))
    assert phi_norm(f, 2.25, axis=-1).tolist() == [phi_norm(s, 2.25) for s in f.slices]
    assert fmc_norm(f, m, 0.5, 3.5, axis=-1).tolist() == \
        [supported_fmc_norm(s, m, 0.5, 3.5) for s in f.slices]
    assert phi_norm(f, 2.25) == max(phi_norm(s, 2.25) for s in f.slices)


# -- heat weights: the clamped factors exp(-t|k|^2) of the heat part -----------

def test_heat_identity_at_t0(ball2):
    assert np.array_equal(_heat_weights(np.zeros(1), ball2.norm_sq_f), np.ones((1, len(ball2))))
    rng = np.random.default_rng(7)
    f = random_field(ball2, rng)
    part = assemble_heat_part(DecompositionState.initial(f), (0.0,))
    assert np.array_equal(part.data[0], f.data)


def test_heat_single_mode(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    part = assemble_heat_part(DecompositionState.initial(f), (0.0, 1.0))
    assert part.at_time(1.0)[(1, 0, 0)][1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_heat_factor_eval(ball2):
    w = _heat_weights(np.array([0.5]), ball2.norm_sq_f)[0]
    assert w[ball2.site_index((1, 1, 1))] == pytest.approx(math.exp(-1.5), rel=1e-15)


def test_heat_rejects_negative_t(ball2):
    with pytest.raises(ValueError):
        _heat_weights(np.array([0.5, -0.1]), ball2.norm_sq_f)
    with pytest.raises(ValueError):
        assemble_heat_part(DecompositionState.initial(SpectralField.zero(ball2)), (-0.1, 0.0))


def test_heat_underflow_prunes_support(ball2):
    f = SpectralField.from_modes(ball2, {(2, 0, 0): (0.0, 1.0, 0.0)})
    part = assemble_heat_part(DecompositionState.initial(f), (0.0, 200.0))
    assert part.at_time(200.0).support_size == 0  # exp(-800) is below the clamp
    assert _heat_weights(np.array([200.0]), ball2.norm_sq_f)[0][ball2.site_index((2, 0, 0))] == 0


@settings(max_examples=50, deadline=None)
@given(st.floats(0, 2), st.floats(0, 2), st.integers(0, 2 ** 32 - 1))
def test_heat_semigroup(s, t, seed):
    lat = ball(2)
    f = random_field(lat, np.random.default_rng(seed))
    w = _heat_weights(np.array([s, t, s + t]), lat.norm_sq_f)
    assert np.allclose(w[0] * w[1], w[2], rtol=1e-13, atol=0)
    state = DecompositionState.initial(f)
    two_steps = assemble_heat_part(state, (s,)).data[0] * w[1][:, None]
    one_step = assemble_heat_part(state, (s + t,)).data[0]
    assert np.allclose(two_steps, one_step, rtol=1e-13, atol=0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 50), st.integers(0, 2 ** 32 - 1))
def test_heat_contracts_phi_norm(t, seed):
    lat = ball(2)
    f = random_field(lat, np.random.default_rng(seed))
    part = assemble_heat_part(DecompositionState.initial(f), (0.0, t) if t > 0 else (0.0,))
    assert phi_norm(part, 2.25, axis=-1)[-1] <= phi_norm(f, 2.25)


# -- norm axioms ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3)))
def test_norms_absolutely_homogeneous(seed, s):
    lat = ball(2)
    f = random_field(lat, np.random.default_rng(seed))
    assert phi_norm(f * s, 2.25) == pytest.approx(abs(s) * phi_norm(f, 2.25), rel=1e-12, abs=1e-300)
    assert fmc_norm(f * s, 3, 0.5, 3.5) == pytest.approx(
        abs(s) * fmc_norm(f, 3, 0.5, 3.5), rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_norms_triangle_inequality(seed):
    lat = ball(2)
    rng = np.random.default_rng(seed)
    f, g = random_field(lat, rng), random_field(lat, rng)
    assert phi_norm(f + g, 2.25) <= (phi_norm(f, 2.25) + phi_norm(g, 2.25)) * (1 + 1e-14)
    assert fmc_norm(f + g, 3, 0.5, 3.5) <= (
        fmc_norm(f, 3, 0.5, 3.5) + fmc_norm(g, 3, 0.5, 3.5)) * (1 + 1e-14)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.floats(0.05, 2.0), st.floats(0.05, 2.0),
       st.floats(3.01, 8.0), st.floats(3.01, 8.0))
def test_fmc_norm_monotone_in_parameters(seed, m1, m2, c1, c2, b1, b2):
    lat = ball(2)
    f = random_field(lat, np.random.default_rng(seed))
    if phi_norm(f, 0.0) == 0.0:
        return
    lo = fmc_norm(f, min(m1, m2), min(c1, c2), min(b1, b2))
    hi = fmc_norm(f, max(m1, m2), max(c1, c2), max(b1, b2))
    assert hi >= lo * (1 - 1e-14)


# -- structure ----------------------------------------------------------------

def test_from_modes_rejects_offsite(ball2):
    with pytest.raises(KeyError):
        SpectralField.from_modes(ball2, {(5, 0, 0): (1.0, 0.0, 0.0)})
    with pytest.raises(KeyError):
        SpectralField.from_modes(ball2, {(0, 0, 0): (1.0, 0.0, 0.0)})


def test_field_data_is_read_only(ball2):
    f = SpectralField.zero(ball2)
    with pytest.raises(ValueError):
        f.data[0, 0] = 1.0


def test_field_arithmetic_and_items(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 2.0, 0.0)})
    g = SpectralField.from_modes(ball2, {(0, 1, 0): (1.0, 0.0, 0.0)})
    h = f + g * 2.0 - f
    assert np.flatnonzero(h.data.any(axis=1)).tolist() == [ball2.site_index((0, 1, 0))]
    assert h.support_size == 1
    assert h[(0, 1, 0)][0] == 2.0
    assert (-h).support_size == 1


def test_lattice_mismatch_rejected(ball1, ball2):
    with pytest.raises(ValueError):
        SpectralField.zero(ball1) + SpectralField.zero(ball2)


def test_divergence_ratio_of_projected_field(ball2):
    f = random_field(ball2, np.random.default_rng(3))
    assert f.max_divergence_ratio() < 1e-12
    raw = random_field(ball2, np.random.default_rng(3), solenoidal=False)
    assert raw.max_divergence_ratio() > 1e-3


def test_reality_defect(ball2):
    data = np.zeros((len(ball2), 3), dtype=np.complex128)
    data[ball2.site_index((1, 0, 0))] = (0, 1 + 2j, 0)
    data[ball2.site_index((-1, 0, 0))] = (0, 1 - 2j, 0)
    f = SpectralField(ball2, data)
    assert f.reality_defect() == 0.0
    g = SpectralField.from_modes(ball2, {(1, 0, 0): (0, 1j, 0)})
    assert g.reality_defect() > 0


# -- the shared core: one implementation for both kinds ------------------------

def any_field(lat, rng):
    return random_field(lat, rng, solenoidal=False)


def any_sliced(lat, rng, times=unit_times(2)):
    slices = [random_field(lat, rng, solenoidal=False) for _ in times]
    slices[1] = SpectralField.zero(lat)  # an empty slice among full ones
    return TimeSlicedField.from_slices(times, slices)


def any_trajectory(lat, rng, times=unit_times(2)):
    x = any_sliced(lat, rng, times)
    return PicardTrajectory(x.times, lat, x.data, (1.0,))


@pytest.mark.parametrize("make", [any_field, any_sliced, any_trajectory],
                         ids=["field", "sliced", "trajectory"])
def test_field_core_algebra_and_invariants(make, ball1, ball2):
    rng = np.random.default_rng(11)
    x, y = make(ball2, rng), make(ball2, rng)
    kind = SpectralField if isinstance(x, SpectralField) else TimeSlicedField
    for result, expect in ((x + y, x.data + y.data), (x - y, x.data - y.data),
                           (-x, -x.data), (2 * x, x.data * 2), (x * 2, x.data * 2)):
        assert type(result) is kind  # a trajectory's sums are plain sliced fields
        assert getattr(result, "times", None) == getattr(x, "times", None)
        assert np.array_equal(result.data, expect)
    near = x + y * 1e-14
    for a, b in ((x, y), (x, near)):
        assert a.allclose(b) == np.allclose(a.data, b.data, rtol=1e-12, atol=0.0)
    assert x.allclose(near) and not x.allclose(y)

    other_kind = any_sliced(ball2, rng) if kind is SpectralField else any_field(ball2, rng)
    mismatched = [other_kind, make(ball1, rng)]
    if kind is TimeSlicedField:
        mismatched.append(make(ball2, rng, unit_times(4)))
    for z in mismatched:
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a.allclose(b)):
            with pytest.raises(ValueError):
                op(x, z)
            with pytest.raises(ValueError):
                op(z, x)

    slices = x.slices if kind is TimeSlicedField else (x,)
    assert x.max_divergence_ratio() == max(s.max_divergence_ratio() for s in slices) > 1e-3
    assert x.reality_defect() == max(s.reality_defect() for s in slices) > 0
