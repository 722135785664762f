import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import (
    DuhamelGrid,
    LatticeSpec,
    SpectralField,
    TimeSlicedField,
    TruncationRule,
    bilinear,
    duhamel_integrate,
    get_lattice,
    identity_split,
    leray_project,
    star_product,
    unit_times,
)
from util import ball, direct_bilinear, random_field, random_sliced


# -- Leray projection ----------------------------------------------------------

def test_leray_strips_parallel_component():
    assert np.allclose(leray_project((1, 0, 0), (1, 2, 3)), (0, 2, 3))


def test_leray_annihilates_parallel_vector():
    assert np.allclose(leray_project((0, 0, 2), (0, 0, 5)), (0, 0, 0))


def test_leray_worked_example():
    # <k,x> = 1, |k|^2 = 2: x - (1/2) k
    assert np.allclose(leray_project((1, 1, 0), (1, 0, 0)), (0.5, -0.5, 0.0))


def test_leray_rejects_zero_k():
    with pytest.raises(ValueError):
        leray_project((0, 0, 0), (1.0, 0.0, 0.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_leray_projector_algebra(seed):
    rng = np.random.default_rng(seed)
    k = rng.integers(-8, 9, size=3)
    if not k.any():
        k[0] = 1
    x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    px = leray_project(k, x)
    assert np.abs(leray_project(k, px) - px).max() < 1e-14       # idempotent
    assert abs(k.astype(float) @ px) < 1e-14                      # orthogonal
    assert np.abs(leray_project(k, k.astype(float))).max() < 1e-14
    a, b = 0.7, -1.3 + 0.4j
    lin = leray_project(k, a * x + b * y) - a * px - b * leray_project(k, y)
    assert np.abs(lin).max() < 1e-14


# -- bilinear convolution --------------------------------------------------------

def test_bilinear_zero_left_argument(ball2):
    v = random_field(ball2, np.random.default_rng(0))
    out = bilinear(SpectralField.zero(ball2), v)
    assert out.support_size == 0


def test_bilinear_single_mode_self_interaction_vanishes(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    assert bilinear(f, f).magnitudes().max() < 1e-16


def test_bilinear_hand_computed_pair(ball2):
    u = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    v = SpectralField.from_modes(ball2, {(0, 1, 0): (1.0, 0.0, 0.0)})
    out = bilinear(u, v)
    # single (l, k-l) pairing at k = (1,1,0):
    # 2 pi i * <k, u(1,0,0)> * P_k (1,0,0) = 2 pi i * (1/2, -1/2, 0)
    expect = np.array([np.pi * 1j, -np.pi * 1j, 0.0])
    assert np.allclose(out[(1, 1, 0)], expect, rtol=1e-14, atol=0)
    assert out.support_size == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bilinear_is_bilinear(seed):
    lat = ball(2)
    rng = np.random.default_rng(seed)
    u1, u2, v = (random_field(lat, rng) for _ in range(3))
    a, b = 1.7, -0.6 + 0.2j
    lhs = bilinear(u1 * a + u2 * b, v)
    rhs = bilinear(u1, v) * a + bilinear(u2, v) * b
    assert np.allclose(lhs.data, rhs.data, rtol=1e-12, atol=1e-300)
    lhs2 = bilinear(v, u1 * a + u2 * b)
    rhs2 = bilinear(v, u1) * a + bilinear(v, u2) * b
    assert np.allclose(lhs2.data, rhs2.data, rtol=1e-12, atol=1e-300)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_bilinear_output_divergence_free(seed):
    lat = ball(2)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng, solenoidal=False)  # holds for any inputs
    v = random_field(lat, rng, solenoidal=False)
    assert bilinear(u, v).max_divergence_ratio() < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from(list(TruncationRule)), st.floats(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_bilinear_matches_direct_sum_per_site(k_max, rule, a, seed):
    # Fields decaying like exp(-a|k|^2) span up to ~40 decades over the
    # lattice. A kernel summing the same pair products as the direct sum
    # keeps every site's relative accuracy; one with an absolute error
    # floor (an FFT's ~1e-16 max|u||v|) fails at the decayed sites.
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    decay = np.exp(-a * lat.norm_sq_f)
    u = random_field(lat, rng).scaled_by_sites(decay)
    v = random_field(lat, rng).scaled_by_sites(decay)
    want = direct_bilinear(u, v)
    got = bilinear(u, v).data
    err = np.linalg.norm(got - want, axis=1)
    assert (err <= 1e-13 * np.linalg.norm(want, axis=1)).all()


def test_bilinear_lattice_mismatch(ball1, ball2):
    with pytest.raises(ValueError):
        bilinear(SpectralField.zero(ball1), SpectralField.zero(ball2))


# -- time grids -----------------------------------------------------------------

def test_unit_times_endpoints():
    times = unit_times(8)
    assert times[0] == 0.0 and times[-1] == 1.0 and len(times) == 9


def test_duhamel_grid_validates_endpoints(ball2):
    z = SpectralField.zero(ball2)
    with pytest.raises(ValueError):
        DuhamelGrid((0.0, 0.5), (z, z))
    grid = DuhamelGrid(unit_times(4), tuple(z for _ in range(5)))
    assert grid.substeps == 4
    assert grid.samples == grid.slices


def test_time_sliced_requires_increasing_times(ball2):
    z = SpectralField.zero(ball2)
    with pytest.raises(ValueError):
        TimeSlicedField((0.0, 0.0, 1.0), (z, z, z))


# -- Duhamel quadrature -----------------------------------------------------------

def exact_linear_duhamel(q, a, b, t=1.0):
    """Closed form of integral_0^t e^{-(t-s)q} (a + b s) ds."""
    i0 = (1.0 - math.exp(-t * q)) / q
    i1 = t / q - (1.0 - math.exp(-t * q)) / (q * q)
    return a * i0 + b * i1


def test_exact_linear_duhamel_self_check():
    # brute-force quadrature oracle to validate the closed form itself
    q, a, b = 2.0, 0.3, 1.7
    s = np.linspace(0.0, 1.0, 2_000_001)
    ref = np.trapezoid(np.exp(-(1.0 - s) * q) * (a + b * s), s)
    assert exact_linear_duhamel(q, a, b) == pytest.approx(ref, rel=1e-10)


def test_duhamel_zero_source(ball2):
    src = TimeSlicedField.zero(ball2, unit_times(4))
    assert duhamel_integrate(src, 1.0).support_size == 0


def test_duhamel_constant_source_closed_form(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    src = TimeSlicedField(unit_times(8), tuple(f for _ in range(9)))
    out = duhamel_integrate(src, 1.0)
    assert out[(1, 0, 0)][1].real == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # exact on constants at every grid time and every |k|
    g = SpectralField.from_modes(ball2, {(2, 0, 0): (0.0, 0.0, 1.0)})
    src2 = TimeSlicedField(unit_times(8), tuple(g for _ in range(9)))
    out2 = duhamel_integrate(src2, 0.5)
    assert out2[(2, 0, 0)][2].real == pytest.approx((1 - math.exp(-2.0)) / 4.0, rel=1e-14)


def quadrature_error_on_linear_source(substeps, q_site, a, b):
    lat = ball(2)
    site = q_site
    times = unit_times(substeps)
    slices = tuple(
        SpectralField.from_modes(lat, {site: (0.0, a + b * t, 0.0)}) for t in times
    )
    out = duhamel_integrate(TimeSlicedField(times, slices), 1.0)
    q = float(sum(c * c for c in site))
    return abs(out[site][1].real - exact_linear_duhamel(q, a, b))


def test_duhamel_linear_source_second_order():
    # doubling the substep count cuts the error by ~4 on s-linear sources
    e8 = quadrature_error_on_linear_source(8, (1, 0, 0), 0.3, 1.7)
    e16 = quadrature_error_on_linear_source(16, (1, 0, 0), 0.3, 1.7)
    assert 3.5 <= e8 / e16 <= 4.5


def test_duhamel_rejects_offgrid_t(ball2):
    src = TimeSlicedField.zero(ball2, unit_times(4))
    with pytest.raises(ValueError):
        duhamel_integrate(src, 0.3)
    with pytest.raises(ValueError):
        duhamel_integrate(src, 1.5)
    with pytest.raises(ValueError):
        duhamel_integrate(src, -0.25)


def test_duhamel_monotone_for_nondecreasing_source(ball2):
    times = unit_times(8)
    src = TimeSlicedField(
        times,
        tuple(SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0 + t, 0.0)})
              for t in times),
    )
    values = [duhamel_integrate(src, t)[(1, 0, 0)][1].real for t in times]
    assert all(b >= a for a, b in zip(values, values[1:]))


# -- star product -----------------------------------------------------------------

def test_star_product_zero_left(ball2):
    times = unit_times(4)
    u = TimeSlicedField.zero(ball2, times)
    v = random_sliced(ball2, times, np.random.default_rng(1))
    out = star_product(u, v)
    assert all(s.support_size == 0 for s in out.slices)


def test_star_product_single_mode_vanishes(ball2):
    times = unit_times(4)
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    u = TimeSlicedField(times, tuple(f for _ in times))
    out = star_product(u, u)
    assert all(s.magnitudes().max(initial=0.0) < 1e-16 for s in out.slices)


def test_star_product_t_constant_closed_form(ball2):
    times = unit_times(8)
    u0 = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    v0 = SpectralField.from_modes(ball2, {(0, 1, 0): (1.0, 0.0, 0.0)})
    u = TimeSlicedField(times, tuple(u0 for _ in times))
    v = TimeSlicedField(times, tuple(v0 for _ in times))
    out = star_product(u, v)
    base = bilinear(u0, v0)
    q = ball2.norm_sq_f
    for t, sl in zip(out.times, out.slices):
        expect = base.scaled_by_sites((1.0 - np.exp(-t * q)) / q)
        assert np.allclose(sl.data, expect.data, rtol=1e-12, atol=1e-300)
    assert out.slices[0].support_size == 0  # empty integral at t = 0


def test_star_product_grid_mismatch(ball2):
    u = TimeSlicedField.zero(ball2, unit_times(4))
    v = TimeSlicedField.zero(ball2, unit_times(8))
    with pytest.raises(ValueError):
        star_product(u, v)


# -- exact algebraic split ----------------------------------------------------------

def test_identity_split_equal_coefficients():
    coeff_k, shift, residual = identity_split(1.0, 1.0, (1, 0, 0), (0, 1, 0))
    assert coeff_k == pytest.approx(0.5)
    assert shift == pytest.approx(0.5)
    lhs = 1.0 * 2.0 + 1.0 * 1.0  # a1 |k-l|^2 + a2 |l|^2
    assert lhs == pytest.approx(coeff_k * 1.0 + residual, abs=1e-14)


def test_identity_split_degenerate_a1():
    coeff_k, shift, residual = identity_split(0.0, 3.0, (2, 0, 0), (0, 1, 1))
    assert coeff_k == 0.0
    assert shift == 0.0
    assert residual == pytest.approx(3.0 * 2.0)


def test_identity_split_worked_example():
    coeff_k, shift, residual = identity_split(2.0, 3.0, (1, 0, 0), (0, 1, 0))
    assert coeff_k * 1.0 == pytest.approx(1.2)
    assert residual == pytest.approx(5.8)
    assert coeff_k + residual == pytest.approx(7.0)


def test_identity_split_rejects_zero_pair():
    with pytest.raises(ValueError):
        identity_split(0.0, 0.0, (1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        identity_split(-1.0, 2.0, (1, 0, 0), (0, 1, 0))


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 10), st.floats(0, 10),
       st.tuples(*[st.integers(-8, 8)] * 3), st.tuples(*[st.integers(-8, 8)] * 3))
def test_identity_split_reconstruction(a1, a2, k, l):
    if a1 + a2 <= 0:
        return
    kv, lv = np.array(k, float), np.array(l, float)
    coeff_k, _, residual = identity_split(a1, a2, k, l)
    lhs = a1 * ((kv - lv) @ (kv - lv)) + a2 * (lv @ lv)
    assert abs(lhs - (coeff_k * (kv @ kv) + residual)) < 1e-12
