import dataclasses
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nstorus.fields
import nstorus.induction
import nstorus.operators
from nstorus import (
    ConvergenceError,
    DecompositionState,
    LatticeSpec,
    SolverParams,
    SpectralField,
    TimeSlicedField,
    TruncationRule,
    assemble_forcing,
    assemble_gaussian_part,
    assemble_remainder_part,
    compute_gaussian_correction,
    fmc_norm,
    get_lattice,
    heat_flow,
    induction_steps,
    picard_solve,
    solve_interval,
    solve_remainder,
    star_product,
    unit_times,
)
from nstorus.fields import UNDERFLOW_FLOOR, slice_runs
from nstorus.induction import IntervalSolution, apply_interval, iterate_contraction, remainder_maps
from util import (ball, looped_history_parts, random_field, random_sliced, shared_ints,
                  slice_builds, star_majorant, state_from_histories)

PARAMS = SolverParams()


def two_mode_state(lat, delta=1e-3):
    v0 = SpectralField.from_modes(
        lat, {(1, 0, 0): (0.0, 0.0, delta), (0, 1, 0): (delta, 0.0, 0.0)}
    )
    return DecompositionState.initial(v0)


# -- part assembly ---------------------------------------------------------------

def test_heat_part_at_origin_time(ball2):
    state = two_mode_state(ball2)
    part = heat_flow(state.initial_field, state.m, unit_times(4))
    assert np.array_equal(part.slices[0].data, state.initial_field.data)


def test_heat_part_decay_factor(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    part = heat_flow(f, 2, unit_times(2))
    assert part.slices[1][(1, 0, 0)][1].real == pytest.approx(math.exp(-2.5), rel=1e-14)   # t = 0.5


def test_heat_part_zero_initial_field(ball2):
    part = heat_flow(SpectralField.zero(ball2), 0, unit_times(4))
    assert all(s.support_size == 0 for s in part.slices)


def test_gaussian_part_empty_history_zero_correction(ball2):
    state = DecompositionState.initial(SpectralField.zero(ball2))
    times = unit_times(4)
    part = assemble_gaussian_part(state, TimeSlicedField.zero(ball2, times), PARAMS)
    assert all(s.support_size == 0 for s in part.slices)


def test_gaussian_part_latest_entry_weight_collapses(ball2):
    rng = np.random.default_rng(5)
    h = random_field(ball2, rng, scale=1e-6)
    state = state_from_histories(random_field(ball2, rng, scale=1e-3), (h,),
                                 (SpectralField.zero(ball2),), PARAMS)
    times = unit_times(4)
    part = assemble_gaussian_part(state, TimeSlicedField.zero(ball2, times), PARAMS)
    qe = ball2.norm_sq_f ** PARAMS.epsilon
    assert np.array_equal(part.slices[0].data, h.data / qe[:, None])


def test_gaussian_part_matches_brute_force_sum(ball2):
    rng = np.random.default_rng(6)
    h1, h2 = random_field(ball2, rng, 1e-6), random_field(ball2, rng, 1e-6)
    state = state_from_histories(random_field(ball2, rng, 1e-3), (h1, h2),
                                 (SpectralField.zero(ball2),) * 2, PARAMS)
    times = unit_times(4)
    part = assemble_gaussian_part(state, TimeSlicedField.zero(ball2, times), PARAMS)
    q = ball2.norm_sq_f
    qe = q ** PARAMS.epsilon
    for n, t in enumerate(times):
        expect = np.zeros_like(h1.data)
        for j, h in ((1, h1), (2, h2)):
            expect += np.exp(-(2 - j + t) * q)[:, None] * h.data
        expect /= qe[:, None]
        assert np.allclose(part.slices[n].data, expect, rtol=1e-13, atol=0)


def test_remainder_part_matches_brute_force_sum(ball2):
    rng = np.random.default_rng(8)
    g1, g2 = random_field(ball2, rng, 1e-6), random_field(ball2, rng, 1e-6)
    state = state_from_histories(random_field(ball2, rng, 1e-3),
                                 (SpectralField.zero(ball2),) * 2, (g1, g2), PARAMS)
    times = unit_times(4)
    part = assemble_remainder_part(state, times)
    q = ball2.norm_sq_f
    for n, t in enumerate(times):
        expect = (np.exp(-(1 + t) * q)[:, None] * g1.data
                  + np.exp(-t * q)[:, None] * g2.data)
        assert np.allclose(part.slices[n].data, expect, rtol=1e-13, atol=0)


def history_part_bounds(gaussian_history, remainder_history, correction, params):
    """Per-site, per-component bounds on |running-sum part - looped part|
    for the gaussian and remainder parts at m = len(history), as stated in
    the induction module docstring: 2^-52 sum_j (3(m-j) + 4 + 2(m-j+t)|k|^2)
    w_j |h_j| + UNDERFLOW_FLOOR (1 + sum_j |h_j|), w_j the looped clamped
    weight; the gaussian part adds (m+2) 2^-52 |correction| and divides by
    |k|^(2 eps); (S+1, N, 3) arrays."""
    m, q = len(gaussian_history), correction.lattice.norm_sq_f
    qe = q ** params.epsilon

    def bound(history, extra):
        weighted = (m + 2) * np.abs(extra)
        for j, h in enumerate(history, start=1):
            for n, t in enumerate(correction.times):
                w = np.exp(-(m - j + t) * q)
                w[w < UNDERFLOW_FLOOR] = 0.0
                gain = 3 * (m - j) + 4 + 2 * (m - j + t) * q
                weighted[n] += (gain * w)[:, None] * np.abs(h.data)
        total = sum((np.abs(h.data) for h in history), np.zeros(q.shape + (3,)))
        return 2.0 ** -52 * weighted + UNDERFLOW_FLOOR * (1 + total)

    return (bound(gaussian_history, correction.data) / qe[:, None],
            bound(remainder_history, np.zeros(correction.data.shape)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([0, 1, 5, 30]), st.integers(1, 3), st.sampled_from(list(TruncationRule)),
       st.integers(1, 8), st.sampled_from([1.0, 40.0]), st.floats(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_history_assembly_matches_per_time_loop(m, k_max, rule, substeps, horizon, a, seed):
    # the running sums regroup the per-(t, j) loop's terms, so per site
    # and component they agree to the stated rounding bound; grids out to
    # t = 40 also prune weights below the underflow floor
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-12, 0, size=2 * m)
    decay = np.exp(-a * lat.norm_sq_f)[:, None]
    history = [SpectralField(lat, random_field(lat, rng, scale=s).data * decay) for s in scales]
    state = state_from_histories(random_field(lat, rng), history[:m], history[m:], PARAMS)
    times = tuple(horizon * t for t in unit_times(substeps))
    correction = random_sliced(lat, times, rng, scale=1e-6, a=a)
    gaussian, remainder = looped_history_parts(history[:m], history[m:], correction, PARAMS)
    g_bound, r_bound = history_part_bounds(history[:m], history[m:], correction, PARAMS)
    got_g = assemble_gaussian_part(state, correction, PARAMS).data
    got_r = assemble_remainder_part(state, times).data
    assert (np.abs(got_g - gaussian) <= g_bound).all()
    assert (np.abs(got_r - remainder) <= r_bound).all()


def test_running_sums_flush_subnormals(ball2):
    # an entry that decays below the normal range leaves the sum instead
    # of being stored as a subnormal number
    tiny = np.finfo(np.float64).tiny
    h = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 2 * tiny, 0.0),
                                        (0, 1, 0): (1.0, 0.0, 0.0)})
    zero = SpectralField.zero(ball2)
    state = state_from_histories(zero, (h, zero), (zero, h), PARAMS)
    parts = np.concatenate([state.gaussian_sum.data, state.remainder_sum.data]).view(np.float64)
    assert not ((parts != 0) & (np.abs(parts) < tiny)).any()
    assert state.gaussian_sum[(1, 0, 0)][1] == 0.0
    assert state.gaussian_sum[(0, 1, 0)][0] == np.exp(-1.0)
    assert state.remainder_sum[(1, 0, 0)][1] == 2 * tiny


# -- the interval correction -------------------------------------------------------

def test_correction_zero_for_zero_heat_part(ball2):
    heat = TimeSlicedField.zero(ball2, unit_times(4))
    corr = compute_gaussian_correction(heat, PARAMS)
    assert all(s.support_size == 0 for s in corr.slices)


def test_correction_zero_for_single_mode(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1e-3, 0.0)})
    heat = heat_flow(f, 0, unit_times(4))
    corr = compute_gaussian_correction(heat, PARAMS)
    assert all(s.magnitudes().max(initial=0.0) < 1e-18 for s in corr.slices)


def test_correction_matches_first_picard_term(ball2):
    # the correction equals |k|^(2 eps) times the oracle's first update
    # beyond pure heat flow when the data is two-mode
    state = two_mode_state(ball2)
    times = unit_times(PARAMS.substeps)
    heat = heat_flow(state.initial_field, state.m, times)
    corr = compute_gaussian_correction(heat, PARAMS)
    first_correction = star_product(heat, heat)  # picard: v2 - v1 on [0,1]
    qe = ball2.norm_sq_f ** PARAMS.epsilon
    for n in range(len(times)):
        expect = first_correction.slices[n].data * qe[:, None]
        assert np.allclose(corr.slices[n].data, expect, rtol=1e-12, atol=0)


# -- forcing assembly ---------------------------------------------------------------

def test_forcing_zero_without_histories(ball2):
    times = unit_times(4)
    heat = random_sliced(ball2, times, np.random.default_rng(0), scale=1e-3)
    zero = TimeSlicedField.zero(ball2, times)
    out = assemble_forcing(heat, zero, zero)
    assert all(s.support_size == 0 for s in out.slices)


def test_forcing_three_term_oracle(ball2):
    times = unit_times(4)
    rng = np.random.default_rng(1)
    heat = random_sliced(ball2, times, rng, scale=1e-3)
    gauss = random_sliced(ball2, times, rng, scale=1e-6)
    zero = TimeSlicedField.zero(ball2, times)
    out = assemble_forcing(heat, gauss, zero)
    expect = (star_product(heat, gauss) + star_product(gauss, heat)
              + star_product(gauss, gauss))
    for a, b in zip(out.slices, expect.slices):
        assert np.allclose(a.data, b.data, rtol=1e-12, atol=1e-300)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)), st.floats(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_forcing_matches_eight_pairings_per_site(k_max, rule, a, seed):
    # S(H, G+R) + S(G+R, H+G+R) regroups the eight ordered pairings without
    # subtraction, so each site agrees with their sum to rounding relative
    # to the heat-weighted pair products' magnitudes. Relative to the sum
    # of |pairing| it need not: where the largest pair product is zero
    # (<k, x(k/2)> = 0 for solenoidal x) and the rest cancel, that sum is
    # below the products' rounding noise.
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    times = unit_times(4)
    parts = [random_sliced(lat, times, rng, scale=s, a=a) for s in (1e-3, 1e-6, 1e-9)]
    ordered = [(x, y) for i, x in enumerate(parts)
               for j, y in enumerate(parts) if (i, j) != (0, 0)]
    want = sum((star_product(x, y) for x, y in ordered[1:]), star_product(*ordered[0]))
    assert_within_majorant(assemble_forcing(*parts), want, ordered)


def assert_within_majorant(got, want, pairs):
    bound = star_majorant(pairs)
    for n, (a, b) in enumerate(zip(got.slices, want.slices)):
        err = np.linalg.norm(a.data - b.data, axis=1)
        assert (err <= 1e-13 * bound[n]).all()


def test_forcing_single_shared_mode_vanishes(ball2):
    times = unit_times(4)
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1e-3, 0.0)})
    sliced = TimeSlicedField.from_slices(times, tuple(f for _ in times))
    out = assemble_forcing(sliced, sliced, sliced)
    assert all(s.magnitudes().max(initial=0.0) < 1e-18 for s in out.slices)


# -- remainder fixed point -----------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)), st.floats(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_fused_maps_match_separate_star_products_per_site(k_max, rule, a, seed):
    # remainder_maps takes S(g, T) and S(g, g) from one star product with
    # the shared left factor g; each site must agree with the separate
    # products to rounding relative to their pair products' magnitudes.
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    times = unit_times(4)
    total = random_sliced(lat, times, rng, scale=1e-3, a=a)
    g = random_sliced(lat, times, rng, scale=1e-6, a=a)
    lin, quad, own = remainder_maps(total)(g)
    assert np.shares_memory(own, lin.data) and own.flags.writeable
    assert_within_majorant(lin, star_product(total, g) + star_product(g, total),
                           [(total, g), (g, total)])
    assert_within_majorant(quad, star_product(g, g), [(g, g)])


def test_fixed_point_zero_data_one_iteration(ball2):
    times = unit_times(4)
    zero = TimeSlicedField.zero(ball2, times)
    result = solve_remainder(zero, zero, PARAMS, m_next=1)
    assert result.iterations == 1
    assert result.solution_norm == 0.0
    assert result.residual == 0.0


def test_fixed_point_matches_neumann_series(ball2):
    # with a negligible quadratic term the solution is the geometric series
    # of the linear map applied to the forcing
    times = unit_times(4)
    rng = np.random.default_rng(4)
    heat = random_sliced(ball2, times, rng, scale=2e-3)
    zero = TimeSlicedField.zero(ball2, times)
    forcing = random_sliced(ball2, times, rng, scale=1e-8)
    params = SolverParams(fp_tol=1e-13)
    total = heat + zero + zero
    result = solve_remainder(forcing, total, params, m_next=1)

    term = forcing
    series = forcing
    for _ in range(60):
        term = star_product(total, term) + star_product(term, total)
        series = series + term
        if fmc_norm(term, 1, params.decay_c, params.beta) < 1e-20:
            break
    diff = fmc_norm(result.solution - series, 1, params.decay_c, params.beta)
    assert diff <= params.fp_tol


def test_fixed_point_residual_small(ball2):
    # random data: the two-mode forcing lands outside the k_max 2 ball at m = 0
    state = DecompositionState.initial(random_field(ball2, np.random.default_rng(5), 1e-3))
    fp = solve_interval(state, PARAMS).fixed_point
    assert fp.residual <= 10 * PARAMS.fp_tol
    # c1 is read off the update norms, not stored apart; they contract
    d = fp.update_norms
    assert fp.iterations == len(d) > 2
    assert fp.forcing_norm == d[0] > 0
    assert all(b < a for a, b in zip(d, d[1:]))


def test_fixed_point_nonconvergence_raises_with_ratio(ball2):
    # a dense O(1) field sits far outside the contraction regime
    v0 = random_field(ball2, np.random.default_rng(21), scale=1.0)
    state = DecompositionState.initial(v0)
    with pytest.raises(ConvergenceError) as err:
        solve_interval(state, PARAMS)
    assert err.value.iterations >= 1
    assert err.value.last_update > 0


def test_iterate_contraction_respects_budget(ball2):
    times = unit_times(2)
    forcing = random_sliced(ball2, times, np.random.default_rng(2), scale=1.0)

    def norm_fn(x):
        return fmc_norm(x, 1, PARAMS.decay_c, PARAMS.beta)

    with pytest.raises(ConvergenceError):
        iterate_contraction(forcing, lambda g: (g * 0.9, g * 0.0),
                            norm_fn, tol=1e-16, max_iter=5)


@pytest.mark.parametrize("size", [1e-162, 1e-300])
def test_iterate_contraction_at_underflowing_norms(size, ball2):
    # |x|^2 underflows to 0.0 here, and so does every entry of the
    # quadratic term 0.25 |x| x: c2 is still measured, and c3 reads 0.0

    def norm_fn(x):
        return fmc_norm(x, 1, PARAMS.decay_c, PARAMS.beta)

    forcing = random_sliced(ball2, unit_times(2), np.random.default_rng(3))
    forcing = forcing * (size / norm_fn(forcing))
    assert norm_fn(forcing) == pytest.approx(size) and norm_fn(forcing) ** 2 == 0.0
    fp = iterate_contraction(forcing, lambda g: (g * 0.3, g * (0.25 * norm_fn(g))),
                             norm_fn, tol=1e-3 * norm_fn(forcing), max_iter=80)
    assert fp.linear_gain == pytest.approx(0.3, rel=1e-12)
    assert fp.quadratic_gain == 0.0
    assert fp.contracts and np.isfinite(fp.solution.data).all()
    assert 0 < fp.residual <= 1e-3 * fp.forcing_norm


def long_grid_update(lat, rng):
    """A first iterate on a 193-slice grid whose update spans several runs
    of slices, and a contracting step that scales each slice differently."""
    times = tuple(i / 8 for i in range(193))
    assert len(slice_runs(len(times), 48 * len(lat))) > 2
    first = random_sliced(lat, times, rng, scale=1e-3)
    scales = np.linspace(0.2, 0.6, len(times))[:, None, None]
    return first, lambda x: TimeSlicedField(x.times, lat, x.data * scales)


def phi(x):
    return nstorus.fields.phi_norm(x, PARAMS.alpha)


def test_fixed_point_update_norms_equal_whole_grid_norms(ball2):
    # the updates are measured a run of slices at a time, and the max over
    # runs is bit-equal to the norm of the whole update
    first, step = long_grid_update(ball2, np.random.default_rng(6))
    iterates = [first]

    def recording(x):
        iterates.append(step(x))
        return iterates[-1]

    x, updates = nstorus.induction.fixed_point(first, recording, phi, 1e-12, 50)
    assert x is iterates[-1] and len(updates) == len(iterates) > 3
    want = [phi(first)] + [phi(b - a) for a, b in zip(iterates, iterates[1:])]
    assert list(updates) == want


@pytest.mark.parametrize("where", [0, -1])
def test_fixed_point_update_norm_keeps_a_nan_in_any_run(where, ball2):
    # a nan in the first run of slices, or in the last one alone, is a
    # non-finite update: a running max() or a `d > best` test would drop one
    first, step = long_grid_update(ball2, np.random.default_rng(7))

    def poisoned(x):
        data = step(x).data.copy()
        data[where, 3, 1] = np.nan
        return TimeSlicedField(x.times, ball2, data)

    with pytest.raises(ConvergenceError) as err:
        nstorus.induction.fixed_point(first, poisoned, phi, 1e-12, 50)
    assert err.value.iterations == 2 and math.isnan(err.value.last_update)


def test_fixed_point_drops_the_first_iterate(ball2):
    # once iterate 2 exists the loop holds no reference to iterate 1, so a
    # Picard iteration keeps two whole grids, not the heat flow beside them
    refs, first_alive = [], []

    def make_first():
        x = random_sliced(ball2, unit_times(4), np.random.default_rng(8), scale=1e-3)
        refs.append(weakref.ref(x))
        return x

    def step(x):
        first_alive.append(refs[0]() is not None)
        return x * 0.5

    nstorus.induction.fixed_point(make_first(), step, phi, 1e-9, 60)
    assert first_alive[:2] == [True, False]


# -- advancing intervals ---------------------------------------------------------------

def test_state_holds_no_per_age_entries():
    names = [f.name for f in dataclasses.fields(DecompositionState)]
    assert names == ["initial_field", "m", "gaussian_sum", "remainder_sum", "bounds"]


def test_interval_solution_holds_its_own_interval_end_fields(ball2):
    # h, g and v are the last slices of the step's correction, remainder and
    # velocity, copied so that keeping them keeps no whole grid alive
    state = two_mode_state(ball2)
    for _ in range(2):
        sol = solve_interval(state, PARAMS)
        heat = heat_flow(state.initial_field, state.m, sol.times)
        correction = compute_gaussian_correction(heat, PARAMS)
        for entry, grid in ((sol.h, correction), (sol.g, sol.fixed_point.solution),
                            (sol.v, sol.velocity)):
            assert np.array_equal(entry.data.view(np.uint64), grid.data[-1].view(np.uint64))
            assert not np.shares_memory(entry.data, grid.data)
        state, _ = apply_interval(state, sol, PARAMS)
    assert "correction" not in [f.name for f in dataclasses.fields(IntervalSolution)]


def test_a_step_builds_each_grid_once():
    # the heat, gaussian and remainder parts and the correction are dropped
    # once the forcing and the total are built, no product of the fused
    # star product is copied out, and the image is summed into the linear
    # map's own array: at k_max 4 a step's traced peak measured 7.2 grids
    lat = ball(4)
    state = DecompositionState.initial(random_field(lat, np.random.default_rng(14), 1e-3))
    for _, state, _ in induction_steps(state, PARAMS, 2):
        pass
    solve_interval(state, PARAMS)   # the cached tables of this m
    grid = (PARAMS.substeps + 1) * len(lat) * 48
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sol = solve_interval(state, PARAMS)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert sol.fixed_point.iterations > 2
    assert peak < 8 * grid, peak / grid


def test_advance_zero_data_stays_zero(ball2):
    state = DecompositionState.initial(SpectralField.zero(ball2))
    entries = []
    for sol, state, record in induction_steps(state, PARAMS, 3):
        entries.extend((sol.h, sol.g))
    assert len(entries) == 6 and state.m == 3
    assert all(e.support_size == 0 for e in entries)
    assert record.phi_sup == 0.0
    assert record.fp_iterations == 1


def test_bilinear_calls_per_step(ball2, monkeypatch, lanes):
    # interaction-matrix builds per step, one per live slice (bilinear
    # skips a slice where u or every v is zero): 9 for the correction, 2
    # forcing star products, and one fused linear + quadratic map
    # evaluation (2 star products, the right factors T and g sharing the
    # left factor g) per iteration after the first plus the certification
    # pass; each star product is one bilinear call over its 9 slices. At
    # m = 0 the gaussian and remainder parts start at zero, so both forcing
    # products have a dead slice 0; every iterate g is a sum of star
    # products, whose slice 0 (t = 0) is zero, so each map evaluation has
    # 8 live slices per product. The builds are counted in memory shared
    # with the convolution's worker process, forked after the patch, one
    # count per process: at the lane count the calls choose, then on two
    # lanes.
    caller = os.getpid()
    builds, calls = shared_ints(2), []
    block_products = nstorus.operators._block_products
    original = nstorus.operators.bilinear

    def counting_builds(step, chunk):
        builds[int(os.getpid() != caller)] += slice_builds(step, chunk)
        return block_products(step, chunk)

    def counting_calls(u, *vs, **kwargs):
        calls.append(1)
        return original(u, *vs, **kwargs)

    nstorus.operators._stop_workers()
    monkeypatch.setattr(nstorus.operators, "_block_products", counting_builds)
    monkeypatch.setattr(nstorus.operators, "bilinear", counting_calls)
    v0 = random_field(ball2, np.random.default_rng(0), scale=1e-3)
    for count in (None, 2):
        if count:
            lanes(count)
        state = DecompositionState.initial(v0)
        for m, (_, _, record) in enumerate(induction_steps(state, PARAMS, 2)):
            assert record.fp_iterations > 1
            forcing = 16 if m == 0 else 18
            assert builds.sum() == 9 + forcing + 16 * record.fp_iterations
            assert len(calls) == 3 + 2 * record.fp_iterations
            assert count is None or builds.all()   # on two lanes both processes build
            builds[:] = 0
            calls.clear()


def test_lattice_tables_are_built_once_per_key(ball2):
    # over two steps the Duhamel rules have one key (the grid), the fmc
    # weights two (the norm's index m + 1) and the heat weights three:
    # (0, times) for the first heat part and the history parts, (1, times)
    # for the second heat part and (1, (0.0,)) for the running sums' decay
    tables = {"duhamel_rules": (nstorus.operators.duhamel_rules, 1),
              "fmc_weights": (nstorus.fields.fmc_weights, 2),
              "heat_weights": (nstorus.induction.heat_weights, 3)}
    for cached, _ in tables.values():
        cached.cache_clear()
    v0 = random_field(ball2, np.random.default_rng(0), scale=1e-3)
    for _ in induction_steps(DecompositionState.initial(v0), PARAMS, 2):
        pass
    for name, (cached, keys) in tables.items():
        info = cached.cache_info()
        assert (name, info.misses, info.currsize) == (name, keys, keys)
        assert info.hits > 0, name


def test_advance_single_mode_is_pure_heat_decay(ball2):
    delta = 1e-3
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, delta, 0.0)})
    state = DecompositionState.initial(f)
    entries = []
    for sol, state, _ in induction_steps(state, PARAMS, 5):
        entries.extend((sol.h, sol.g))
    assert len(entries) == 10 and state.m == 5
    assert all(e.support_size == 0 for e in entries)
    v = sol.velocity.slices[-1]
    assert v[(1, 0, 0)][1].real == pytest.approx(delta * math.exp(-5.0), rel=1e-14)
    assert v.support_size == 1


def test_decomposition_consistency_across_steps(ball2):
    cfgless = two_mode_state(ball2)
    state = cfgless
    prev_end = None
    for _ in range(3):
        sol = solve_interval(state, PARAMS)
        start = sol.velocity.slices[0]
        if prev_end is not None:
            diff = (start - prev_end).magnitudes().max()
            scale = max(prev_end.magnitudes().max(), 1e-300)
            assert diff / scale < 1e-13
        prev_end = sol.velocity.slices[-1]
        state, _ = apply_interval(state, sol, PARAMS)


def test_all_slices_divergence_free_and_zero_mode_absent(ball2):
    state = two_mode_state(ball2)
    for _ in range(2):
        sol = solve_interval(state, PARAMS)
        for v in sol.velocity.slices:
            assert v.max_divergence_ratio() <= PARAMS.eps_div
            with pytest.raises(KeyError):  # the origin is not a site
                v[(0, 0, 0)]
        state, _ = apply_interval(state, sol, PARAMS)


def test_mirror_symmetry_preserved(ball2):
    # negation-symmetric data stays negation-symmetric at every step
    delta = 1e-3
    modes = {
        (1, 0, 0): (0.0, 0.0, delta), (-1, 0, 0): (0.0, 0.0, delta),
        (0, 1, 0): (delta, 0.0, 0.0), (0, -1, 0): (delta, 0.0, 0.0),
    }
    v0 = SpectralField.from_modes(ball2, modes)
    assert v0.reality_defect() == 0.0
    state = DecompositionState.initial(v0)
    for _ in range(2):
        sol = solve_interval(state, PARAMS)
        for v in sol.velocity.slices:
            assert v.reality_defect() < 1e-15
        state, _ = apply_interval(state, sol, PARAMS)


def test_iteration_counts_non_increasing(ball2):
    counts = [record.fp_iterations
              for _, _, record in induction_steps(two_mode_state(ball2), PARAMS, 5)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def test_oracle_equivalence_small_lattice(ball2):
    state = two_mode_state(ball2)
    v0 = state.initial_field
    velocities = [v0]
    for _ in range(3):
        sol = solve_interval(state, PARAMS)
        velocities.append(sol.velocity.slices[-1])
        state, _ = apply_interval(state, sol, PARAMS)
    trajectory = picard_solve(v0, 3.0, PARAMS)
    for m, v in enumerate(velocities):
        ref = trajectory.slices[m * PARAMS.substeps]
        assert (v - ref).magnitudes().max(initial=0.0) <= 1e-9


def test_extended_rejects_pair_on_another_lattice():
    zero, other = SpectralField.zero(ball(2)), SpectralField.zero(ball(1))
    state = DecompositionState.initial(zero)
    for h, g in ((other, zero), (zero, other)):
        with pytest.raises(ValueError):
            state.extended(h, g, PARAMS)
