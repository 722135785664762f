import math
import tracemalloc

import numpy as np
import pytest

import nstorus.operators
import nstorus.picard
from nstorus import (
    ConvergenceError,
    LatticeSpec,
    SolverParams,
    SpectralField,
    TimeSlicedField,
    bilinear,
    get_lattice,
    phi_norm,
    picard_solve,
)
from util import random_field, whole_grid_picard

PARAMS = SolverParams()


def test_zero_data_converges_immediately(ball2):
    traj = picard_solve(SpectralField.zero(ball2), 1.0, PARAMS)
    assert traj.iterations_used == 1
    assert all(s.support_size == 0 for s in traj.slices)


def test_single_mode_is_heat_decay_in_two_iterations(ball2):
    delta = 1e-3
    v0 = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, delta, 0.0)})
    traj = picard_solve(v0, 2.0, PARAMS)
    assert traj.iterations_used == 2  # second iterate equals the first
    for t, s in zip(traj.times, traj.slices):
        assert s[(1, 0, 0)][1].real == pytest.approx(delta * math.exp(-t), rel=1e-14)
        assert s.support_size <= 1


def test_two_mode_iterates_decay_geometrically(ball2):
    delta = 1e-3
    v0 = SpectralField.from_modes(
        ball2, {(1, 0, 0): (0.0, 0.0, delta), (0, 1, 0): (delta, 0.0, 0.0)}
    )
    traj = picard_solve(v0, 3.0, PARAMS)
    ratios = [b / a for a, b in zip(traj.update_norms, traj.update_norms[1:]) if a > 0]
    assert ratios and all(r < 0.1 for r in ratios)


def test_trajectory_is_one_time_sliced_field(ball2):
    v0 = SpectralField.from_modes(
        ball2, {(1, 0, 0): (0.0, 0.0, 1e-3), (0, 1, 0): (1e-3, 0.0, 0.0)}
    )
    traj = picard_solve(v0, 1.0, PARAMS)
    assert isinstance(traj, TimeSlicedField)
    assert traj.data.shape == (PARAMS.substeps + 1, len(ball2), 3)
    assert traj.iterations_used == len(traj.update_norms) > 1
    assert traj.final_update_norm == traj.update_norms[-1] < PARAMS.fp_tol
    phis = phi_norm(traj, PARAMS.alpha, axis=-1)
    assert phis.tolist() == [phi_norm(s, PARAMS.alpha) for s in traj.slices]
    plain = TimeSlicedField(traj.times, ball2, traj.data)
    assert np.array_equal(bilinear(traj, plain).data, bilinear(plain, plain).data)


def test_slices_divergence_free(ball2):
    rng = np.random.default_rng(11)
    data = (rng.standard_normal((len(ball2), 3)) + 1j * rng.standard_normal((len(ball2), 3)))
    kf = ball2.sites_f
    data -= ((kf * data).sum(axis=1) / ball2.norm_sq_f)[:, None] * kf
    v0 = SpectralField(ball2, data * 1e-4)
    traj = picard_solve(v0, 1.0, PARAMS)
    for s in traj.slices:
        assert s.max_divergence_ratio() <= PARAMS.eps_div
    assert np.array_equal(traj.slices[0].data, v0.data)


def test_trajectory_respects_initial_norm_envelope(ball2):
    rng = np.random.default_rng(12)
    data = (rng.standard_normal((len(ball2), 3)) + 1j * rng.standard_normal((len(ball2), 3)))
    kf = ball2.sites_f
    data -= ((kf * data).sum(axis=1) / ball2.norm_sq_f)[:, None] * kf
    v0 = SpectralField(ball2, data * 1e-4)
    traj = picard_solve(v0, 2.0, PARAMS)
    bound = 2.0 * phi_norm(v0, PARAMS.alpha)
    assert all(phi_norm(s, PARAMS.alpha) <= bound for s in traj.slices)


def test_bad_horizon_rejected(ball2):
    v0 = SpectralField.zero(ball2)
    with pytest.raises(ValueError):
        picard_solve(v0, 0.0, PARAMS)
    with pytest.raises(ValueError):
        picard_solve(v0, 1.3 / PARAMS.substeps + 1e-4, PARAMS)


def test_fractional_horizon_on_substep_grid(ball2):
    v0 = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1e-3, 0.0)})
    traj = picard_solve(v0, 0.5, PARAMS)
    assert traj.times[-1] == 0.5
    assert len(traj.times) == PARAMS.substeps // 2 + 1


def test_large_data_raises(ball2):
    rng = np.random.default_rng(13)
    data = (rng.standard_normal((len(ball2), 3)) + 1j * rng.standard_normal((len(ball2), 3)))
    kf = ball2.sites_f
    data -= ((kf * data).sum(axis=1) / ball2.norm_sq_f)[:, None] * kf
    v0 = SpectralField(ball2, data * 50.0)
    with pytest.raises(ConvergenceError) as err:
        picard_solve(v0, 1.0, PARAMS)
    # the error reports the growth of the last update over the one before
    assert err.value.iterations >= 2
    assert math.isfinite(err.value.last_ratio) and err.value.last_ratio > 1


def test_first_iterate_is_heat_flow_without_a_star_product(ball2, monkeypatch):
    # iterate 1 is the heat flow itself; each later iterate costs one star
    # product of the iterate before it with itself, taken in two causal
    # runs: the grid's first ceil((S+1)/2) slices, then the rest, each run
    # one bilinear call on its own slices alone
    calls, convolved = [], []
    star_product = nstorus.picard.star_product
    bilinear = nstorus.operators.bilinear

    def counting(*args, **kwargs):
        calls.append(args)
        return star_product(*args, **kwargs)

    def counting_bilinear(u, *vs, **kwargs):
        convolved.append(u.times)
        return bilinear(u, *vs, **kwargs)

    monkeypatch.setattr(nstorus.picard, "star_product", counting)
    monkeypatch.setattr(nstorus.operators, "bilinear", counting_bilinear)
    v0 = SpectralField.from_modes(
        ball2, {(1, 0, 0): (0.0, 0.0, 1e-3), (0, 1, 0): (1e-3, 0.0, 0.0)}
    )
    traj = picard_solve(v0, 3.0, PARAMS)
    assert traj.iterations_used == 3
    half = -(-len(traj.times) // 2)
    runs = [traj.times[:half], traj.times[half:]] * (traj.iterations_used - 1)
    assert [u.times for u, *_ in calls] == runs
    assert all(len(args) == 2 and args[0] is args[1] for args in calls)
    assert convolved == runs


@pytest.mark.parametrize("k_max, horizon, scale", [(2, 0.125, 3e-2), (2, 1.0, 1e-2),
                                                   (3, 2.125, 1e-3), (4, 3.0, 1e-3)])
def test_oracle_equals_a_whole_grid_iteration_bit_for_bit(k_max, horizon, scale):
    # the in-place sweep over two causal runs gives every iterate and every
    # update norm of the whole-grid iteration, bit for bit: an even and an
    # odd number of slices, and a two-slice grid whose runs hold one each
    v0 = random_field(get_lattice(LatticeSpec(k_max)), np.random.default_rng(k_max), scale)
    traj = picard_solve(v0, horizon, PARAMS)
    data, update_norms = whole_grid_picard(v0, horizon, PARAMS)
    assert traj.iterations_used == len(update_norms) > 2
    assert traj.update_norms == update_norms
    assert traj.data.tobytes() == data.tobytes()


def test_an_iteration_holds_two_grids():
    # at most two: the iterate, which each iteration overwrites in place,
    # and the half-grid buffer of a causal run, with no heat grid, no
    # second iterate and no update array. At k_max 4 over horizon 8 a grid
    # is 65 slices of 256 sites, 0.78 MB, and the peak measured 1.82 grids.
    lat = get_lattice(LatticeSpec(4))
    v0 = random_field(lat, np.random.default_rng(14), scale=1e-4)
    picard_solve(v0, 8.0, PARAMS)   # builds the kernel and the cached tables
    grid = 65 * len(lat) * 48
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = picard_solve(v0, 8.0, PARAMS)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert traj.data.nbytes == grid and traj.iterations_used > 2
    assert peak < 2.0 * grid
