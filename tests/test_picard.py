import math
import tracemalloc

import numpy as np
import pytest

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
from util import random_field

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
    # product of the iterate before it
    calls = []
    star_product = nstorus.picard.star_product

    def counting(*args, **kwargs):
        calls.append(args)
        return star_product(*args, **kwargs)

    monkeypatch.setattr(nstorus.picard, "star_product", counting)
    v0 = SpectralField.from_modes(
        ball2, {(1, 0, 0): (0.0, 0.0, 1e-3), (0, 1, 0): (1e-3, 0.0, 0.0)}
    )
    traj = picard_solve(v0, 3.0, PARAMS)
    assert traj.iterations_used == 3
    assert len(calls) == traj.iterations_used - 1


def test_an_iteration_holds_two_grids():
    # the iterate and the next one: no heat grid, no sum beside the star
    # product and no update array. At k_max 4 over horizon 8 a grid is 65
    # slices of 256 sites, 0.78 MB; four grids stood at once before.
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
    assert peak < 2.5 * grid
