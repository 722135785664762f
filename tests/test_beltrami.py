"""Exact nonlinear solutions: single-shell, single-helicity Beltrami fields.

Their projected self-convolution vanishes, so heat decay solves the
truncated equation exactly (util.beltrami_field). The convolution is held
to that at every site, and a whole run to exact heat decay; a field with
both helicities on one shell, whose convolution does not vanish, fails
each check, so the checks can fail.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from nstorus import (LatticeSpec, RunConfig, SpectralField, TimeSlicedField, TruncationRule,
                     bilinear, get_lattice, unit_times)
from nstorus.checkpoint import load_field, save_field
from nstorus.runner import STATUS_OK, run

from util import beltrami_field, pair_majorant

RULES = {"ball": TruncationRule.EUCLIDEAN_BALL, "cube": TruncationRule.SUP_CUBE}
# (q, sigma) of one helicity on one shell; "mixed" puts both helicities on
# |k|^2 = 2, the control
CASES = {"q1": (1, 1), "q2": (2, -1), "q3": (3, 1), "mixed": (2, None)}
# relative bound on a result that is exact up to rounding: about 45 unit
# roundoffs, where the Beltrami runs read at most 2e-17
RTOL = 1e-14


def shell_field(lat, case, rng, scale=1.0):
    q, sigma = CASES[case]
    if sigma is not None:
        return beltrami_field(lat, q, sigma, rng, scale)
    plus, minus = (beltrami_field(lat, q, s, rng, scale).data for s in (1, -1))
    return SpectralField(lat, plus + minus)


def gamma(n):
    """The rounding constant n u / (1 - n u) of a sum of n products, with
    u the unit roundoff 2^-53."""
    nu = n * 2.0 ** -53
    return nu / (1 - nu)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("k_max", [2, 4])
def test_beltrami_self_convolution_vanishes_per_site(k_max, rule, case, lanes):
    # each slice of a heat-decayed field on one lane and on two, against
    # gamma times the pair majorant: each output entry sums 2N products of
    # the real product, after a three-term dot product, and the projection
    # and the factor 2 pi i add a few roundings more
    lat = get_lattice(LatticeSpec(k_max, RULES[rule]))
    rng = np.random.default_rng(21)
    v0 = shell_field(lat, case, rng)
    q = CASES[case][0]
    times = unit_times(3)
    v = TimeSlicedField.from_slices(times, [v0 * math.exp(-t * q) for t in times])
    bound = gamma(2 * len(lat) + 8) * np.stack([pair_majorant(s, s) for s in v.slices])
    for count in (1, 2):
        lanes(count)
        err = np.linalg.norm(bilinear(v, v).data, axis=-1)
        within = (err <= bound).all()
        assert within == (case != "mixed"), (count, (err / np.maximum(bound, 1e-300)).max())
    assert bound.any()


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("rule", RULES)
def test_a_run_from_a_beltrami_field_decays_as_heat(rule, case, tmp_path):
    # three steps at k_max 4 from the field saved as a checkpoint, with the
    # oracle: every v_m is exp(-m q) v0 to rounding, and every history
    # entry h_m and g_m is at rounding level
    lat = get_lattice(LatticeSpec(4, RULES[rule]))
    v0 = shell_field(lat, case, np.random.default_rng(22), scale=0.05)
    save_field(v0, tmp_path / "v0.ckpt")
    cfg = RunConfig(k_max=4, truncation_rule=RULES[rule].value, ic_kind="from_checkpoint",
                    ic_checkpoint=str(tmp_path / "v0.ckpt"), horizon_m=3,
                    emit=frozenset({"fields"}), output_dir=str(tmp_path / "out"))
    assert cfg.horizon_m <= cfg.oracle_horizon
    outcome = run(cfg)
    assert outcome.status == STATUS_OK, outcome.message
    fields = Path(cfg.output_dir) / "fields"
    q = CASES[case][0]
    exact = []
    for m in range(1, 4):
        v, h, g = (load_field(fields / f"{p}{m:04d}.ckpt").data for p in ("v_", "h_", "g_"))
        heat = v0.data * math.exp(-m * q)
        size = np.abs(heat).max()
        exact.append((np.abs(v - heat).max() <= RTOL * size,
                      np.abs(h).max() <= RTOL * size, np.abs(g).max() <= RTOL * size))
    if case == "mixed":
        assert not any(v_ok or h_ok or g_ok for v_ok, h_ok, g_ok in exact), exact
    else:
        assert all(all(ok) for ok in exact), exact
