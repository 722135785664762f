import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import Lattice, LatticeSpec, TruncationRule, bilinear, get_lattice

from util import random_field


def brute_force_ball(k_max):
    """Independent triple-loop enumeration of {k != 0 : |k|^2 <= k_max^2}."""
    sites = []
    for kx in range(-k_max, k_max + 1):
        for ky in range(-k_max, k_max + 1):
            for kz in range(-k_max, k_max + 1):
                if kx == ky == kz == 0:
                    continue
                if kx * kx + ky * ky + kz * kz <= k_max * k_max:
                    sites.append((kx, ky, kz))
    return sites


def assert_matches_brute_force(k_max):
    lat = get_lattice(LatticeSpec(k_max))
    expected = sorted(brute_force_ball(k_max))
    assert [tuple(s) for s in lat.sites.tolist()] == expected
    assert lat.norm_sq_f.tolist() == [kx * kx + ky * ky + kz * kz for kx, ky, kz in expected]


def test_sup_cube_kmax1_has_26_sites():
    sites = get_lattice(LatticeSpec(1, TruncationRule.SUP_CUBE)).sites
    assert len(sites) == 26


def test_ball_kmax1_has_6_sites():
    lat = get_lattice(LatticeSpec(1))
    assert len(lat.sites) == 6
    assert (lat.norm_sq_f == 1).all()


def test_ball_kmax2_matches_brute_force():
    assert_matches_brute_force(2)


def test_ball_kmax4_matches_brute_force():
    assert_matches_brute_force(4)


def test_sites_lexicographically_ordered(ball3):
    tuples = [tuple(s) for s in ball3.sites.tolist()]
    assert tuples == sorted(tuples)


def test_zero_vector_never_appears(ball3):
    assert ball3.indices((0, 0, 0)) == -1
    assert (ball3.norm_sq_f > 0).all()


def test_closed_under_negation(ball3):
    for s in ball3.sites.tolist():
        assert ball3.indices([-s[0], -s[1], -s[2]]) >= 0


@pytest.mark.parametrize("rule", list(TruncationRule))
@pytest.mark.parametrize("k_max", range(1, 9))
def test_indices_find_sites_and_only_sites(k_max, rule):
    lat = get_lattice(LatticeSpec(k_max, rule))
    n = len(lat)
    assert np.array_equal(lat.indices(lat.sites), np.arange(n))
    assert np.array_equal(lat.indices(-lat.sites), np.arange(n)[::-1])
    # the origin, a point cut off by the truncation, one outside the index
    # cube, and one off the integers (a bare integer cast reads it as (1, 0, 0))
    cut = (k_max, k_max, 1) if rule is TruncationRule.EUCLIDEAN_BALL else (k_max + 1, 0, 0)
    for point in [(0, 0, 0), cut, (2**31 - 1, 0, 0), (-2**31, 0, 0), (1.5, 0, 0)]:
        assert lat.indices(point) == -1
        with pytest.raises(KeyError, match="not on the lattice"):
            lat.site_index(point)
    assert lat.site_index((1, 0, 0)) == lat.indices([[1, 0, 0]])[0] >= 0


@pytest.mark.parametrize("rule", list(TruncationRule))
@pytest.mark.parametrize("k_max", range(1, 9))
def test_negation_is_index_reversal(k_max, rule):
    # reality_defect and reality-symmetric initial data rely on this order
    lat = get_lattice(LatticeSpec(k_max, rule))
    assert (lat.sites[::-1] == -lat.sites).all()


def test_kmax_zero_rejected():
    with pytest.raises(ValueError):
        LatticeSpec(0)
    with pytest.raises(ValueError):
        LatticeSpec(-3)


def test_lattice_equality_by_spec():
    a = get_lattice(LatticeSpec(2))
    b = get_lattice(LatticeSpec(2, TruncationRule.EUCLIDEAN_BALL))
    assert a == b and a is b
    assert a != get_lattice(LatticeSpec(2, TruncationRule.SUP_CUBE))


def test_lattice_holds_geometry_only():
    # the convolution's table and work arrays are the kernel's
    # (operators.conv_kernel), so a convolution leaves the lattice as built
    lat = Lattice(LatticeSpec(3))
    rng = np.random.default_rng(63)
    bilinear(random_field(lat, rng), random_field(lat, rng))
    assert vars(lat).keys() == {"spec", "cube", "sites", "sites_f", "norm_sq_f"}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)))
def test_membership_is_negation_symmetric(k_max, rule):
    lat = get_lattice(LatticeSpec(k_max, rule))
    for i, (kx, ky, kz) in enumerate(lat.sites.tolist()):
        assert lat.site_index((-kx, -ky, -kz)) == len(lat) - 1 - i
