import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import LatticeSpec, TruncationRule, WaveVector, build_lattice, get_lattice

from util import conv_triples


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


def test_wavevector_norm_sq_exact():
    assert WaveVector(1, -2, 3).norm_sq == 14
    assert WaveVector(0, 0, 0).norm_sq == 0
    assert WaveVector(0, 0, 0).is_zero


def test_sup_cube_kmax1_has_26_sites():
    sites = build_lattice(LatticeSpec(1, TruncationRule.SUP_CUBE))
    assert len(sites) == 26


def test_ball_kmax1_has_6_sites():
    sites = build_lattice(LatticeSpec(1))
    assert len(sites) == 6
    assert all(v.norm_sq == 1 for v in sites)


def test_ball_kmax2_matches_brute_force():
    sites = build_lattice(LatticeSpec(2))
    expected = brute_force_ball(2)
    assert [v.as_tuple() for v in sites] == sorted(expected)


def test_ball_kmax4_matches_brute_force():
    sites = build_lattice(LatticeSpec(4))
    assert [v.as_tuple() for v in sites] == sorted(brute_force_ball(4))


def test_sites_lexicographically_ordered(ball3):
    tuples = [tuple(s) for s in ball3.sites.tolist()]
    assert tuples == sorted(tuples)


def test_zero_vector_never_appears(ball3):
    assert (0, 0, 0) not in ball3.index
    assert (ball3.norm_sq > 0).all()


def test_closed_under_negation(ball3):
    for s in ball3.sites.tolist():
        assert (-s[0], -s[1], -s[2]) in ball3.index


def test_negation_permutation(ball2):
    perm = ball2.negation_permutation()
    assert (ball2.sites[perm] == -ball2.sites).all()


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


def test_conv_table_triples_are_valid(ball2):
    tab = ball2.conv_table()
    ki, li = np.divmod(tab.dest, len(ball2))
    row_in_block, mi = np.divmod(tab.src, len(ball2))
    assert (ki % tab.rows == row_in_block).all()
    sites = ball2.sites
    diff = sites[ki] - sites[li]
    assert (diff == sites[mi]).all()
    # no zero vector slips in as l or k-l
    assert (np.abs(sites[li]).sum(axis=1) > 0).all()
    assert (np.abs(diff).sum(axis=1) > 0).all()


def test_conv_table_sorted_by_output(ball2):
    for lat in (ball2, get_lattice(LatticeSpec(2, TruncationRule.SUP_CUBE))):
        tab = lat.conv_table()
        # each pair once, in row-major order of the interaction matrix
        assert (np.diff(tab.dest) > 0).all()
        # and exactly the pairs of an independent enumeration
        ki, li, mi = conv_triples(lat)
        assert (tab.dest == ki * len(lat) + li).all()
        assert (tab.src == ki % tab.rows * len(lat) + mi).all()


@pytest.mark.parametrize("k_max", [1, 4, 6])
def test_conv_table_blocks_partition_the_pairs(k_max):
    lat = get_lattice(LatticeSpec(k_max))
    n = len(lat)
    tab = lat.conv_table()
    assert tab.rows == min(n, max(1, 512 * 1024 // (16 * n)))
    assert [b[0] for b in tab.blocks] == list(range(0, n, tab.rows))
    assert tab.blocks[-1][1] == n
    assert np.array_equal(np.concatenate([b[2] for b in tab.blocks]), tab.dest)
    assert np.array_equal(np.concatenate([b[3] for b in tab.blocks]), tab.src)
    for r0, r1, dest, _ in tab.blocks:
        assert r0 < r1 <= r0 + tab.rows
        assert ((dest >= r0 * n) & (dest < r1 * n)).all()
    dots, inter = lat.conv_work()
    assert dots.shape == (tab.rows, n) and inter.shape == (n, n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)))
def test_membership_is_negation_symmetric(k_max, rule):
    lat = get_lattice(LatticeSpec(k_max, rule))
    for v in lat.wavevectors():
        assert lat.contains((-v).as_tuple())
