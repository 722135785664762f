import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import LatticeSpec, TruncationRule, bilinear, get_lattice
from nstorus.lattice import _ConvTable

from util import conv_triples, random_field


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
    assert lat.norm_sq.tolist() == [kx * kx + ky * ky + kz * kz for kx, ky, kz in expected]


def test_sup_cube_kmax1_has_26_sites():
    sites = get_lattice(LatticeSpec(1, TruncationRule.SUP_CUBE)).sites
    assert len(sites) == 26


def test_ball_kmax1_has_6_sites():
    lat = get_lattice(LatticeSpec(1))
    assert len(lat.sites) == 6
    assert (lat.norm_sq == 1).all()


def test_ball_kmax2_matches_brute_force():
    assert_matches_brute_force(2)


def test_ball_kmax4_matches_brute_force():
    assert_matches_brute_force(4)


def test_sites_lexicographically_ordered(ball3):
    tuples = [tuple(s) for s in ball3.sites.tolist()]
    assert tuples == sorted(tuples)


def test_zero_vector_never_appears(ball3):
    assert ball3.indices((0, 0, 0)) == -1
    assert (ball3.norm_sq > 0).all()


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


def gathered_pairs(lat):
    """The table's gather as (ki, li, d_row, entry) over all N*N pairs,
    sorted by output row ki then li: entry is the D-buffer index that pair
    (ki, li) reads, and d_row the buffer row its output row is meant to
    read, ki - r0 for a block's own rows r0 <= ki < r1 and N-1-ki-r0 for
    its mirror rows N-r1 <= ki < N-r0."""
    n = len(lat)
    rows, d_rows, entries = [], [], []
    for r0, r1, g in lat.conv_table.blocks:
        own, mirror = np.arange(r0, r1), np.arange(n - r1, n - r0)
        rows.append(np.r_[own, mirror])
        d_rows.append(np.r_[own - r0, n - 1 - mirror - r0])
        entries.append(g)
    order = np.argsort(np.concatenate(rows), kind="stable")
    ki, li = np.divmod(np.arange(n * n), n)
    d_row = np.concatenate(d_rows)[order]
    return ki, li, np.repeat(d_row, n), np.concatenate(entries)[order].ravel()


def test_conv_table_triples_are_valid(ball2):
    tab = ball2.conv_table
    n = len(ball2)
    zero_slot = tab.rows * n
    ki, li, d_row, entry = gathered_pairs(ball2)
    pair = entry != zero_slot
    # a pair (k, l) reads D[d_row, m], with sites[m] = k - l: for a mirror
    # row k = -(site N-1-k), D row N-1-k holds -<k, u(m)>
    row_in_block, mi = np.divmod(entry[pair], n)
    assert (row_in_block == d_row[pair]).all()
    sites = ball2.sites
    diff = sites[ki[pair]] - sites[li[pair]]
    assert (diff == sites[mi]).all()
    # no zero vector slips in as l or k-l
    assert (np.abs(sites[li[pair]]).sum(axis=1) > 0).all()
    assert (np.abs(diff).sum(axis=1) > 0).all()


def test_conv_table_sorted_by_output(ball2):
    # the k_max 6 ball's 28 blocks of row pairs put seams in the table, the
    # k_max 3 sup-cube ends on a short block (171 = 3 * 47 + 30 row pairs),
    # and its differences reach the index cube's corners
    for lat in (ball2, get_lattice(LatticeSpec(2, TruncationRule.SUP_CUBE)),
                get_lattice(LatticeSpec(6)), get_lattice(LatticeSpec(3, TruncationRule.SUP_CUBE))):
        tab = lat.conv_table
        n = len(lat)
        ki, li, d_row, entry = gathered_pairs(lat)
        tk, tl, tm = conv_triples(lat)
        want = np.full(n * n, tab.rows * n)
        want[tk * n + tl] = d_row[tk * n + tl] * n + tm
        # exactly the pairs of an independent enumeration read D, each at
        # its own or its mirror's row of the block; every other entry
        # reads the zero slot
        assert np.array_equal(entry, want)


@pytest.mark.parametrize("k_max", [1, 4, 6])
def test_conv_table_blocks_partition_the_pairs(k_max):
    lat = get_lattice(LatticeSpec(k_max))
    n = len(lat)
    half = n // 2
    tab = lat.conv_table
    assert n % 2 == 0
    assert tab.rows == min(half, max(1, 512 * 1024 // (32 * n)))
    # the blocks cover the rows below N/2 once, and none crosses N/2
    assert [b[0] for b in tab.blocks] == list(range(0, half, tab.rows))
    assert all(a[1] == b[0] for a, b in zip(tab.blocks, tab.blocks[1:]))
    assert tab.blocks[-1][1] == half
    for r0, r1, gather in tab.blocks:
        assert r0 < r1 <= min(half, r0 + tab.rows)
        assert gather.shape == (2 * (r1 - r0), n)
        # every index lies in the block's own rows of D or is the zero slot
        assert ((gather < (r1 - r0) * n) | (gather == tab.rows * n)).all()
    # and the blocks are views of one flat N*N intp array
    base = tab.blocks[0][2].base
    assert base is not None and base.shape == (n * n,) and base.dtype == np.intp
    assert all(g.base is base for _, _, g in tab.blocks)
    ki, li, _ = conv_triples(lat)
    assert ki.size == int(sum((g != tab.rows * n).sum() for _, _, g in tab.blocks))
    dots, inter = lat.conv_work
    assert dots.shape == (tab.rows * n + 1,) and inter.shape == (2 * tab.rows, n)


def test_conv_zero_slot_stays_zero_after_bilinear():
    lat = get_lattice(LatticeSpec(6))
    rng = np.random.default_rng(61)
    u, v = random_field(lat, rng), random_field(lat, rng)
    bilinear(u, v)
    dots, _ = lat.conv_work
    assert dots[-1].tobytes() == bytes(16)   # +0.0 + 0.0j exactly


def test_no_full_interaction_matrix_on_the_lattice():
    lat = get_lattice(LatticeSpec(6))
    n = len(lat)
    rng = np.random.default_rng(62)
    bilinear(random_field(lat, rng), random_field(lat, rng))

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                yield from arrays(item)
        elif isinstance(obj, _ConvTable):
            yield from arrays(obj.blocks)

    held = list(arrays(list(vars(lat).values())))
    assert held, "the lattice should hold its table and work arrays"
    assert not [a.shape for a in held if np.iscomplexobj(a) and a.size >= n * n]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)))
def test_membership_is_negation_symmetric(k_max, rule):
    lat = get_lattice(LatticeSpec(k_max, rule))
    for i, (kx, ky, kz) in enumerate(lat.sites.tolist()):
        assert lat.site_index((-kx, -ky, -kz)) == len(lat) - 1 - i
