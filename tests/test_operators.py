import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nstorus import (
    Lattice,
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
from nstorus import operators
from nstorus.operators import conv_kernel, duhamel_rules

ROOT = Path(__file__).resolve().parents[1]
from util import (ball, conv_triples, direct_bilinear, duhamel_terms, random_field,
                  random_sliced, shared_ints, slice_builds, star_majorant)


@pytest.fixture
def two_lanes(lanes):
    lanes(2)


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
    # one zero k in a batch
    with pytest.raises(ValueError):
        leray_project([(1, 0, 0), (0, 0, 0), (0, 2, 1)], np.ones((3, 3)))


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
    # bilinear's call: (N, 1, 3) sites against an (S+1, N, v, 3) block is
    # bit-equal to projecting each vector on its own
    lat = ball(2)
    block = (rng.standard_normal((3, len(lat), 2, 3))
             + 1j * rng.standard_normal((3, len(lat), 2, 3)))
    each = np.array([[[leray_project(k, x) for x in row] for k, row in zip(lat.sites_f, sl)]
                     for sl in block])
    assert np.array_equal(leray_project(lat.sites_f[:, None, :], block).view(np.uint64),
                          each.view(np.uint64))
    # and so is its projection in place
    assert leray_project(lat.sites_f[:, None, :], block, block) is block
    assert np.array_equal(block.view(np.uint64), each.view(np.uint64))


# -- convolution kernel ----------------------------------------------------------

def gathered_pairs(lat):
    """The kernel's gather as (ki, li, d_row, entry) over all N*N pairs,
    sorted by output row ki then li: entry is the D-buffer index that pair
    (ki, li) reads, and d_row the buffer row its output row is meant to
    read, ki - r0 for a block's own rows r0 <= ki < r1 and N-1-ki-r0 for
    its mirror rows N-r1 <= ki < N-r0."""
    n = len(lat)
    rows, d_rows, entries = [], [], []
    for r0, r1, g in conv_kernel(lat).blocks:
        own, mirror = np.arange(r0, r1), np.arange(n - r1, n - r0)
        rows.append(np.r_[own, mirror])
        d_rows.append(np.r_[own - r0, n - 1 - mirror - r0])
        entries.append(g)
    order = np.argsort(np.concatenate(rows), kind="stable")
    ki, li = np.divmod(np.arange(n * n), n)
    d_row = np.concatenate(d_rows)[order]
    return ki, li, np.repeat(d_row, n), np.concatenate(entries)[order].ravel()


def test_conv_table_triples_are_valid(ball2):
    kern = conv_kernel(ball2)
    n = len(ball2)
    zero_slot = kern.rows * n
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
        kern = conv_kernel(lat)
        n = len(lat)
        ki, li, d_row, entry = gathered_pairs(lat)
        tk, tl, tm = conv_triples(lat)
        want = np.full(n * n, kern.rows * n)
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
    kern = conv_kernel(lat)
    assert n % 2 == 0
    assert kern.rows == min(half, max(1, 512 * 1024 // (32 * n)))
    # the blocks cover the rows below N/2 once, and none crosses N/2
    assert [b[0] for b in kern.blocks] == list(range(0, half, kern.rows))
    assert all(a[1] == b[0] for a, b in zip(kern.blocks, kern.blocks[1:]))
    assert kern.blocks[-1][1] == half
    for r0, r1, gather in kern.blocks:
        assert r0 < r1 <= min(half, r0 + kern.rows)
        assert gather.shape == (2 * (r1 - r0), n)
        # every index lies in the block's own rows of D or is the zero slot
        assert ((gather < (r1 - r0) * n) | (gather == kern.rows * n)).all()
    # and the blocks are views of one flat N*N uint16 array
    base = kern.blocks[0][2].base
    assert base is not None and base.shape == (n * n,) and base.dtype == np.uint16
    assert all(g.base is base for _, _, g in kern.blocks)
    ki, li, _ = conv_triples(lat)
    assert ki.size == int(sum((g != kern.rows * n).sum() for _, _, g in kern.blocks))
    # one lane, whose arrays are its own (each process that runs a lane
    # has its own copy of them)
    lane = kern.lane
    assert lane.dots.shape == (kern.rows * n + 1,) and lane.inter.shape == (2 * kern.rows, n)
    held = [lane.dots, lane.index, lane.inter, lane.work, lane.prod]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1:])


def test_conv_zero_slot_stays_zero_after_bilinear(two_lanes, monkeypatch):
    # in every lane: a call over 4 live slices runs 2 in each, and the
    # caller and the worker each check their own copy of the zero slot
    lat = get_lattice(LatticeSpec(6))
    rng = np.random.default_rng(61)
    times = unit_times(3)
    u, v = random_sliced(lat, times, rng), random_sliced(lat, times, rng)
    caller = os.getpid()
    checked = shared_ints(2)   # lane runs checked, in the caller and in the worker
    lane_products = operators._lane_products

    def checking(lane, *args):
        lane_products(lane, *args)
        assert lane.dots[-1].tobytes() == bytes(16)   # +0.0 + 0.0j exactly
        checked[int(os.getpid() != caller)] += 1

    monkeypatch.setattr(operators, "_lane_products", checking)
    bilinear(u, v)
    assert checked.tolist() == [1, 1]


def held_arrays(obj):
    """Every array that obj, a kernel, a lane, or a list or tuple of them
    and of arrays, holds."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from held_arrays(item)
    elif isinstance(obj, (operators._ConvKernel, operators._Lane)):
        yield from held_arrays(list(vars(obj).values()))


def test_no_full_interaction_matrix_on_the_lattice():
    # neither the lattice nor its convolution kernel holds an (N, N)
    # complex matrix
    lat = get_lattice(LatticeSpec(6))
    n = len(lat)
    rng = np.random.default_rng(62)
    bilinear(random_field(lat, rng), random_field(lat, rng))
    kernel = list(held_arrays(conv_kernel(lat)))
    assert kernel, "the kernel should hold its table and work arrays"
    held = kernel + list(held_arrays(list(vars(lat).values())))
    assert not [a.shape for a in held if np.iscomplexobj(a) and a.size >= n * n]


def kernel_bytes(lat):
    """Bytes of the distinct memory behind every array that lat's
    convolution kernel and its lane hold, less the lattice's own arrays
    (the blocks' sites are views of them)."""
    def owner(a):
        return a if a.base is None else owner(a.base)

    owned = {id(owner(a)): owner(a) for a in held_arrays(conv_kernel(lat))}
    for a in held_arrays(list(vars(lat).values())):
        owned.pop(id(owner(a)), None)
    return sum(a.nbytes for a in owned.values())


def lane_bytes(n, rows):
    """Bytes of a lane's work arrays as _Lane documents them: the D buffer
    with its zero slot, the intp index block, the complex block of A, the
    chunk buffer (at least _CHUNK_SLICES slices with two right factors),
    the block product and the two projection buffers."""
    work = max(operators._CHUNK_BYTES // 8, operators._CHUNK_SLICES * 30 * n)
    project = 2 * max(operators._PROJECTION_BYTES // 48, 2 * n)
    return (16 * (rows * n + 1) + 8 * 2 * rows * n + 16 * 2 * rows * n + 8 * work + 8 * 24 * rows
            + 16 * project)


@pytest.mark.parametrize("k_max", [6, 8])
def test_conv_kernel_holds_a_two_byte_table_and_one_lane(k_max):
    # The gather table takes 2 N^2 bytes (1.6 MiB at k_max 6; 8.5 MiB at
    # k_max 8, N = 2108), and the kernel holds nothing but it and the
    # lane's documented arrays. No (N, N) intp array (34 MiB at k_max 8)
    # is formed, even while the table is built: the build's traced peak is
    # the kernel's own arrays and block-sized temporaries. Each kernel is
    # built alone and dropped after.
    lat = get_lattice(LatticeSpec(k_max))
    n = len(lat)
    conv_kernel.cache_clear()
    try:
        tracemalloc.start()
        try:
            kern = conv_kernel(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = kern.blocks[0][2].base
        assert table.dtype == np.uint16 and table.nbytes == 2 * n * n
        assert kernel_bytes(lat) <= 2 * n * n + lane_bytes(n, kern.rows)
        assert peak <= kernel_bytes(lat) + (1 << 20), peak
    finally:
        conv_kernel.cache_clear()


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
    # floor (an FFT's ~1e-16 max|u||v|) fails at the decayed sites. The
    # shared-left-factor form must give each v the same accuracy.
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    decay = np.exp(-a * lat.norm_sq_f)
    u, v1, v2 = (SpectralField(lat, random_field(lat, rng).data * decay[:, None])
                 for _ in range(3))
    assert_matches_direct_per_site(u, (v1,), (bilinear(u, v1),))
    assert_matches_direct_per_site(u, (v1, v2), bilinear(u, v1, v2))


def assert_matches_direct_per_site(u, vs, got):
    assert_per_site([direct_bilinear(u, v) for v in vs], got)


def assert_per_site(wants, got):
    assert len(got) == len(wants)
    for want, out in zip(wants, got):
        err = np.linalg.norm(out.data - want, axis=1)
        assert (err <= 1e-13 * np.linalg.norm(want, axis=1)).all()


def test_bilinear_matches_direct_sum_per_site_many_blocks():
    # At k_max 6 the interaction matrix is built in 28 blocks of row pairs
    # (at most 2 on a k_max <= 4 ball), so it covers the block seams. The
    # k_max 3 sup-cube's last block holds 30 of rows = 47 pairs, so a wrong
    # sign or row offset on a short block's mirror rows fails here too.
    for lat, blocks in ((ball(6), 28),
                        (get_lattice(LatticeSpec(3, TruncationRule.SUP_CUBE)), 4)):
        kern = conv_kernel(lat)
        r0, r1, _ = kern.blocks[-1]
        assert len(kern.blocks) == blocks and r1 - r0 < kern.rows
        rng = np.random.default_rng(6)
        decay = np.exp(-0.5 * lat.norm_sq_f)
        u, v1, v2 = (SpectralField(lat, random_field(lat, rng).data * decay[:, None])
                     for _ in range(3))
        assert_matches_direct_per_site(u, (v1, v2), bilinear(u, v1, v2))


def structured_factor(kind, data, rng):
    """data made purely real, purely imaginary, or with exact zeros: a
    whole component, half the sites, and some real and imaginary parts."""
    if kind == "real":
        return data.real + 0j
    if kind == "imaginary":
        return 1j * data.imag
    data = data.copy()
    data[:, 1] = 0.0
    data[rng.uniform(size=len(data)) < 0.5] = 0.0
    data[rng.uniform(size=data.shape) < 0.3] *= 1j   # real parts move to imaginary
    real = rng.uniform(size=data.shape) < 0.3
    data[real] = data.real[real]   # and imaginary parts drop
    return data


@pytest.mark.parametrize("kinds", [("real", "imaginary"), ("imaginary", "zeros"),
                                   ("zeros", "real")])
def test_bilinear_matches_direct_sum_per_site_on_structured_right_factors(kinds):
    # The real product multiplies each v(l)'s (re, im) row and its
    # (-im, re) row; purely real and purely imaginary right factors, and
    # ones with exact zero components, use each row alone. k_max 6 covers
    # the block seams; one right factor and two.
    lat = ball(6)
    rng = np.random.default_rng(11)
    decay = np.exp(-0.5 * lat.norm_sq_f)
    u, v1, v2 = (random_field(lat, rng).data * decay[:, None] for _ in range(3))
    u = SpectralField(lat, u)
    v1 = SpectralField(lat, structured_factor(kinds[0], v1, rng))
    v2 = SpectralField(lat, structured_factor(kinds[1], v2, rng))
    want1, want2 = direct_bilinear(u, v1), direct_bilinear(u, v2)
    assert_per_site((want1,), (bilinear(u, v1),))
    assert_per_site((want1, want2), bilinear(u, v1, v2))


def test_bilinear_with_an_infinite_right_factor_is_not_finite():
    # a diverging solve must see its forcing go non-finite, whether or not
    # the infinite factor shares its left factor with a finite one
    lat = ball(6)
    rng = np.random.default_rng(7)
    u, v, w = (random_field(lat, rng) for _ in range(3))
    data = v.data.copy()
    data[len(lat) // 3, 2] = complex(np.inf, 0.0)
    v = SpectralField(lat, data)
    with np.errstate(invalid="ignore", over="ignore"):
        alone = bilinear(u, v)
        finite, shared = bilinear(u, w, v)
    assert not np.isfinite(alone.data).all()
    assert not np.isfinite(shared.data).all()
    assert np.isfinite(finite.data).all()


def test_bilinear_rejects_an_out_it_cannot_write_through(ball2):
    # the products are written through out's real view, so out must be
    # complex128 of the exact shape with a contiguous last axis; a bad out
    # is rejected before anything is written to it
    times = unit_times(2)
    rng = np.random.default_rng(4)
    u, v = random_sliced(ball2, times, rng), random_sliced(ball2, times, rng)
    shape = (len(times), len(ball2), 3)
    for bad in (np.full(shape[::-1], np.nan, dtype=np.complex128).T,
                np.full(shape, np.nan),
                np.full((len(times), len(ball2), 2), np.nan, dtype=np.complex128)):
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            bilinear(u, v, out=bad)
        assert np.isnan(bad).all()
    # a fresh array like star_product's own buffer passes, and so does a
    # slice whose last axis is contiguous
    own = np.empty(shape, dtype=np.complex128)
    assert bilinear(u, v, out=own) is own
    wide = np.zeros((len(times), len(ball2), 6), dtype=np.complex128)
    bilinear(u, v, out=wide[:, :, 3:])
    assert np.array_equal(wide[:, :, 3:], own) and not wide[:, :, :3].any()
    assert star_product(u, v).data.shape == shape
    assert len(star_product(u, v, v)) == 2


def test_bilinear_skips_zero_products(ball2):
    rng = np.random.default_rng(3)
    u, v = random_field(ball2, rng), random_field(ball2, rng)
    zero = SpectralField.zero(ball2)
    for out in (*bilinear(zero, v, u), *bilinear(u, zero, zero)):
        assert not out.data.any()
    # a zero right factor beside a nonzero one still gets exact zeros
    out_zero, out_v = bilinear(u, zero, v)
    assert not out_zero.data.any()
    assert out_v.data.any()


def test_bilinear_unreached_outputs_are_positive_zeros():
    # An output no pair reaches sums to +0 in BLAS; a mirror row's copy is
    # negated, and must keep it +0, since checkpoints keep the sign of a
    # zero. On the k_max 1 ball no k - l is a site, so every output is one.
    lat = ball(1)
    rng = np.random.default_rng(12)
    u, v = random_field(lat, rng), random_field(lat, rng)
    assert bilinear(u, v).data.tobytes() == bytes(u.data.nbytes)


def test_bilinear_zero_call_prepares_lattice():
    # a warm-up call on zeros still builds the convolution kernel (the pair
    # table and work arrays), so its one-off cost is paid at set-up, not in
    # the first solve: the solve's first fetch of it is a cache hit
    lat = Lattice(LatticeSpec(2))
    zero = SpectralField.zero(lat)
    conv_kernel.cache_clear()
    bilinear(zero, zero)
    built = conv_kernel.cache_info()
    assert (built.misses, built.currsize) == (1, 1)
    conv_kernel(lat)
    again = conv_kernel.cache_info()
    assert (again.hits, again.misses) == (built.hits + 1, 1)


def test_bilinear_on_sliced_fields_is_per_slice(ball2):
    # one call over the grid: the same kernel as one call per slice,
    # zero slices included, and with out the side-by-side products
    times = unit_times(4)
    rng = np.random.default_rng(9)
    u, v1, v2 = (random_sliced(ball2, times, rng) for _ in range(3))
    u = TimeSlicedField(times, ball2, u.data * np.array([1, 0, 1, 1, 1])[:, None, None])
    v1 = TimeSlicedField(times, ball2, v1.data * np.array([1, 1, 0, 0, 1])[:, None, None])
    v2 = TimeSlicedField(times, ball2, v2.data * np.array([1, 1, 0, 1, 1])[:, None, None])
    got1, got2 = bilinear(u, v1, v2)
    for n, (a, b, c) in enumerate(zip(u.slices, v1.slices, v2.slices)):
        want1, want2 = bilinear(a, b, c)
        assert np.array_equal(got1.data[n], want1.data)
        assert np.array_equal(got2.data[n], want2.data)
    assert not got1.data[2].any() and not got2.data[1].any()
    out = np.full((len(times), len(ball2), 6), np.nan, dtype=np.complex128)
    assert bilinear(u, v1, v2, out=out) is out
    assert np.array_equal(out, np.concatenate([got1.data, got2.data], axis=2))
    with pytest.raises(ValueError):
        bilinear(u, TimeSlicedField.zero(ball2, unit_times(2)))
    with pytest.raises(ValueError):
        star_product(u, TimeSlicedField.zero(ball2, unit_times(2)))
    with pytest.raises(ValueError):
        bilinear(u.slices[0], v1)


def chunk_slices(lat, nv):
    """Slices per chunk of the kernel's work buffer for nv right factors:
    each takes (2N, 6 nv) right factors and a (3, 2N) left factor."""
    return conv_kernel(lat).lane.work.size // (6 * len(lat) * (2 * nv + 1))


def test_bilinear_builds_only_live_slices_across_chunks(lanes, monkeypatch):
    # One call over 14 slices at k_max 4, whose work buffer holds 7 slices
    # with one right factor and 4 with two. Dead slices sit at slice 0,
    # inside a chunk, in runs across both chunk boundaries and at the
    # last slice; slice 9 has one zero v, so it is live with two right
    # factors and dead with that v alone. Two lanes: the builds are
    # counted in the caller and in the worker, which is forked after the
    # count is patched in.
    lanes(2)
    lat = ball(4)
    assert (chunk_slices(lat, 1), chunk_slices(lat, 2)) == (7, 4)
    times = unit_times(13)
    rng = np.random.default_rng(13)
    u, v1, v2 = (random_sliced(lat, times, rng).data.copy() for _ in range(3))
    u[[0, 3, 4]] = 0.0        # slice 0; a run across the boundary at 4
    v1[[2, 6, 7, 13]] = 0.0   # inside a chunk; a run across 7; the last slice
    v2[[2, 6, 7, 9, 13]] = 0.0
    u, v1, v2 = (TimeSlicedField(times, lat, d) for d in (u, v1, v2))
    caller = os.getpid()
    builds = shared_ints(2)   # in the caller, in the worker
    block_products = operators._block_products

    def counting(step, chunk):
        builds[int(os.getpid() != caller)] += slice_builds(step, chunk)
        return block_products(step, chunk)

    monkeypatch.setattr(operators, "_block_products", counting)
    for vs, dead in (((v2,), {0, 2, 3, 4, 6, 7, 9, 13}), ((v1, v2), {0, 2, 3, 4, 6, 7, 13})):
        builds[:] = 0
        got = bilinear(u, *vs)
        assert builds.sum() == len(times) - len(dead) and builds.all()
        got = got if len(vs) == 2 else (got,)
        for s in range(len(times)):
            want = bilinear(u.slices[s], *(v.slices[s] for v in vs))
            want = want if len(vs) == 2 else (want,)
            for g, w in zip(got, want, strict=True):
                assert g.data[s].tobytes() == w.data.tobytes()
                if s in dead:
                    assert g.data[s].tobytes() == bytes(g.data[s].nbytes)   # +0 exactly
        assert not got[-1].data[9].any() and (len(vs) == 1 or got[0].data[9].any())


def test_bilinear_warm_call_allocates_nothing_per_slice(lanes, monkeypatch):
    # A warm call keeps no whole-grid work array: its peak traced
    # allocation, in the caller and in the worker, is the same at 9 and 193
    # slices, and every lane works in its own buffers of the kernel, the
    # same ones on every call; with one lane and with two. The projection
    # runs in the lane's buffers too (see the next test), so what it
    # allocates is numpy's iteration buffers, which grow with the slices
    # projected at once up to _PROJECTION_BYTES, which a 9-slice grid does
    # not reach at k_max 4: so the projection runs one slice at a time here
    # to compare the rest. A worker forked while the
    # caller traces keeps tracing; it writes its peak over each job into
    # shared memory (-1 when it does not trace).
    monkeypatch.setattr(operators, "_PROJECTION_BYTES", 1)
    worker_peak = shared_ints(1)
    run = operators._Worker._run

    def traced_run(self, *job):
        tracing = tracemalloc.is_tracing()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return run(self, *job)
        finally:
            worker_peak[0] = tracemalloc.get_traced_memory()[1] - base if tracing else -1

    monkeypatch.setattr(operators._Worker, "_run", traced_run)
    caller = os.getpid()
    # each slice's (out, u, rhs, prod) addresses, in the caller and in the
    # worker, and how many rows each holds
    seen, rows = shared_ints(2, 193, 4), shared_ints(2)
    block_products = operators._block_products

    def recording(step, chunk):
        # the lane in this process, the caller or a worker, owns every
        # array the block and its slices use
        lane = conv_kernel(lat).lane
        assert np.shares_memory(step[-3], lane.prod)   # -3: prod
        assert step[4] is lane.dots and np.shares_memory(step[6], lane.index)
        assert np.shares_memory(step[7], lane.inter)
        side = int(os.getpid() != caller)
        if slice_builds(step, chunk):   # each slice once, at the first block
            for u, rhs, out in chunk:
                assert np.shares_memory(u, lane.work) and np.shares_memory(rhs, lane.work)
                seen[side, rows[side]] = (out.ctypes.data, u.ctypes.data, rhs.ctypes.data,
                                          step[-3].ctypes.data)
                rows[side] += 1
        return block_products(step, chunk)

    def recorded():
        return {(side, *map(int, row)) for side in (0, 1) for row in seen[side, :rows[side]]}

    rng = np.random.default_rng(14)
    lat = ball(4)
    for count in (1, 2):
        lanes(count)
        for nv in (1, 2):
            peaks, worker_peaks = [], []
            for slices in (9, 193):
                times = unit_times(slices - 1)
                u, *vs = (random_sliced(lat, times, rng) for _ in range(nv + 1))
                out = np.empty((slices, len(lat), 3 * nv), dtype=np.complex128)
                worker_peak[0] = -2   # no job ran
                # the warm-up call may fork the worker: it must trace too
                tracemalloc.start()
                try:
                    bilinear(u, *vs, out=out)
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    bilinear(u, *vs, out=out)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                finally:
                    tracemalloc.stop()
                worker_peaks.append(int(worker_peak[0]))
            assert abs(peaks[1] - peaks[0]) <= 16 * 1024, (count, nv, peaks)
            if count == 1:
                assert worker_peaks == [-2, -2]
            else:
                assert min(worker_peaks) >= 0, worker_peaks
                assert abs(worker_peaks[1] - worker_peaks[0]) <= 16 * 1024, (nv, worker_peaks)
            # two calls on the same slices run each in the same lane, at
            # the same addresses, and every lane takes part; the worker is
            # forked after the recording is patched in
            lanes(count)
            monkeypatch.setattr(operators, "_block_products", recording)
            rows[:] = 0
            bilinear(u, *vs, out=out)
            first = recorded()
            rows[:] = 0
            bilinear(u, *vs, out=out)
            monkeypatch.setattr(operators, "_block_products", block_products)
            assert first == recorded() and len(first) == 193
            assert {side for side, *_ in first} == set(range(count))
            lanes(count)


def test_projection_runs_in_the_lane_buffers(lanes, monkeypatch):
    # bilinear projects through the lane's two projection buffers, so a
    # warm call allocates no array: at 193 slices its traced peak is
    # numpy's iteration buffer (at most its buffer size per operand), where
    # the projection's own temporaries took up to 271 KB beside it
    lat = ball(4)
    lane = conv_kernel(lat).lane
    project = operators.leray_project
    works = []

    def recording(k, x, out, work):
        works.append((k, work))
        return project(k, x, out, work)

    rng = np.random.default_rng(15)
    times = unit_times(192)
    lanes(1)
    for nv in (1, 2):
        u, *vs = (random_sliced(lat, times, rng) for _ in range(nv + 1))
        out = np.empty((len(times), len(lat), 3 * nv), dtype=np.complex128)
        bilinear(u, *vs, out=out)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bilinear(u, *vs, out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * np.getbufsize() + 16 * 1024, (nv, peak)
        monkeypatch.setattr(operators, "leray_project", recording)
        bilinear(u, *vs, out=out)
        monkeypatch.setattr(operators, "leray_project", project)
    assert works
    for k, (ksq, factor, term) in works:
        assert k is lane.ksites and ksq is lane.ksq
        assert np.shares_memory(factor, lane.project[0])
        assert np.shares_memory(term, lane.project[1])


# -- lanes ------------------------------------------------------------------------

LANE_LATTICES = ([LatticeSpec(k) for k in (1, 2, 3, 4, 5, 6, 8)]
                 + [LatticeSpec(k, TruncationRule.SUP_CUBE) for k in (1, 2, 3, 4)])


def lane_factors(lat, slices, seed):
    """u, v1 and v2 on slices grid times: u dead at slice 0, v1 and v2 at
    slice slices // 2 and at the last slice, and v2 also at slice 2, which
    v1 keeps live."""
    times = unit_times(slices - 1)
    rng = np.random.default_rng(seed)
    u, v1, v2 = (random_sliced(lat, times, rng).data.copy() for _ in range(3))
    u[0] = 0.0
    v1[[slices // 2, -1]] = 0.0
    v2[[2, slices // 2, -1]] = 0.0
    return tuple(TimeSlicedField(times, lat, d) for d in (u, v1, v2))


def lane_outputs(lanes, count, u, *vs):
    """bilinear(u, *vs) into a fresh out, from a kernel with count lanes."""
    lanes(count)
    out = np.full((len(u.times), len(u.lattice), 3 * len(vs)), np.nan, dtype=np.complex128)
    return bilinear(u, *vs, out=out)


@pytest.mark.parametrize("spec", LANE_LATTICES, ids=lambda s: f"{s.truncation_rule.value}-{s.k_max}")
def test_bilinear_two_lanes_match_one_lane_per_slice(spec, lanes):
    # 8 slices, 5 of them live (1-3, 5, 6): two lanes run 1-3 and 5-6, with
    # a dead slice before the first run, between the runs and after the
    # last; v2's zero slice 2 lies inside the first run
    lat = get_lattice(spec)
    u, v1, v2 = lane_factors(lat, 8, seed=71)
    for vs in ((v1,), (v1, v2)):
        want = lane_outputs(lanes, 1, u, *vs)
        got = lane_outputs(lanes, 2, u, *vs)
        for s in range(8):
            assert got[s].tobytes() == want[s].tobytes(), s
        for s in (0, 4, 7):
            assert got[s].tobytes() == bytes(got[s].nbytes)   # +0 exactly


def test_bilinear_chunking_changes_no_byte(lanes, monkeypatch):
    # A k_max 6 call (28 blocks) with two right factors over 17 slices, 14
    # of them live (u is dead at slice 0, both vs at 8 and 16), so each of
    # two lanes runs 7: chunks of 1 slice, of 4 and of a lane's whole run
    # give the same bytes. Each run ends inside a chunk of 4, and v2's
    # zero slice 2 is live beside v1. The lane's chunk buffer is patched
    # before the worker is forked; the kernel and the workers that saw
    # the patch are dropped after.
    lat = ball(6)
    n = len(lat)
    assert chunk_slices(lat, 2) == operators._CHUNK_SLICES
    u, v1, v2 = lane_factors(lat, 17, seed=63)
    outputs = []
    try:
        for chunk in (1, 4, 17):
            monkeypatch.setattr(conv_kernel(lat).lane, "work", np.empty(chunk * 30 * n))
            assert chunk_slices(lat, 2) == chunk
            outputs.append(lane_outputs(lanes, 2, u, v1, v2).tobytes())
    finally:
        conv_kernel.cache_clear()
        operators._stop_workers()
    assert outputs[0] == outputs[1] == outputs[2]


def test_bilinear_zeroes_a_dead_slice_inside_a_workers_run(lanes):
    # 6 slices, v dead at slice 4: the worker runs live slices 3 and 5, so
    # its mapping's rows for slice 4 hold factors, and they must come back
    # as the one-lane bytes, +0
    lat = ball(3)
    times = unit_times(5)
    rng = np.random.default_rng(81)
    u, v = (random_sliced(lat, times, rng).data.copy() for _ in range(2))
    v[4] = 0.0
    u, v = (TimeSlicedField(times, lat, d) for d in (u, v))
    want = lane_outputs(lanes, 1, u, v)
    got = lane_outputs(lanes, 2, u, v)
    assert got.tobytes() == want.tobytes()
    assert got[4].tobytes() == bytes(got[4].nbytes)


def test_bilinear_gives_each_lane_enough_pairs(lanes, monkeypatch):
    # a lane beyond the first costs its call a fixed time, so each lane
    # gets at least _LANE_PAIRS pairs: a 9-slice call at k_max 3 runs on
    # one lane and forks no worker, and one at k_max 4 runs on two
    least = operators._LANE_PAIRS
    lanes(2)
    monkeypatch.setattr(operators, "_LANE_PAIRS", least)
    rng = np.random.default_rng(80)
    for k_max, workers in ((3, 0), (4, 1)):
        u, v = (random_sliced(ball(k_max), unit_times(8), rng) for _ in range(2))
        bilinear(u, v)
        assert len(operators._workers) == workers


def test_bilinear_forks_a_worker_once_for_a_wider_call(lanes, monkeypatch):
    # a worker's mapping is sized for the widest job a call of its span
    # can send: the solver's S(H, H) copies one distinct factor (3
    # columns), its next call S(R, H + R) two (6 columns) over the same
    # span, and S(g, T, g) two, and the worker forked for the first serves
    # the others
    lat = ball(2)
    times = unit_times(8)
    rng = np.random.default_rng(81)
    h, r = (random_sliced(lat, times, rng) for _ in range(2))
    calls = ((h, h), (r, h), (r, h, r))
    want = [lane_outputs(lanes, 1, *f).tobytes() for f in calls]
    lanes(2)
    forks = []
    init = operators._Worker.__init__

    def counting(self, size):
        forks.append(size)
        init(self, size)

    monkeypatch.setattr(operators._Worker, "__init__", counting)
    for factors, expected in zip(calls, want):
        out = np.full((len(times), len(lat), 3 * (len(factors) - 1)), np.nan,
                      dtype=np.complex128)
        assert bilinear(*factors, out=out).tobytes() == expected
    assert len(forks) == 1 and len(operators._workers) == 1


def test_bilinear_lanes_under_contention(lanes):
    # more lanes than CPUs, so the processes take turns on them, over 10
    # calls on the same persistent workers: every call still gives the
    # one-lane bytes
    count = operators._usable_cpus() + 1
    u, v1, v2 = lane_factors(ball(2), count + 4, seed=72)
    want = lane_outputs(lanes, 1, u, v1, v2).tobytes()
    lanes(count)
    pids = None
    for _ in range(10):
        out = np.full((len(u.times), len(u.lattice), 6), np.nan, dtype=np.complex128)
        assert bilinear(u, v1, v2, out=out).tobytes() == want
        assert pids in (None, [w.pid for w in operators._workers])
        pids = [w.pid for w in operators._workers]
    assert len(pids) == count - 1


@pytest.mark.parametrize("raiser, error", [("worker", RuntimeError), ("caller", KeyboardInterrupt)])
def test_bilinear_raises_only_once_every_lane_has_stopped(raiser, error, lanes, monkeypatch):
    # 8 live slices, 4 per lane: one lane raises before its first slice
    # while the other takes 10 ms a slice. The error reaches the caller only
    # after the other lane has finished, and the next call, in the same
    # worker, is exact. The sides count in memory they share, and the
    # worker is forked after the patch.
    lat = ball(3)
    times = unit_times(7)
    rng = np.random.default_rng(73)
    u, v = random_sliced(lat, times, rng), random_sliced(lat, times, rng)
    lanes(1)
    want = bilinear(u, v).data.tobytes()
    caller = os.getpid()
    # per side, caller then worker: slices running, slices finished; and
    # whether the raiser still raises
    active, finished, armed = shared_ints(2), shared_ints(2), shared_ints(1)
    armed[0] = 1
    raising_side = ("caller", "worker").index(raiser)
    block_products = operators._block_products

    def flaky(step, chunk):
        side = int(os.getpid() != caller)
        active[side] += 1
        try:
            if side == raising_side and armed[0]:
                raise error(f"from the {raiser}")
            time.sleep(0.01 * len(chunk))
            block_products(step, chunk)
            finished[side] += slice_builds(step, chunk)
        finally:
            active[side] -= 1

    lanes(2)
    monkeypatch.setattr(operators, "_block_products", flaky)
    with pytest.raises(error, match=f"from the {raiser}"):
        bilinear(u, v)
    assert active.tolist() == [0, 0]
    assert finished.tolist() == ([0, 4] if raiser == "caller" else [4, 0])
    armed[0] = 0
    worker = operators._workers[0].pid
    assert bilinear(u, v).data.tobytes() == want
    assert operators._workers[0].pid == worker


def test_bilinear_lanes_run_under_the_callers_error_state(two_lanes):
    # the products of the last of 4 live slices overflow, and the second
    # lane, a worker process, runs it: numpy's error state there is the
    # caller's, and the warnings it issues go through the caller's
    # warnings filters, at the line that called bilinear
    lat = ball(2)
    times = unit_times(3)
    rng = np.random.default_rng(74)
    u, v = (random_sliced(lat, times, rng).data.copy() for _ in range(2))
    u[-1] *= 1e200
    v[-1] *= 1e200
    u, v = (TimeSlicedField(times, lat, d) for d in (u, v))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            bilinear(u, v)
    with np.errstate(over="warn", invalid="ignore"):
        with pytest.warns(RuntimeWarning, match="overflow") as record:
            bilinear(u, v)
    assert {w.filename for w in record} == {__file__}
    with np.errstate(over="ignore", invalid="ignore"):
        got = bilinear(u, v)   # RuntimeWarnings are errors in this suite
    assert np.isfinite(got.data[:-1]).all() and not np.isfinite(got.data[-1]).all()


def test_bilinear_workers_keep_no_array_of_a_finished_call(two_lanes):
    # the caller's handle on an idle worker holding its last job would
    # keep that call's factors and output alive until the next call
    lat = ball(2)
    times = unit_times(3)
    rng = np.random.default_rng(76)
    u, v = random_sliced(lat, times, rng), random_sliced(lat, times, rng)
    out = np.empty((len(times), len(lat), 3), dtype=np.complex128)
    bilinear(u, v, out=out)
    assert operators._workers
    held = [weakref.ref(a) for a in (u.data, v.data, out)]
    del u, v, out
    assert [ref() for ref in held] == [None] * 3


def lane_pair(lanes, seed):
    """u and v on 6 grid times at k_max 2, and their product's one-lane
    bytes; the workers are stopped, and the next call runs two lanes."""
    lat = ball(2)
    times = unit_times(5)
    rng = np.random.default_rng(seed)
    u, v = random_sliced(lat, times, rng), random_sliced(lat, times, rng)
    lanes(1)
    want = bilinear(u, v).data.tobytes()
    lanes(2)
    return u, v, want


def is_open(fd):
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_bilinear_in_a_forked_child_starts_its_own_workers(lanes):
    # The parent's workers are not the child's children. A child closes
    # its copies of their pipes, which would keep a worker's job pipe from
    # reaching EOF, and forks its own worker for a two-lane call.
    u, v, want = lane_pair(lanes, seed=75)
    assert bilinear(u, v).data.tobytes() == want
    fds = [fd for worker in operators._workers for fd in (worker.jobs, worker.answers)]
    assert fds
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            dropped = not operators._workers and not any(map(is_open, fds))
            exact = bilinear(u, v).data.tobytes() == want
            code = 0 if dropped and exact and len(operators._workers) == 1 else 4
            operators._stop_workers()
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's call did not finish")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_bilinear_reports_a_killed_worker_and_forks_a_fresh_one(lanes):
    # a worker killed between calls: the next call raises an error that
    # names it, and the call after forks a fresh worker and is exact
    u, v, want = lane_pair(lanes, seed=78)
    bilinear(u, v)
    pid = operators._workers[0].pid
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=f"process {pid} was killed by signal {signal.SIGKILL:d}"):
        bilinear(u, v)
    assert not operators._workers
    assert bilinear(u, v).data.tobytes() == want
    assert operators._workers[0].pid != pid


class Unloadable(Exception):
    """Pickles, but cannot be unpickled: it pickles its first argument
    alone, and its constructor needs two."""

    def __init__(self, first, second):
        super().__init__(first)


@pytest.mark.parametrize("error, match", [
    (Unloadable("from the worker", None), "sent an answer that cannot be unpickled"),
    (RuntimeError(lambda: None), "which cannot be pickled"),
], ids=["unpickling", "pickling"])
def test_bilinear_reports_a_worker_error_it_cannot_pickle(error, match, lanes, monkeypatch):
    # a worker's exception whose answer cannot cross the pipe is reported
    # as a RuntimeError, once: the answer is consumed, and the next call,
    # in the same worker, is exact. A shared flag disarms the raise.
    u, v, want = lane_pair(lanes, seed=82)
    caller = os.getpid()
    armed = shared_ints(1)
    armed[0] = 1
    block_products = operators._block_products

    def raising(*args):
        if os.getpid() != caller and armed[0]:
            raise error
        return block_products(*args)

    monkeypatch.setattr(operators, "_block_products", raising)
    with pytest.raises(RuntimeError, match=match):
        bilinear(u, v)
    pid = operators._workers[0].pid
    armed[0] = 0
    assert bilinear(u, v).data.tobytes() == want
    assert operators._workers[0].pid == pid


def test_bilinear_reports_a_worker_that_the_system_reaped(lanes):
    # where SIGCHLD is ignored, a killed worker leaves no status to reap
    u, v, want = lane_pair(lanes, seed=84)
    bilinear(u, v)
    pid = operators._workers[0].pid
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=f"process {pid} has exited"):
            bilinear(u, v)
        assert not operators._workers
        assert bilinear(u, v).data.tobytes() == want
        operators._stop_workers()   # finds no status to reap either
    finally:
        signal.signal(signal.SIGCHLD, handler)


def test_bilinear_waits_out_an_interrupt_while_it_reaps_a_dead_worker(lanes, monkeypatch):
    # an interrupt inside the reaping of a killed worker: the wait resumes
    # on the closed pipes, reaps it and raises the interrupt
    u, v, want = lane_pair(lanes, seed=85)
    bilinear(u, v)
    pid = operators._workers[0].pid
    waitpid, waits = os.waitpid, []

    def interrupted(*args):
        waits.append(args[0])
        if len(waits) == 1:
            raise KeyboardInterrupt
        return waitpid(*args)

    monkeypatch.setattr(os, "waitpid", interrupted)
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(KeyboardInterrupt):
        bilinear(u, v)
    assert waits == [pid, pid] and not operators._workers
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)   # reaped
    assert bilinear(u, v).data.tobytes() == want


@pytest.mark.parametrize("sent", [False, True])
def test_bilinear_stops_a_worker_whose_send_an_interrupt_cut_short(sent, lanes, monkeypatch):
    # an interrupt just before or just after a job is written: the caller
    # cannot tell whether the worker has it, so it stops the worker rather
    # than read a stale answer on the next call
    u, v, want = lane_pair(lanes, seed=86)
    bilinear(u, v)
    pid = operators._workers[0].pid
    send = operators._Worker.send

    def interrupted(self, job):
        if sent:
            send(self, job)
        raise KeyboardInterrupt

    monkeypatch.setattr(operators._Worker, "send", interrupted)
    with pytest.raises(KeyboardInterrupt):
        bilinear(u, v)
    assert not operators._workers
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)   # reaped
    monkeypatch.setattr(operators._Worker, "send", send)
    assert bilinear(u, v).data.tobytes() == want


LANE_SCRIPT = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from nstorus import bilinear, operators, unit_times
from util import ball, random_sliced
operators._LANES, operators._LANE_PAIRS = 2, 1
rng = np.random.default_rng(79)
u, v = (random_sliced(ball(2), unit_times(5), rng) for _ in range(2))
bilinear(u, v)
print(operators._workers[0].pid, flush=True)
"""


def run_lane_script(then):
    """Start a Python process that runs a two-lane call, prints its
    worker's pid and then runs the code then."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-c", LANE_SCRIPT + textwrap.dedent(then),
                             str(ROOT / "tests")], env=env, stdout=subprocess.PIPE, text=True)


def running(pid):
    """Whether the process pid runs (a zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def test_a_caller_that_exits_reaps_its_worker():
    # the exit hook stops the worker and reaps it
    with run_lane_script("") as proc:
        worker = int(proc.stdout.readline())
        assert proc.wait(timeout=60) == 0
    with pytest.raises(ProcessLookupError):
        os.kill(worker, 0)   # gone, not even a zombie


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_worker_exits_when_its_caller_is_killed():
    # the killed caller's end of the job pipe closes, so the worker reads
    # EOF and exits, within 2 s
    with run_lane_script("import time; time.sleep(60)") as proc:
        worker = int(proc.stdout.readline())
        assert running(worker)
        proc.kill()
        proc.wait(timeout=60)
    deadline = time.monotonic() + 2
    while running(worker) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not running(worker)


def test_bilinear_needs_a_right_factor(ball2):
    with pytest.raises(TypeError):
        bilinear(SpectralField.zero(ball2))


def test_bilinear_lattice_mismatch(ball1, ball2):
    with pytest.raises(ValueError):
        bilinear(SpectralField.zero(ball1), SpectralField.zero(ball2))


# -- time grids -----------------------------------------------------------------

def test_unit_times_endpoints():
    times = unit_times(8)
    assert times[0] == 0.0 and times[-1] == 1.0 and len(times) == 9


def test_time_sliced_requires_increasing_times(ball2):
    z = SpectralField.zero(ball2)
    with pytest.raises(ValueError):
        TimeSlicedField.from_slices((0.0, 0.0, 1.0), (z, z, z))
    with pytest.raises(ValueError):
        TimeSlicedField((0.0, 1.0, 0.5), ball2, np.zeros((3, len(ball2), 3)))


def test_time_sliced_rejects_wrong_shape_and_lattice(ball1, ball2):
    with pytest.raises(ValueError):
        TimeSlicedField((0.0, 1.0), ball2, np.zeros((3, len(ball2), 3)))
    with pytest.raises(ValueError):
        TimeSlicedField((0.0, 1.0), ball2, np.zeros((2, len(ball1), 3)))
    with pytest.raises(ValueError):
        TimeSlicedField((), ball2, np.zeros((0, len(ball2), 3)))
    with pytest.raises(ValueError):
        TimeSlicedField.from_slices((0.0, 1.0), (SpectralField.zero(ball1),
                                                 SpectralField.zero(ball2)))
    with pytest.raises(ValueError):
        TimeSlicedField.zero(ball1, (0.0, 1.0)) + TimeSlicedField.zero(ball2, (0.0, 1.0))


def test_time_sliced_data_is_read_only(ball2):
    x = random_sliced(ball2, unit_times(2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        x.data[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        x.slices[1].data[0, 0] = 1.0


def test_time_sliced_from_slices_round_trip(ball2):
    rng = np.random.default_rng(1)
    fields = [random_field(ball2, rng) for _ in range(5)]
    x = TimeSlicedField.from_slices(unit_times(4), fields)
    assert x.data.shape == (5, len(ball2), 3)
    for n, f in enumerate(fields):
        assert np.array_equal(x.slices[n].data, f.data)
        assert np.shares_memory(x.slices[n].data, x.data)
    assert np.array_equal(x.last_slice().data, fields[-1].data)
    assert not np.shares_memory(x.last_slice().data, x.data)


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


def duhamel_rows(source):
    """The Duhamel rule at every grid time of the sliced field source: one
    duhamel_integrate pass over a copy of its samples, (S+1, N, 3)."""
    data = source.data.copy()
    duhamel_integrate(source.lattice, source.times, data)
    return data


def test_duhamel_zero_source(ball2):
    assert not duhamel_rows(TimeSlicedField.zero(ball2, unit_times(4))).any()


def test_duhamel_constant_source_closed_form(ball2):
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    src = TimeSlicedField.from_slices(unit_times(8), tuple(f for _ in range(9)))
    out = duhamel_rows(src)[8, ball2.site_index((1, 0, 0))]   # t = 1
    assert out[1].real == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    # exact on constants at every grid time and every |k|
    g = SpectralField.from_modes(ball2, {(2, 0, 0): (0.0, 0.0, 1.0)})
    src2 = TimeSlicedField.from_slices(unit_times(8), tuple(g for _ in range(9)))
    out2 = duhamel_rows(src2)[4, ball2.site_index((2, 0, 0))]   # t = 0.5
    assert out2[2].real == pytest.approx((1 - math.exp(-2.0)) / 4.0, rel=1e-14)


def quadrature_error_on_linear_source(substeps, q_site, a, b):
    lat = ball(2)
    site = q_site
    times = unit_times(substeps)
    slices = tuple(
        SpectralField.from_modes(lat, {site: (0.0, a + b * t, 0.0)}) for t in times
    )
    out = duhamel_rows(TimeSlicedField.from_slices(times, slices))[-1, lat.site_index(site)]
    q = float(sum(c * c for c in site))
    return abs(out[1].real - exact_linear_duhamel(q, a, b))


def test_duhamel_linear_source_second_order():
    # doubling the substep count cuts the error by ~4 on s-linear sources
    e8 = quadrature_error_on_linear_source(8, (1, 0, 0), 0.3, 1.7)
    e16 = quadrature_error_on_linear_source(16, (1, 0, 0), 0.3, 1.7)
    assert 3.5 <= e8 / e16 <= 4.5


def test_duhamel_monotone_for_nondecreasing_source(ball2):
    times = unit_times(8)
    src = TimeSlicedField.from_slices(
        times,
        tuple(SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0 + t, 0.0)})
              for t in times),
    )
    values = duhamel_rows(src)[:, ball2.site_index((1, 0, 0)), 1].real
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("uniform", [True, False])
def test_duhamel_rules_are_read_only_cached_fresh_evaluations(uniform):
    lat = ball(3)
    rng = np.random.default_rng(11)
    times = random_grid(rng, 24.0, 192, uniform)
    q = lat.norm_sq_f[:, None]
    rules = duhamel_rules(lat, times)
    assert duhamel_rules(lat, times) is rules
    assert len(rules) == len(times) - 1
    for (decay, gain), d in zip(rules, np.diff(times), strict=True):
        assert np.array_equal(decay.view(np.uint64), np.exp(-d * q).view(np.uint64))
        assert np.array_equal(gain.view(np.uint64), (-np.expm1(-d * q) / q).view(np.uint64))
        for table in (decay, gain):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
    # substeps of equal step share one pair
    assert len({id(decay) for decay, _ in rules}) == len(np.unique(np.diff(times)))
    # the recurrence in place is the textbook one, bit for bit
    shape = (len(times), len(lat), 3)
    data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want, prev = np.zeros_like(data), data[0]
    for n, (decay, gain) in enumerate(rules):
        want[n + 1] = decay * want[n] + gain * (0.5 * (prev + data[n + 1]))
        prev = data[n + 1]
    duhamel_integrate(lat, times, data)
    assert np.array_equal(data.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("run", [1, 2, 3, None])
def test_duhamel_resumes_over_any_cut_bit_for_bit(run, uniform):
    # a grid's samples integrated a run of consecutive grid times at a
    # time (runs of 1, 2 and 3 slices, and one of all S+1), each run in a
    # buffer that is scribbled over between the calls, as the Picard
    # oracle reuses its buffer, equal the whole pass bit for bit
    lat = ball(2)
    rng = np.random.default_rng(12)
    times = random_grid(rng, 3.0, 10, uniform)
    shape = (len(times), len(lat), 6)
    source = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    whole = source.copy()
    duhamel_integrate(lat, times, whole)
    step = run or len(times)
    got, buf, carry = np.empty_like(source), np.empty_like(source[:step]), []
    for a in range(0, len(times), step):
        part = buf[: len(source[a: a + step])]
        part[...] = source[a: a + step]
        duhamel_integrate(lat, times[a: a + step], part, carry)
        got[a: a + step] = part
        buf[...] = np.nan
    assert carry[0] == times[-1]
    assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


# -- star product -----------------------------------------------------------------

def random_grid(rng, horizon, substeps, uniform):
    """Grid 0 = s_0 < ... < s_S = horizon: equal steps, or sorted uniform
    draws whose smallest gaps are far below the mean step."""
    if uniform:
        return tuple(horizon * i / substeps for i in range(substeps + 1))
    return (0.0, *np.sort(rng.uniform(0.0, horizon, substeps - 1)), horizon)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.sampled_from(list(TruncationRule)), st.integers(1, 200),
       st.booleans(), st.sampled_from([1.0, 4.0, 24.0]), st.floats(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_star_product_matches_direct_duhamel_per_site(k_max, rule, substeps, uniform,
                                                      horizon, a, seed):
    # The cumulative recurrence is the per-time rule regrouped, so at every
    # grid time and site it agrees with the direct sum of the rule's terms
    # to rounding relative to the terms' magnitudes, however far the fields
    # have decayed.
    lat = get_lattice(LatticeSpec(k_max, rule))
    rng = np.random.default_rng(seed)
    times = random_grid(rng, horizon, substeps, uniform)
    u = random_sliced(lat, times, rng, a=a)
    v = random_sliced(lat, times, rng, a=a)
    prod = star_product(u, v)
    samples = TimeSlicedField.from_slices(times, [bilinear(x, y)
                                                  for x, y in zip(u.slices, v.slices)])
    for t, got in zip(times, prod.slices):
        terms = duhamel_terms(samples, t)
        err = np.abs(got.data - terms.sum(axis=0))
        assert (err <= 1e-13 * np.abs(terms).sum(axis=0)).all()
    # the star product is one duhamel_integrate pass over the samples
    assert np.array_equal(duhamel_rows(samples), prod.data)


def test_bilinear_and_star_product_run_the_criteria_operators(ball2, monkeypatch):
    # criteria 2 and 8 test leray_project and duhamel_integrate: the
    # convolution and the star product must run those very functions
    rng = np.random.default_rng(3)
    u, v, w = (random_sliced(ball2, unit_times(4), rng) for _ in range(3))
    plain = (*bilinear(u, v, w), *star_product(u, v, w))
    calls = {"leray_project": 0, "duhamel_integrate": 0}

    def counting(name):
        inner = getattr(operators, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(operators, name, counting(name))
    conv = bilinear(u, v, w)
    assert calls == {"leray_project": 1, "duhamel_integrate": 0}   # one block
    star = star_product(u, v, w)
    assert calls == {"leray_project": 2, "duhamel_integrate": 1}
    for got, want in zip((*conv, *star), plain, strict=True):
        assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def test_star_product_zero_left(ball2):
    times = unit_times(4)
    u = TimeSlicedField.zero(ball2, times)
    v = random_sliced(ball2, times, np.random.default_rng(1))
    out = star_product(u, v)
    assert all(s.support_size == 0 for s in out.slices)


def test_star_product_single_mode_vanishes(ball2):
    times = unit_times(4)
    f = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    u = TimeSlicedField.from_slices(times, tuple(f for _ in times))
    out = star_product(u, u)
    assert all(s.magnitudes().max(initial=0.0) < 1e-16 for s in out.slices)


def test_star_product_t_constant_closed_form(ball2):
    times = unit_times(8)
    u0 = SpectralField.from_modes(ball2, {(1, 0, 0): (0.0, 1.0, 0.0)})
    v0 = SpectralField.from_modes(ball2, {(0, 1, 0): (1.0, 0.0, 0.0)})
    u = TimeSlicedField.from_slices(times, tuple(u0 for _ in times))
    v = TimeSlicedField.from_slices(times, tuple(v0 for _ in times))
    out = star_product(u, v)
    base = bilinear(u0, v0)
    q = ball2.norm_sq_f
    for t, sl in zip(out.times, out.slices):
        expect = base.data * ((1.0 - np.exp(-t * q)) / q)[:, None]
        assert np.allclose(sl.data, expect, rtol=1e-12, atol=1e-300)
    assert out.slices[0].support_size == 0  # empty integral at t = 0


def test_star_product_shared_left_factor(ball2):
    times = unit_times(4)
    rng = np.random.default_rng(5)
    u, v1, v2 = (random_sliced(ball2, times, rng) for _ in range(3))
    got = star_product(u, v1, v2)
    assert len(got) == 2
    for out, v in zip(got, (v1, v2)):
        bound = star_majorant([(u, v)])
        for n, (a, b) in enumerate(zip(out.slices, star_product(u, v).slices)):
            assert (np.linalg.norm(a.data - b.data, axis=1) <= 1e-13 * bound[n]).all()


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
    # Both sides exactly: a1, a2 and the returned floats are binary
    # rationals. To first order coeff_k |k|^2 is within 3u of itself and the
    # residual within 7u of itself plus 6u a1 |k| |l - shift k|, which is at
    # most 6u |k| <= 6u 8 sqrt(3) times the left side; both parts are at
    # most the left side, so the error is below 91u lhs < 91 ulp(lhs)
    # (u = 2^-53). Results below the normal range round by up to 2^-1075
    # each, and coeff_k's is multiplied by |k|^2.
    if a1 + a2 <= 0:
        return
    coeff_k, _, residual = identity_split(a1, a2, k, l)
    kk = sum(c * c for c in k)
    lhs = Fraction(a1) * sum((a - b) ** 2 for a, b in zip(k, l)) + Fraction(a2) * sum(
        c * c for c in l)
    rhs = Fraction(coeff_k) * kk + Fraction(residual)
    bound = 96 * Fraction(math.ulp(float(lhs))) + Fraction(2.0 ** -1074) * (kk + 1)
    assert abs(lhs - rhs) <= bound


def test_identity_split_coefficient_does_not_underflow():
    # a1 a2 underflows to zero, a1 a2 / (a1 + a2) = 5e-201 does not
    coeff_k, _, _ = identity_split(1e-200, 1e-200, (1, 0, 0), (0, 1, 0))
    assert coeff_k == pytest.approx(5e-201, rel=1e-15)
