"""Shared helpers for building random test fields, and a reference
convolution independent of the one in nstorus."""

import numpy as np

from nstorus import LatticeSpec, SpectralField, TimeSlicedField, get_lattice


def ball(k_max):
    return get_lattice(LatticeSpec(k_max))


def random_field(lat, rng, scale=1.0, solenoidal=True, sparsity=0.0):
    """Random complex field; solenoidal=True projects each site amplitude
    orthogonal to its wave vector."""
    n = len(lat)
    data = (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))) * scale
    if sparsity:
        data[rng.uniform(size=n) < sparsity] = 0.0
    if solenoidal:
        kf = lat.sites_f
        data = data - ((kf * data).sum(axis=1) / lat.norm_sq_f)[:, None] * kf
    return SpectralField(lat, data)


def random_sliced(lat, times, rng, scale=1.0):
    return TimeSlicedField(
        tuple(times), tuple(random_field(lat, rng, scale) for _ in times)
    )


def conv_triples(lat):
    """Index triples (ki, li, mi) with sites[ki] - sites[li] == sites[mi],
    sorted by ki then li, found by a cube lookup of every difference."""
    k = lat.spec.k_max
    sites = lat.sites
    cube = np.full((4 * k + 1,) * 3, -1, dtype=np.int64)
    shifted = sites + 2 * k
    cube[shifted[:, 0], shifted[:, 1], shifted[:, 2]] = np.arange(len(sites))
    d = sites[:, None, :] - sites[None, :, :] + 2 * k
    site_of_diff = cube[d[..., 0], d[..., 1], d[..., 2]]
    ki, li = np.nonzero(site_of_diff >= 0)
    return ki, li, site_of_diff[ki, li]


def direct_bilinear(u, v):
    """The convolution 2 pi i P_k sum_l <k, u(k-l)> v(l) as a gather of the
    pair products and an in-order segmented sum per output site; returns
    the (N, 3) result."""
    lat = u.lattice
    kf = lat.sites_f
    ki, li, mi = conv_triples(lat)
    out = np.zeros_like(u.data)
    if ki.size:
        dots = (kf[ki] * u.data[mi]).sum(axis=1)
        contrib = dots[:, None] * v.data[li]
        starts = np.flatnonzero(np.diff(ki, prepend=-1))
        out[ki[starts]] = np.add.reduceat(contrib, starts, axis=0)
    out -= ((kf * out).sum(axis=1) / lat.norm_sq_f)[:, None] * kf
    return 2j * np.pi * out
