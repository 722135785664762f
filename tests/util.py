"""Shared helpers for building random test fields, and a reference
convolution, Duhamel rule and history assembly independent of the ones in
nstorus."""

import math
import mmap

import numpy as np

from nstorus import (DecompositionState, LatticeSpec, SpectralField, TimeSlicedField,
                     get_lattice, heat_flow, phi_norm, star_product)
from nstorus.fields import UNDERFLOW_FLOOR


def ball(k_max):
    return get_lattice(LatticeSpec(k_max))


def shared_ints(*shape):
    """A zeroed int64 array in a shared anonymous mapping: a worker forked
    after it is made writes to the very memory the caller reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.int64).reshape(shape)


def slice_builds(step, chunk):
    """The live-slice builds of the interaction matrix in one call of
    operators._block_products(step, chunk): one per slice of its chunk,
    counted at the kernel's first block (its rows start at 0) alone, so a
    build is counted once however many blocks the kernel has."""
    return len(chunk) if step[0].start == 0 else 0


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


def random_sliced(lat, times, rng, scale=1.0, a=0.0):
    """Random field per grid time; a > 0 multiplies each by exp(-a|k|^2)."""
    decay = np.exp(-a * lat.norm_sq_f)
    return TimeSlicedField.from_slices(
        tuple(times),
        tuple(SpectralField(lat, random_field(lat, rng, scale).data * decay[:, None])
              for _ in times),
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


def duhamel_weights(times, t, q):
    """The Duhamel rule's weights W_i(k) at grid time t, evaluated directly
    for that t alone; an (n, N) array, n = number of substeps before t.

    W_i = exp(-(t - s_{i+1})|k|^2) (1 - exp(-(s_{i+1} - s_i)|k|^2)) / |k|^2
    is the exact kernel integral over substep i, written as a product: the
    difference of the two exponentials loses digits to cancellation when
    (s_{i+1} - s_i)|k|^2 is small (8.7e-14 of the terms' magnitude over 196
    random substeps, where the product form is within 5e-16)."""
    n = next(i for i, s in enumerate(times) if abs(s - t) <= 1e-12 * max(1.0, t))
    s = np.asarray(times[: n + 1])
    return np.exp(-np.outer(t - s[1:], q)) * -np.expm1(-np.outer(np.diff(s), q)) / q


def duhamel_terms(source, t):
    """The per-substep terms W_i(k) * avg_i(k) of the Duhamel rule at grid
    time t; their sum over axis 0 is the rule's value, evaluated for that t
    alone (O(S) per time, O(S^2) for every time); (n, N, 3)."""
    w = duhamel_weights(source.times, t, source.lattice.norm_sq_f)
    data = np.stack([sl.data for sl in source.slices[: len(w) + 1]])
    return 0.5 * (data[:-1] + data[1:]) * w[:, :, None]


def pair_majorant(u, v):
    """Per-site bound 2 pi sum_l |k| |u(k-l)| |v(l)| on the convolution's
    pair products, the scale its rounding error is relative to; (N,)."""
    lat = u.lattice
    ki, li, mi = conv_triples(lat)
    mag_u = np.linalg.norm(u.data, axis=1)
    mag_v = np.linalg.norm(v.data, axis=1)
    w = np.sqrt(lat.norm_sq_f)[ki] * mag_u[mi] * mag_v[li]
    return 2 * np.pi * np.bincount(ki, weights=w, minlength=len(lat))


def star_majorant(pairs):
    """Per-site bound on the sum of the star products S(x, y) over the
    (x, y) sliced-field pairs: the Duhamel rule applied to their summed
    pair_majorant, the scale the products' rounding error is relative to;
    an (S+1, N) array, one row per grid time."""
    x0 = pairs[0][0]
    times, q = x0.times, x0.lattice.norm_sq_f
    majorant = sum(np.stack([pair_majorant(a, b) for a, b in zip(x.slices, y.slices)])
                   for x, y in pairs)
    avg = 0.5 * (majorant[:-1] + majorant[1:])
    return np.stack([(duhamel_weights(times, t, q) * avg[:n]).sum(axis=0)
                     for n, t in enumerate(times)])


def looped_history_parts(gaussian_history, remainder_history, correction, params):
    """The gaussian and remainder parts at m = len(history) assembled one
    (grid time t, age j) pair at a time from the history entries, each slice
    from its own weights exp(-(m - j + t)|k|^2) (pruned below the underflow
    floor), summed in increasing j; (S+1, N, 3) arrays (gaussian,
    remainder)."""
    m, q = len(gaussian_history), correction.lattice.norm_sq_f
    qe = q ** params.epsilon

    def decayed(t, history, acc):
        for j, h in enumerate(history, start=1):
            w = np.exp(-(m - j + t) * q)
            w[w < UNDERFLOW_FLOOR] = 0.0
            acc += w[:, None] * h.data
        return acc

    gaussian = [decayed(t, gaussian_history, c.data.copy()) / qe[:, None]
                for t, c in zip(correction.times, correction.slices)]
    remainder = [decayed(t, remainder_history, np.zeros_like(c.data))
                 for t, c in zip(correction.times, correction.slices)]
    return np.stack(gaussian), np.stack(remainder)


def state_from_histories(v0, gaussian_history, remainder_history, params):
    """The state at m = len(history): DecompositionState.initial(v0)
    extended by each (gaussian, remainder) history pair in turn."""
    state = DecompositionState.initial(v0)
    for h, g in zip(gaussian_history, remainder_history, strict=True):
        state = state.extended(h, g, params)
    return state


def whole_grid_picard(v0, horizon, params):
    """The Picard oracle's iteration with every array whole: iterate 1 is
    the heat flow, each later one heat + S(x, x) built beside the one
    before, and each update norm the data norm of the whole difference.
    Stops at the first update norm below fp_tol or at fp_max_iter iterates;
    returns (the last iterate's data, the update norms)."""
    times = tuple(i / params.substeps for i in range(round(horizon * params.substeps) + 1))
    heat = heat_flow(v0, 0, times)
    x, norms = heat, [phi_norm(heat, params.alpha)]
    while norms[-1] >= params.fp_tol and len(norms) < params.fp_max_iter:
        nxt = heat + star_product(x, x)
        norms.append(phi_norm(nxt - x, params.alpha))
        x = nxt
    return x.data, tuple(norms)
