"""Nonlinear machinery: Leray projection, the lattice convolution, and the
heat-kernel-weighted time integration that composes them.

The convection term couples modes through the truncated convolution

    out(k) = 2*pi*i * sum_l <k, u(k-l)> P_k v(l),

summed over pairs with l and k-l both nonzero lattice sites (Galerkin
truncation: interactions leaving the lattice are dropped). Because P_k does
not depend on l, the projection is applied once to the accumulated sum per
output mode, which also makes the output solenoidal by construction. The
sum is one dense matrix product per left factor u, shared by every right
factor v that u meets and built in cache-sized row blocks (see bilinear);
every output mode is summed from its own pair products, so small modes keep
their relative accuracy.

Determinism: the summation order is the BLAS library's, which may differ
between BLAS builds and thread counts. The same config and seed give
byte-identical CSVs from run to run on one machine with the same numpy and
BLAS build and the same BLAS thread count; across those, results agree to
rounding.

Time integration against the heat kernel uses an exponential-integrator
rule: on each substep the source is replaced by the average of its endpoint
samples and the kernel factor exp(-(t-s)|k|^2) is integrated exactly. The
rule is exact for sources constant in s, reproduces the closed-form factors
(1 - exp(-t|k|^2))/|k|^2, and is second-order accurate on smooth sources
without any step restriction in |k|. Because the kernel is integrated
exactly, the rule at every grid time is one cumulative recurrence over the
substeps (Cox & Matthews 2002; Hochbruck & Ostermann 2010),

    I(s_{n+1}) = exp(-D_n|k|^2) I(s_n) + w_n(k) (f(s_n) + f(s_{n+1}))/2,
    w_n(k) = (1 - exp(-D_n|k|^2))/|k|^2,   D_n = s_{n+1} - s_n,

so integrating S + 1 samples costs O(S) field operations, not O(S^2).
Every term of the sum keeps a nonnegative weight, so each mode keeps its
own relative accuracy.
"""

from __future__ import annotations

import numpy as np

from .fields import SpectralField, TimeSlicedField, grid_index
from .lattice import Lattice

__all__ = [
    "leray_project",
    "bilinear",
    "unit_times",
    "duhamel_integrate",
    "star_product",
    "identity_split",
]

_TWO_PI_I = 2j * np.pi
# Bytes of output projected at once: keeps the projection's temporaries
# small next to a long grid's (S+1, N, 3) arrays.
_PROJECTION_BYTES = 256 * 1024


def leray_project(k, x) -> np.ndarray:
    """Project x onto the plane orthogonal to k: x - (<k,x>/|k|^2) k."""
    # arrays are unpacked to Python numbers at once: cheaper than
    # converting their numpy scalars one by one, with the same values
    if isinstance(k, np.ndarray):
        k = k.tolist()
    kx, ky, kz = map(float, k)
    ksq = kx * kx + ky * ky + kz * kz
    if ksq == 0:
        raise ValueError("Leray projector is undefined at k = 0")
    x0, x1, x2 = map(complex, x.tolist() if isinstance(x, np.ndarray) else x)
    factor = (kx * x0 + ky * x1 + kz * x2) / ksq
    return np.array([x0 - factor * kx, x1 - factor * ky, x2 - factor * kz])


def bilinear(u, *vs, out=None):
    """Truncated convection convolution of u with each of vs on a shared
    lattice: fields, or TimeSlicedFields on one grid convolved at every grid
    time. Returns one result of u's kind for one v, else a tuple with one
    per v; with out, an (S+1, N, 3 len(vs)) complex array, the products are
    written there side by side (one (N, 3) block per v) and out is returned.

    Per slice, the pairs are gathered into the interaction matrix
    A[k, l] = <k, u(k-l)> (zero where k-l is not a site), one cache-sized
    row block at a time, and one matrix product per block,
    A[rows] @ [v_1 ... v_n], sums them for every v at once, so one build
    of A(u) serves all right factors that share u; the full (N, N) A is
    never formed (see _slice_products).
    Each output mode is the sum of the same pair products as the direct
    convolution; only the summation order is BLAS's, so every mode keeps
    its own relative accuracy however small it is. A slice where u or every
    v is all zero has exact zero products, which are not computed. The
    projection and the factor 2 pi i are applied to the whole output at
    the end, a few slices at a time. The D buffer, with its zero slot,
    and the block of A are the lattice's reused work arrays
    (Lattice.conv_work), so bilinear is not thread-safe: calls on one
    lattice must not run concurrently.
    """
    if not vs:
        raise TypeError("bilinear needs at least one right factor")
    for v in vs:
        u._check_operand(v)
    lat = u.lattice
    n = len(lat)
    u_st = u.data.reshape(-1, n, 3)   # a field is a one-slice stack
    v_st = [v.data.reshape(-1, n, 3) for v in vs]
    res = np.empty((len(u_st), n, 3 * len(vs)), dtype=np.complex128) if out is None else out
    for s, u_s in enumerate(u_st):
        _slice_products(lat, u_s, [v[s] for v in v_st], res[s])
    kf = lat.sites_f[:, None, :]
    q = lat.norm_sq_f[:, None]
    per_v = res.reshape(len(u_st), n, len(vs), 3)
    step = max(1, _PROJECTION_BYTES // per_v[0].nbytes)
    for s0 in range(0, len(per_v), step):
        block = per_v[s0:s0 + step]
        block -= ((kf * block).sum(axis=3) / q)[..., None] * kf
        block *= _TWO_PI_I
    if out is not None:
        return out
    parts = tuple(u._like(res[:, :, 3 * i: 3 * i + 3].reshape(u.data.shape))
                  for i in range(len(vs)))
    return parts[0] if len(vs) == 1 else parts


def _slice_products(lat: Lattice, u: np.ndarray, vs: list, out: np.ndarray) -> None:
    """Write A(u) @ [v_1 ... v_n] for one slice into the (N, 3n) array out,
    before the projection; zeros when u or every v is all zero.

    Per row block of the table: a cache-sized block of D[k, m] = <k, u(m)>
    is written to the D buffer, A's rows are gathered from it (the zero
    slot fills the entries whose k-l is not a site), and that block's rows
    of the product are taken while both are still in cache (the blocked
    layout of Goto & van de Geijn 2008). Neither D nor A is formed whole.
    """
    # built before the zero check, so any first call prepares the lattice
    tab = lat.conv_table()
    dots, inter = lat.conv_work()
    if not (u.any() and any(v.any() for v in vs)):
        out[...] = 0.0
        return
    n = len(lat)
    kf = lat.sites_f
    rhs = vs[0] if len(vs) == 1 else np.concatenate(vs, axis=1)
    # <k, u(m)> as one real product: u's (re, im) pairs side by side
    u_ri = u.view(np.float64).reshape(n, 3, 2).transpose(1, 0, 2).reshape(3, 2 * n)
    # the buffer's rows, without the zero slot
    dots_ri = dots[:-1].view(np.float64).reshape(tab.rows, 2 * n)
    for r0, r1, gather in tab.blocks:
        np.matmul(kf[r0:r1], u_ri, out=dots_ri[: r1 - r0])   # D[k-r0, m] = <k, u(m)>
        # every index is in range; "wrap" only skips numpy's bounds check
        np.take(dots, gather, out=inter[: r1 - r0], mode="wrap")
        np.matmul(inter[: r1 - r0], rhs, out=out[r0:r1])


def unit_times(substeps: int) -> tuple[float, ...]:
    """Uniform substep times 0 = s_0 < ... < s_S = 1."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    return tuple(i / substeps for i in range(substeps + 1))


def _duhamel_pass(lat: Lattice, times, data: np.ndarray) -> None:
    """Overwrite the source samples data[n] with the Duhamel rule's value
    at grid time n, in place; data[n] is read before it is overwritten."""
    q = lat.norm_sq_f[:, None]
    steps, which = np.unique(np.diff(times), return_inverse=True)
    rules = [(np.exp(-d * q), -np.expm1(-d * q) / q) for d in steps]
    prev = data[0].copy()
    data[0] = 0.0
    for n, j in enumerate(which):
        decay, gain = rules[j]
        avg = 0.5 * (prev + data[n + 1])
        prev[...] = data[n + 1]
        data[n + 1] = decay * data[n] + gain * avg


def duhamel_integrate(source: TimeSlicedField, t: float) -> SpectralField:
    """Quadrature of integral_0^t exp(-(t-s)|k|^2) source(s, k) ds per mode.

    On each substep the source is replaced by the average of its endpoint
    samples and the exponential factor is integrated exactly (see the
    module docstring for the recurrence). Exact when source(., k) is
    constant in s.
    """
    n = grid_index(source.times, t)
    out = source.data[: n + 1].copy()
    _duhamel_pass(source.lattice, source.times[: n + 1], out)
    return SpectralField(source.lattice, out[n])


def star_product(u: TimeSlicedField, *vs: TimeSlicedField):
    """Heat-weighted time integral of the convolution of u with each of vs;
    one sliced field for one v, else a tuple with one per v.

    (u * v)(t) = integral_0^t exp(-(t-s)|k|^2) conv(u(s), v(s)) ds at every
    grid time, from one bilinear call over the whole grid (one interaction
    matrix per slice, shared by all of vs) that writes the side-by-side
    samples into one (S+1, N, 3 len(vs)) array, and one cumulative pass
    that overwrites them with the integrals; the t = 0 slice is the zero
    field (empty integral).
    """
    lat = u.lattice
    out = np.empty((len(u.times), len(lat), 3 * len(vs)), dtype=np.complex128)
    bilinear(u, *vs, out=out)   # checks that vs share u's lattice and grid
    _duhamel_pass(lat, u.times, out)
    sliced = tuple(u._like(out[:, :, 3 * i: 3 * i + 3]) for i in range(len(vs)))
    return sliced[0] if len(vs) == 1 else sliced


def identity_split(a1: float, a2: float, k, l) -> tuple[float, float, float]:
    """Split a1|k-l|^2 + a2|l|^2 into a |k|^2 part plus a shifted square.

    Returns (coeff_k, shift_coeff, residual) with
        coeff_k  = a1 a2 / (a1 + a2),
        shift    = a1 / (a1 + a2),
        residual = (a1 + a2) |l - shift k|^2,
    so that a1|k-l|^2 + a2|l|^2 = coeff_k |k|^2 + residual exactly.
    """
    if a1 < 0 or a2 < 0:
        raise ValueError("a1 and a2 must be non-negative")
    total = a1 + a2
    if total <= 0:
        raise ValueError("a1 + a2 must be positive")
    kv = np.asarray(k, dtype=np.float64)
    lv = np.asarray(l, dtype=np.float64)
    shift = a1 / total
    coeff_k = shift * a2   # a1 a2 / total without underflow of a1 a2
    diff = lv - shift * kv
    residual = total * float(diff @ diff)
    return coeff_k, shift, residual

