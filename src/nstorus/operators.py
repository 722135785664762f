"""Nonlinear machinery: Leray projection, the lattice convolution, and the
heat-kernel-weighted time integration that composes them. Each operator
exists once, in the form the solver runs: leray_project is the one
projection (bilinear applies it to its whole output) and duhamel_integrate
the one time-integration rule (star_product applies it to bilinear's
samples).

The convection term couples modes through the truncated convolution

    out(k) = 2*pi*i * sum_l <k, u(k-l)> P_k v(l),

summed over pairs with l and k-l both nonzero lattice sites (Galerkin
truncation: interactions leaving the lattice are dropped). Because P_k does
not depend on l, the projection is applied once to the accumulated sum per
output mode, which also makes the output solenoidal by construction. The
sum is one dense matrix product per left factor u, shared by every right
factor v that u meets and built in cache-sized blocks of row pairs (see
bilinear). A block pairs rows i < N/2 with their mirror rows N-1-i, whose
sites are the negated ones, so <k, u(m)> is formed for the first half of
the rows only and read negated by the second; each block's complex product
is taken as one real matrix product over the (re, im) pairs (see
_slice_products). Every output mode is summed from its own pair products,
so small modes keep their relative accuracy.

The kernel's layout is decided here alone: the block size, the gather
table that builds each block of the interaction matrix, and the work arrays
of each lane (the D buffer the table reads with its zero slot, the block of
A, the chunk buffer of real right and transposed left factors, the block
product, and each block's views of them) are one record per lattice
(_ConvKernel), built on first use by conv_kernel (a warm-up call on zero
fields builds it at set-up) and reused by every later call on that
lattice. A call sets itself up once: one zero test over the whole stack,
then the live slices are split into contiguous runs, one per lane, and
each lane fills the factors a chunk of slices at a time and runs the block
loop per live slice (_slice_products). There is one lane per usable CPU,
and never more lanes than live slices: lane 0 runs in the calling thread,
every other lane on a persistent daemon worker thread (_Worker), which
numpy's gather and BLAS's product let run at the same time, since both
release the interpreter lock. The lattice supplies only geometry: its
sites and the flat index-cube positions of points (Lattice.position).
Calls must not overlap, on any lattice: the lanes' arrays belong to the
lattice's kernel and the workers to the process.

Determinism: the summation order is the BLAS library's, which may differ
between BLAS builds and thread counts. The same config and seed give
byte-identical CSVs from run to run on one machine with the same numpy and
BLAS build and the same BLAS thread count; across those, results agree to
rounding. Lanes never change a byte: a slice's products are the same BLAS
calls on the same values in whichever lane runs it.

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

import os
import threading
from _queue import SimpleQueue   # queue.SimpleQueue, without queue's imports
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import TimeSlicedField
from .lattice import Lattice

__all__ = [
    "leray_project",
    "bilinear",
    "conv_kernel",
    "unit_times",
    "duhamel_integrate",
    "duhamel_rules",
    "star_product",
    "identity_split",
]

_TWO_PI_I = 2j * np.pi
# Bytes of output projected at once: keeps the projection's temporaries
# small next to a long grid's (S+1, N, 3) arrays.
_PROJECTION_BYTES = 256 * 1024
# Bytes of one block of the convolution's interaction matrix A, (2 rows, N)
# complex for `rows` row pairs: small enough that a block of D = <k, u(m)>
# stays in cache while it is gathered into a block of A and multiplied.
_BLOCK_BYTES = 512 * 1024
# Bytes of the convolution's chunk buffer, which holds the real right
# factors and transposed left factors of a run of consecutive slices (at
# least one slice with two right factors): they are filled a chunk at a
# time, so their set-up is paid once per chunk, not once per slice.
_CHUNK_BYTES = 256 * 1024


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity masks on this platform
        return os.cpu_count() or 1


# Lanes of a convolution kernel, built with it: one per CPU this process may
# run on, each with its own work arrays (see bilinear).
_LANES = _usable_cpus()


def leray_project(k, x, out=None) -> np.ndarray:
    """The Leray projection x - (<k,x>/|k|^2) k of x onto the plane
    orthogonal to k, over the last axis of broadcastable arrays (one vector
    or a whole grid of them); written to out when given (x itself may be
    out), else to a new array. Raises ValueError if any k is 0.

    The sums over the length-3 axis are written out left to right, which
    is how .sum(axis=-1) adds them, at a fraction of the cost of numpy's
    reduction over so short an axis; every step takes one component, so
    no temporary is as large as x."""
    k = np.asarray(k, dtype=np.float64)
    x = np.asarray(x)
    sq = k * k
    ksq = sq[..., 0] + sq[..., 1] + sq[..., 2]
    if not ksq.all():
        raise ValueError("Leray projector is undefined at k = 0")
    dtype = np.result_type(k, x)
    if out is None:
        out = np.empty(np.broadcast_shapes(k.shape, x.shape), dtype=dtype)
    factor = np.empty(np.broadcast_shapes(k.shape[:-1], x.shape[:-1]), dtype=dtype)
    term = np.empty_like(factor)
    np.multiply(k[..., 0], x[..., 0], out=factor)
    for j in (1, 2):
        np.multiply(k[..., j], x[..., j], out=term)
        np.add(factor, term, out=factor)
    np.divide(factor, ksq, out=factor)   # <k,x>/|k|^2
    for j in range(3):
        np.multiply(factor, k[..., j], out=term)
        np.subtract(x[..., j], term, out=out[..., j])
    return out


@dataclass(frozen=True, eq=False)
class _ConvKernel:
    """The lattice convolution's gather table and the work arrays of each
    of its lanes, which build the interaction matrix A[k, l] = <k, u(k-l)>
    one block of `rows` pairs of output sites at a time.

    For N sites, a block pairs the rows r0 <= i < r1 <= N/2 with their
    mirror rows N-r1 <= j < N-r0. Site N-1-i is -(site i) and
    D[k, m] = <k, u(m)> is linear in k, so D[N-1-i] = -D[i] exactly, and
    both halves are gathered from D's rows r0..r1-1 alone: a lane's dots,
    the flat D buffer of rows*N + 1 complex entries, holds them in its
    first (r1-r0)*N entries, and its entry rows*N, the zero slot, is never
    written and stays 0. A block's gather is a (2 (r1-r0), N) view of one
    flat N*N intp array. Its first half gathers the rows i from D row i-r0;
    its second half gathers the mirror rows j, in order, from D row
    N-1-j-r0, that is -A[j, :]. Entry l of a row for site p is
    (D row)*N + index(p - sites[l]), with index read from the flattened
    index cube at the flat position of p - sites[l], or rows*N when
    p - sites[l] is not a site. The blocks hold (r0, r1, gather) and end at
    N/2; together they cover all N*N pairs once. The gather table is
    read-only and shared by the lanes (_Lane), one per CPU this process
    may run on (_LANES when the kernel was built).
    """

    rows: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]
    lanes: tuple[_Lane, ...]


class _Lane:
    """One lane's work arrays for the kernel's blocks, which it alone
    writes.

    dots is the lane's flat D buffer with its zero slot (see _ConvKernel),
    and inter the (2 rows, N) block of A that a block's rows and mirror rows
    are gathered into, so no (N, N) complex matrix is ever formed. steps
    holds each block's views, made once: (b = r1 - r0, its rows r0:r1 and
    mirror rows N-r1:N-r0 as slices, its sites, its D rows as (re, im)
    pairs, dots, its gather, and its rows of inter, whole and as (re, im)
    pairs). work is the flat float64 chunk buffer that the lane fills with
    the real right factors and transposed left factors of a run of
    consecutive slices (_CHUNK_BYTES, and never less than one slice with
    two right factors), and prod the flat float64 buffer of a block's
    product, (2 rows, 6 n) for n <= 2 right factors.

    The work arrays are reused by every call on the lattice, which keeps
    each call free of fresh allocations, whose page faults would otherwise
    cost as much as the arithmetic. (A plain class: a dataclass would add
    about 1 ms to every command's import.)
    """

    def __init__(self, lat: Lattice, rows: int, blocks: list):
        n = len(lat)
        self.dots = np.zeros(rows * n + 1, dtype=np.complex128)
        self.inter = np.empty((2 * rows, n), dtype=np.complex128)
        # the buffer's rows, without the zero slot
        dots_ri = self.dots[:-1].view(np.float64).reshape(rows, 2 * n)
        inter_ri = self.inter.view(np.float64)
        self.steps = tuple((r1 - r0, slice(r0, r1), slice(n - r1, n - r0), lat.sites_f[r0:r1],
                            dots_ri[:r1 - r0], self.dots, g, self.inter[:2 * (r1 - r0)],
                            inter_ri[:2 * (r1 - r0)])
                           for r0, r1, g in blocks)
        # one slice with two right factors takes 6 n (2*2 + 1) floats
        self.work = np.empty(max(_CHUNK_BYTES // 8, 30 * n))
        self.prod = np.empty(24 * rows)


@lru_cache(maxsize=None)
def conv_kernel(lat: Lattice) -> _ConvKernel:
    """The convolution kernel of lat, with _LANES lanes, built on first use
    and then shared by every lattice equal to it (equal specs): a block's
    flat positions of k - l are one subtraction, written into its rows of
    the gather array and read back by one take from the flat index cube."""
    n = len(lat)
    half = n // 2   # sites come in pairs (k, -k), so n is even
    rows = min(half, max(1, _BLOCK_BYTES // (32 * n)))
    cube = lat.cube.reshape(-1)
    pos = lat.position(lat.sites)
    # position(k - l) = position(k) - (position(l) - position(0))
    pos_l = pos - lat.position(np.zeros(3, dtype=np.intp))
    # allocated first, then filled one block of row pairs at a time
    gather = np.empty(n * n, dtype=np.intp)
    blocks = []
    for r0 in range(0, half, rows):
        r1 = min(half, r0 + rows)
        b = r1 - r0
        g = gather[2 * r0 * n: 2 * r1 * n].reshape(2 * b, n)
        # rows r0..r1-1, then their mirror rows n-r1..n-r0-1
        np.subtract(np.r_[pos[r0:r1], pos[n - r1:n - r0]][:, None], pos_l, out=g)
        mi = cube.take(g)
        # the D row each reads: i - r0, then n-1-j-r0 for mirror row j
        d_row = np.r_[np.arange(b), np.arange(b - 1, -1, -1)]
        np.add(mi, (d_row * n)[:, None], out=g)
        g[mi < 0] = rows * n   # the zero slot
        blocks.append((r0, r1, g))
    lanes = tuple(_Lane(lat, rows, blocks) for _ in range(_LANES))
    return _ConvKernel(rows, tuple(blocks), lanes)


class _Worker:
    """A persistent daemon thread that runs one lane's jobs, one at a time,
    and answers each on `done` with None or the exception it raised."""

    def __init__(self):
        self.jobs = SimpleQueue()
        self.done = SimpleQueue()
        threading.Thread(target=self._serve, name="nstorus-lane", daemon=True).start()

    def _serve(self) -> None:
        while True:
            # no local keeps a call's arrays alive while the worker waits
            self.done.put(self._run(*self.jobs.get()))

    @staticmethod
    def _run(err: dict, args: tuple) -> BaseException | None:
        try:
            # np.errstate is thread-local: run under the caller's
            with np.errstate(**err):
                _lane_products(*args)
        except BaseException as exc:   # the caller raises it
            return exc
        return None


# The workers of lanes 1, 2, ..., started by the first call that needs them
# and shared by every kernel. A forked child has none of their threads, so
# it drops them and starts its own.
_workers: list[_Worker] = []
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)


def _join(workers: list[_Worker]) -> None:
    """Wait until every worker has answered, then raise the first exception
    raised in a lane or by an interrupt during the wait, so none propagates
    while a lane may still write."""
    errors = []
    for worker in workers:
        while True:
            try:
                errors.append(worker.done.get())
                break
            except BaseException as exc:   # an interrupt: raised once all have answered
                errors.append(exc)
    for exc in errors:
        if exc is not None:
            raise exc


def bilinear(u, *vs, out=None):
    """Truncated convection convolution of u with each of vs on a shared
    lattice: fields, or TimeSlicedFields on one grid convolved at every grid
    time. Returns one result of u's kind for one v, else a tuple with one
    per v; with out, an (S+1, N, 3 len(vs)) complex128 array (S+1 = 1 for
    fields) whose last axis is contiguous, the products are written there
    side by side (one (N, 3) block per v) and out is returned. Any other
    out, a strided last axis included, raises ValueError before anything
    is written.

    Per slice, the pairs are gathered into the interaction matrix
    A[k, l] = <k, u(k-l)> (zero where k-l is not a site), one cache-sized
    block of rows i < N/2 and their mirror rows N-1-i at a time, and one
    real matrix product per block sums them for every v at once (see
    _slice_products), so one build of A(u) serves all right factors that
    share u; the full (N, N) A is never formed, and <k, u(m)> is formed
    for half of the rows only, since site N-1-i is -(site i).
    Each output mode is the sum of the same pair products as the direct
    convolution; only the summation order is BLAS's, so every mode keeps
    its own relative accuracy however small it is.

    Everything that does not depend on the slice is done once per call. A
    slice where u or every v is all zero is dead: its products are exact
    zeros, so one test over the whole stack finds the dead slices, their
    rows are zeroed in one write, and only the live slices are built. The
    live slices are split, in order, into one contiguous run per lane (at
    most one lane per live slice): lane 0 runs the first in the calling
    thread while the workers run the others, and the call waits for every
    lane before it goes on or raises (see _lane_products). The projection
    (leray_project) and the factor 2 pi i are then applied to the whole
    output, in place, a few slices at a time.

    The lanes' work arrays are built with the kernel (conv_kernel) and
    reused by every call on the lattice, so a call with at most two right
    factors allocates none of its own (more may allocate), and bilinear is
    not thread-safe: calls must not run concurrently, on any lattice.
    """
    if not vs:
        raise TypeError("bilinear needs at least one right factor")
    for v in vs:
        u._check_operand(v)
    lat = u.lattice
    n = len(lat)
    nv = len(vs)
    u_st = u.data.reshape(-1, n, 3)   # a field is a one-slice stack
    shape = (len(u_st), n, 3 * nv)
    res = np.empty(shape, dtype=np.complex128) if out is None else out
    # the products are written through res's real view
    if res.dtype != np.complex128 or res.shape != shape or res.strides[-1] != res.itemsize:
        raise ValueError(f"out must be a complex128 array of shape {shape} "
                         "with a contiguous last axis")
    # fetched before any zero check, so a first call on zeros builds it
    kern = conv_kernel(lat)
    # every slice as (re, im) pairs, (S+1, N, 3, 2)
    u_ri = u_st.view(np.float64).reshape(len(u_st), n, 3, 2)
    v_ri = [v.data.view(np.float64).reshape(u_ri.shape) for v in vs]
    live = u_ri.any(axis=(1, 2, 3)) & np.any([v.any(axis=(1, 2, 3)) for v in v_ri], axis=0)
    res[~live] = 0.0
    at = np.flatnonzero(live).tolist()
    lanes = min(len(kern.lanes), len(at))
    if lanes:
        # lane i runs the live slices at[cut[i]:cut[i+1]]: the first lanes
        # take one more when they do not split evenly
        cut = [-(-len(at) * i // lanes) for i in range(lanes + 1)]
        spans = [(at[a], at[b - 1] + 1) for a, b in zip(cut, cut[1:])]
        data = (u_ri, v_ri, live, res.view(np.float64))
        while len(_workers) < lanes - 1:
            _workers.append(_Worker())
        err = np.geterr()
        busy = []
        try:
            for worker, lane, span in zip(_workers, kern.lanes[1:], spans[1:]):
                worker.jobs.put((err, (lane, *span, *data)))
                busy.append(worker)
            _lane_products(kern.lanes[0], *spans[0], *data)
        finally:
            _join(busy)
    kf = lat.sites_f[:, None, :]
    per_v = res.reshape(len(u_st), n, nv, 3)
    step = max(1, _PROJECTION_BYTES // per_v[0].nbytes)
    for s0 in range(0, len(per_v), step):
        block = per_v[s0:s0 + step]
        np.multiply(leray_project(kf, block, block), _TWO_PI_I, out=block)
    if out is not None:
        return out
    parts = tuple(u._like(res[:, :, 3 * i: 3 * i + 3].reshape(u.data.shape))
                  for i in range(nv))
    return parts[0] if nv == 1 else parts


def _lane_products(lane: _Lane, start: int, stop: int, u_ri: np.ndarray, v_ri: list,
                   live: np.ndarray, res_ri: np.ndarray) -> None:
    """Write the unprojected products of the live slices start <= s < stop
    into res_ri, the real view of bilinear's output, in lane's work arrays
    alone. u_ri and v_ri are the factors' slices as (re, im) pairs,
    (S+1, N, 3, 2), and live bilinear's mask of live slices.

    The real right factors and transposed left factors are filled a chunk
    of consecutive slices at a time (a chunk with no live slice is skipped)
    into the lane's chunk buffer: one pass per v and one for u, through
    basic slices, so the fill allocates nothing. Then each live slice of
    the chunk runs the block loop (_slice_products). Only _slice_products
    and numpy run here, since a worker thread runs this too."""
    n = u_ri.shape[1]
    nv = len(v_ri)
    # a chunk of c slices: right factors (c, 2N, 6 nv), then left factors (c, 3, 2N)
    per_slice = 6 * n * (2 * nv + 1)
    work = lane.work if per_slice <= lane.work.size else np.empty(per_slice)
    c = work.size // per_slice
    rhs = work[: c * 12 * n * nv].reshape(c, 2 * n, 6 * nv)
    left = work[c * 12 * n * nv: c * per_slice].reshape(c, 3, 2 * n)
    pairs = rhs.reshape(c, n, 2, nv, 3, 2)
    left_pairs = left.reshape(c, 3, n, 2)
    rows = len(lane.inter) // 2
    size = 12 * rows * nv
    prod = (lane.prod[:size] if nv <= 2 else np.empty(size)).reshape(2 * rows, 6 * nv)
    plan = [(own, mirror, kf, dots_ri, dots, gather, inter, inter_ri,
             prod[: 2 * b], prod[:b], prod[b: 2 * b])
            for b, own, mirror, kf, dots_ri, dots, gather, inter, inter_ri in lane.steps]
    for first in range(start, stop, c):
        end = min(stop, first + c)
        at = np.flatnonzero(live[first:end]).tolist()
        if not at:
            continue
        m = end - first
        # a ufunc whose output is pairs' strided view buffers it (up to
        # 64 KB a call), so -im is formed in the left factors' space first
        neg = left[:m].reshape(-1)[: m * n * 3].reshape(m, n, 3)
        for i, v in enumerate(v_ri):
            part = v[first:end]
            pairs[:m, :, 0, i] = part
            np.negative(part[..., 1], out=neg)
            pairs[:m, :, 1, i, :, 0] = neg
            pairs[:m, :, 1, i, :, 1] = part[..., 0]
        np.copyto(left_pairs[:m], u_ri[first:end].transpose(0, 2, 1, 3))
        for j in at:
            _slice_products(plan, left[j], rhs[j], res_ri[first + j])


def _slice_products(plan: list, u: np.ndarray, rhs: np.ndarray, out: np.ndarray) -> None:
    """Write A(u) @ [v_1 ... v_n] for one live slice, before the
    projection, into out, the (N, 6n) real view of its (N, 3n) output.
    plan is the lane's per-call list of each block's views (_Lane.steps)
    with its rows of the block product; u is the slice's left factor as
    the (3, 2N) real array of its (re, im) pairs side by side, and rhs its
    (2N, 6n) real right factor, whose rows 2l and 2l+1 hold each v(l)'s
    (re, im) and (-im, re) pairs.

    Per block of row pairs of the kernel: a cache-sized block of
    D[i, m] = <i, u(m)> for the block's rows i < N/2 is written to the D
    buffer as one real product, A's rows i and their mirror rows N-1-i are
    gathered from it (the zero slot fills the entries whose k-l is not a
    site), and that block's rows of the product are taken while both are
    still in cache (the blocked layout of Goto & van de Geijn 2008).
    Neither D nor A is formed whole. Site N-1-i is -(site i), so D's row
    N-1-i is -D[i] and is never formed: a mirror row is gathered from D[i]
    as -A[N-1-i, :], and its product is written out negated, as 0 - x so
    that an exact zero stays +0. Negation is exact, and so is a dot
    product of negated operands, so each output is bit for bit the one a
    gather from the mirror row's own D row gives.

    The complex product is one real one, which BLAS runs faster than a
    complex product this narrow: A's rows, viewed as their (re, im) pairs
    side by side, times rhs give out's (re, im) pairs. Each output mode is
    still the sum of the pair products a(l) v(l), each split into its real
    terms.
    """
    for own, mirror, kf, dots_ri, dots, gather, inter, inter_ri, prod, top, bottom in plan:
        np.matmul(kf, u, out=dots_ri)   # D[i-r0, m] = <i, u(m)>
        # every index is in range; "wrap" only skips numpy's bounds check
        dots.take(gather, out=inter, mode="wrap")
        np.matmul(inter_ri, rhs, out=prod)
        out[own] = top
        # 0 - x, not -x: an exact zero stays +0, as BLAS sums it
        np.subtract(0.0, bottom, out=out[mirror])


def unit_times(substeps: int) -> tuple[float, ...]:
    """Uniform substep times 0 = s_0 < ... < s_S = 1."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    return tuple(i / substeps for i in range(substeps + 1))


def duhamel_integrate(lattice: Lattice, times, data: np.ndarray) -> None:
    """Overwrite the source samples data[n] on the grid times, an (S+1, N,
    ...) array on lattice's sites, with the Duhamel rule's quadrature of
    integral_0^{times[n]} exp(-(times[n]-s)|k|^2) source(s, k) ds, in place
    at every grid time; data[n] is read before it is overwritten.

    On each substep the source is replaced by the average of its endpoint
    samples and the exponential factor is integrated exactly (see the
    module docstring for the recurrence). Exact when source(., k) is
    constant in s; the t = 0 row becomes zero (empty integral). The
    recurrence runs in two work rows, with the same operations in the same
    order as decay * I(s_n) + gain * (0.5 * (f(s_n) + f(s_{n+1}))).
    """
    rules = duhamel_rules(lattice, tuple(times))
    prev = data[0].copy()
    avg = np.empty_like(prev)
    data[0] = 0.0
    for n, (decay, gain) in enumerate(rules):
        cur = data[n + 1]
        np.add(prev, cur, out=avg)
        np.multiply(0.5, avg, out=avg)
        prev[...] = cur
        np.multiply(decay, data[n], out=cur)
        np.multiply(gain, avg, out=avg)
        np.add(cur, avg, out=cur)


@lru_cache(maxsize=8)
def duhamel_rules(lattice: Lattice, times: tuple) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The Duhamel rule's factors on each substep of the grid times, one
    (decay, gain) pair per substep: exp(-D|k|^2) and
    (1 - exp(-D|k|^2))/|k|^2 for its step D, as read-only (N, 1) arrays
    that substeps of equal step share. Built once per lattice and grid (a
    run integrates on one grid) and kept for the few most recent ones."""
    q = lattice.norm_sq_f[:, None]
    steps, which = np.unique(np.diff(times), return_inverse=True)
    rules = [(np.exp(-d * q), -np.expm1(-d * q) / q) for d in steps]
    for pair in rules:
        for table in pair:
            table.setflags(write=False)
    return tuple(rules[j] for j in which)


def star_product(u: TimeSlicedField, *vs: TimeSlicedField):
    """Heat-weighted time integral of the convolution of u with each of vs;
    one sliced field for one v, else a tuple with one per v.

    (u * v)(t) = integral_0^t exp(-(t-s)|k|^2) conv(u(s), v(s)) ds at every
    grid time, from one bilinear call over the whole grid (one interaction
    matrix per slice, shared by all of vs) that writes the side-by-side
    samples into one (S+1, N, 3 len(vs)) array, and one duhamel_integrate
    pass that overwrites them with the integrals; the t = 0 slice is the
    zero field (empty integral).
    """
    lat = u.lattice
    out = np.empty((len(u.times), len(lat), 3 * len(vs)), dtype=np.complex128)
    bilinear(u, *vs, out=out)   # checks that vs share u's lattice and grid
    duhamel_integrate(lat, u.times, out)
    sliced = tuple(u._like(out[:, :, 3 * i: 3 * i + 3]) for i in range(len(vs)))
    return sliced[0] if len(vs) == 1 else sliced


def identity_split(a1: float, a2: float, k, l) -> tuple[float, float, float]:
    """Split a1|k-l|^2 + a2|l|^2 into a |k|^2 part plus a shifted square.

    Returns (coeff_k, shift_coeff, residual) with
        coeff_k  = a1 a2 / (a1 + a2),
        shift    = a1 / (a1 + a2),
        residual = (a1 + a2) |l - shift k|^2,
    so that a1|k-l|^2 + a2|l|^2 = coeff_k |k|^2 + residual exactly.

    This is the paper's algebra for the heat exponents of a product of two
    heat-decayed factors. Acceptance criterion 1 certifies it; no command
    runs it, since the solver computes each product mode by mode.
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

