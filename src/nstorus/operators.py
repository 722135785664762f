"""Nonlinear machinery: Leray projection, the lattice convolution, and the
heat-kernel-weighted time integration that composes them. Each operator
exists once, in the form the solver runs: leray_project is the one
projection (bilinear's lanes apply it to their outputs) and duhamel_integrate
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
_block_products). Every output mode is summed from its own pair products,
so small modes keep their relative accuracy.

The kernel's layout is decided here alone: the block size, the gather
table that builds each block of the interaction matrix (uint16 entries,
2 N^2 bytes), and the lane's work arrays (the D buffer the table reads
with its zero slot, the intp index block a block's entries are widened
into, the block of A, the chunk buffer of real right and transposed left
factors, the block product, the projection's two buffers, and each
block's views of them) are one record per lattice (_ConvKernel), built on
first use by conv_kernel (a warm-up call on zero fields builds it at
set-up) and reused by every later call on that lattice. A call sets itself up once: one zero test over the whole
stack, then the live slices are split into contiguous runs, one per lane,
and each lane fills the factors a chunk of slices at a time (at least
_CHUNK_SLICES of them) and runs the chunk block by block
(_block_products): a block's entries are widened once, then its products
are taken for every live slice of the chunk. There is one lane per usable
CPU, and never more lanes than live slices: lane 0 runs in the calling process,
every other lane in a persistent worker process (_Worker), forked from the
caller, so the lanes' short numpy and BLAS calls never wait for each
other's interpreter lock. Each process holds its own copy of the kernel's
work arrays. The lattice supplies only geometry: its sites and the flat
index-cube positions of points (Lattice.position). Calls must not overlap,
on any lattice: the kernel's arrays belong to the lattice and the workers
to the process.

Determinism: the summation order is the BLAS library's, which may differ
between BLAS builds and thread counts. The same config and seed give
byte-identical CSVs from run to run on one machine with the same numpy and
BLAS build and the same BLAS thread count; across those, results agree to
rounding. Lanes never change a byte: a slice's products are the same BLAS
calls on the same values in whichever lane runs it, and its projection the
same operations on each entry.

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

import _signal   # signal's C core, without the enums signal builds on import
import atexit
import os
import pickle
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import TimeSlicedField
from .lattice import Lattice, get_lattice

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
# Bytes of output projected at once: sets the lane's projection buffers, a
# third of this each, small next to a long grid's (S+1, N, 3) arrays.
_PROJECTION_BYTES = 256 * 1024
# Bytes of one block of the convolution's interaction matrix A, (2 rows, N)
# complex for `rows` row pairs: small enough that a block of D = <k, u(m)>
# stays in cache while it is gathered into a block of A and multiplied.
_BLOCK_BYTES = 512 * 1024
# Bytes of the convolution's chunk buffer, which holds the real right
# factors and transposed left factors of a run of consecutive slices: they
# are filled a chunk at a time, so their set-up is paid once per chunk, not
# once per slice.
_CHUNK_BYTES = 256 * 1024
# Fewest slices with two right factors that the chunk buffer holds. Each
# block's uint16 entries are widened to intp once per chunk, and the
# solver's 8-slice calls give each of two lanes 4 slices, so one widening
# serves all 4 (at k_max 6 the buffer takes 887 KB, not 256 KB). Widened
# once per slice instead, the narrow table cost 2-5% of a solve.
_CHUNK_SLICES = 4


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity masks on this platform
        return os.cpu_count() or 1


# Lanes of a convolution call: one per CPU this process may run on, lane 0
# in the caller and each other one in a forked worker (see bilinear); one
# lane, and no worker, where processes cannot fork.
_LANES = _usable_cpus() if hasattr(os, "fork") else 1
# Fewest pairs (k, l) of output and right-factor sites, over a call's live
# slices, per lane: a lane beyond the first costs its call a fixed time
# (the copies to and from its worker, and up to two process wake-ups), so
# a smaller call runs on fewer lanes. The solver's calls at k_max 4, with 8
# live slices of 2^16 pairs each, run on two lanes; 9-slice calls on the
# k_max 2 and 3 balls run on one: there two lanes gained at most a fifth on
# back-to-back calls, and ran up to 3 times slower when the worker had to
# be woken.
_LANE_PAIRS = 1 << 18
# Seconds a lane polls its pipe for the next message before it blocks: a
# process that blocks takes 0.1-0.3 ms to wake and then runs slower for a
# while, a tenth of a 9-slice call at k_max 4, while a worker's next job and
# its answer mostly arrive sooner than this. So a worker keeps its CPU busy
# for up to this long after each job.
_POLL_S = 0.001


def leray_project(k, x, out=None, work=None) -> np.ndarray:
    """The Leray projection x - (<k,x>/|k|^2) k of x onto the plane
    orthogonal to k, over the last axis of broadcastable arrays (one vector
    or a whole grid of them); written to out when given (x itself may be
    out), else to a new array. Raises ValueError if any k is 0.

    The sums over the length-3 axis are written out left to right, which
    is how .sum(axis=-1) adds them, at a fraction of the cost of numpy's
    reduction over so short an axis; every step takes one component, so
    no temporary is as large as x.

    work, for a caller that projects often (bilinear's lanes), is
    (|k|^2, factor, term): k's squared norms, summed as here and none of
    them 0, and two arrays of the broadcast shape of k's and x's leading
    axes for the temporaries; then nothing is checked or allocated here."""
    if work is None:
        k = np.asarray(k, dtype=np.float64)
        x = np.asarray(x)
        sq = k * k
        ksq = sq[..., 0] + sq[..., 1] + sq[..., 2]
        if not ksq.all():
            raise ValueError("Leray projector is undefined at k = 0")
        factor = np.empty(np.broadcast_shapes(k.shape[:-1], x.shape[:-1]),
                          dtype=np.result_type(k, x))
        work = ksq, factor, np.empty_like(factor)
    ksq, factor, term = work
    if out is None:
        out = np.empty(np.broadcast_shapes(k.shape, x.shape), dtype=factor.dtype)
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
    """The lattice convolution's gather table and its lane's work arrays,
    which build the interaction matrix A[k, l] = <k, u(k-l)> one block of
    `rows` pairs of output sites at a time.

    For N sites, a block pairs the rows r0 <= i < r1 <= N/2 with their
    mirror rows N-r1 <= j < N-r0. Site N-1-i is -(site i) and
    D[k, m] = <k, u(m)> is linear in k, so D[N-1-i] = -D[i] exactly, and
    both halves are gathered from D's rows r0..r1-1 alone: the lane's dots,
    the flat D buffer of rows*N + 1 complex entries, holds them in its
    first (r1-r0)*N entries, and its entry rows*N, the zero slot, is never
    written and stays 0. A block's gather is a (2 (r1-r0), N) view of one
    flat N*N uint16 array, 2 N^2 bytes. Its first half gathers the rows i
    from D row i-r0; its second half gathers the mirror rows j, in order,
    from D row N-1-j-r0, that is -A[j, :]. Entry l of a row for site p is
    (D row)*N + index(p - sites[l]), with index read from the flattened
    index cube at the flat position of p - sites[l], or rows*N when
    p - sites[l] is not a site. rows is at most max(1, 16384 // N), so no
    entry exceeds max(16384, N), which 16 bits hold on every lattice
    LatticeSpec allows (at most MAX_SITES sites). The blocks hold
    (r0, r1, gather) and end at N/2; together they cover all N*N pairs
    once. The gather table is read-only. Each process that runs a lane
    works in its own copy of the lane's arrays (_Lane): the caller in its
    own, a worker in the one it inherited when it was forked (see _Worker).
    """

    rows: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]
    lane: _Lane


class _Lane:
    """A lane's work arrays for the kernel's blocks.

    dots is the lane's flat D buffer with its zero slot (see _ConvKernel),
    index the (2 rows, N) intp block that a block's uint16 gather is
    widened into, once per chunk (np.take converts narrower indices to intp
    on every call), and inter the (2 rows, N) block of A that a block's
    rows and mirror rows are gathered into, so no (N, N) complex matrix is
    ever formed. steps holds each block's views, made once: (b = r1 - r0,
    its rows r0:r1 and mirror rows N-r1:N-r0 as slices, its sites, its D
    rows as (re, im) pairs, dots, its gather, its rows of index, and its
    rows of inter, whole and as (re, im) pairs). work is the flat float64
    chunk buffer that the lane fills with the real right factors and
    transposed left factors of a run of consecutive slices (_CHUNK_BYTES,
    and never less than _CHUNK_SLICES slices with two right factors), and
    prod the flat float64 buffer of a block's product, (2 rows, 6 n) for
    n <= 2 right factors. ksites and ksq are (N, 1, 3) and (N, 1) views of
    the lattice's sites and squared norms, and project two flat complex
    buffers of a third of _PROJECTION_BYTES each (and never less than a
    slice of two right factors): the projection's operands and its
    temporaries (_project).

    The work arrays are reused by every call on the lattice, which keeps
    each call free of fresh allocations, whose page faults would otherwise
    cost as much as the arithmetic. (A plain class: a dataclass would add
    about 1 ms to every command's import.)
    """

    def __init__(self, lat: Lattice, rows: int, blocks: list):
        n = len(lat)
        self.dots = np.zeros(rows * n + 1, dtype=np.complex128)
        self.index = np.empty((2 * rows, n), dtype=np.intp)
        self.inter = np.empty((2 * rows, n), dtype=np.complex128)
        # the buffer's rows, without the zero slot
        dots_ri = self.dots[:-1].view(np.float64).reshape(rows, 2 * n)
        inter_ri = self.inter.view(np.float64)
        self.steps = tuple((r1 - r0, slice(r0, r1), slice(n - r1, n - r0), lat.sites_f[r0:r1],
                            dots_ri[:r1 - r0], self.dots, g, self.index[:2 * (r1 - r0)],
                            self.inter[:2 * (r1 - r0)], inter_ri[:2 * (r1 - r0)])
                           for r0, r1, g in blocks)
        # one slice with two right factors takes 6 n (2*2 + 1) floats
        self.work = np.empty(max(_CHUNK_BYTES // 8, _CHUNK_SLICES * 30 * n))
        self.prod = np.empty(24 * rows)
        # integer sites: their squared norms are exact in any order
        self.ksites = lat.sites_f[:, None, :]
        self.ksq = lat.norm_sq_f[:, None]
        self.project = np.empty((2, max(_PROJECTION_BYTES // 48, 2 * n)), dtype=np.complex128)


@lru_cache(maxsize=None)
def conv_kernel(lat: Lattice) -> _ConvKernel:
    """The convolution kernel of lat, built on first use and then shared
    by every lattice equal to it (equal specs). Each block's entries are
    formed in the lane's intp index block, then narrowed into the uint16
    table, so no (N, N) intp array is formed: its flat positions of k - l
    are one subtraction, read back by one take from the flat index cube."""
    n = len(lat)
    half = n // 2   # sites come in pairs (k, -k), so n is even
    rows = min(half, max(1, _BLOCK_BYTES // (32 * n)))
    table = np.empty(n * n, dtype=np.uint16)
    blocks = []
    for r0 in range(0, half, rows):
        r1 = min(half, r0 + rows)
        blocks.append((r0, r1, table[2 * r0 * n: 2 * r1 * n].reshape(2 * (r1 - r0), n)))
    lane = _Lane(lat, rows, blocks)
    cube = lat.cube.reshape(-1)
    pos = lat.position(lat.sites)
    # position(k - l) = position(k) - (position(l) - position(0))
    pos_l = pos - lat.position(np.zeros(3, dtype=np.intp))
    for r0, r1, narrow in blocks:
        b = r1 - r0
        g = lane.index[:2 * b]   # the build's intp scratch, then narrowed
        # rows r0..r1-1, then their mirror rows n-r1..n-r0-1
        np.subtract(np.r_[pos[r0:r1], pos[n - r1:n - r0]][:, None], pos_l, out=g)
        mi = cube.take(g)
        # the D row each reads: i - r0, then n-1-j-r0 for mirror row j
        d_row = np.r_[np.arange(b), np.arange(b - 1, -1, -1)]
        np.add(mi, (d_row * n)[:, None], out=g)
        g[mi < 0] = rows * n   # the zero slot
        narrow[...] = g
    return _ConvKernel(rows, tuple(blocks), lane)


class _Worker:
    """A persistent forked process that runs one lane's jobs, one at a time
    (see bilinear).

    Forked from the caller, it inherits every kernel built by then, gather
    table included, copy-on-write; a kernel built later it builds on its
    first job on that lattice. shared is a shared anonymous mapping of
    `size` bytes, seen as complex128 and made before the fork, outside
    malloc's heap. It is sized for wider jobs than the first
    (_ready_workers), and only the pages a job writes become resident. For
    a job on m slices the caller copies each distinct factor's slices into
    an (m, N, width) array at its start, side by side, and the worker writes
    each slice's projected products over that slice's factors, in its first
    3 nv columns (_worker_products). A job and its answer are each one
    message on a pipe (_send), which the side that waits for it polls
    briefly before it blocks (_read). The worker ignores SIGINT, so an
    interrupt reaches the caller alone, leaves through os._exit, so none of
    the caller's exit code runs in it, and exits when its job pipe reaches
    EOF: when the caller stops it, or dies.
    """

    def __init__(self, size: int):
        import mmap   # here: a call without a worker never needs it
        self.size = size
        self.shared = np.frombuffer(mmap.mmap(-1, size), dtype=np.complex128)
        jobs, self.jobs = os.pipe()
        self.answers, answers = os.pipe()
        os.set_blocking(jobs, False)   # the ends that _receive polls
        os.set_blocking(self.answers, False)
        self.open = True   # until the caller's ends are closed (close)
        self.inbox = bytearray()   # what has arrived of the next answer
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (jobs, self.jobs, self.answers, answers):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self.jobs)
                os.close(self.answers)
                _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
                inbox = bytearray()
                while (job := _receive(jobs, inbox)) is not None:   # None: EOF
                    error, issued = self._run(*pickle.loads(job))
                    try:
                        answer = _pickle((error, issued))
                    except Exception:   # an error that cannot be pickled
                        answer = _pickle((RuntimeError(f"{error!r}, which cannot be pickled"),
                                          issued))
                    _send(answers, answer)
                code = 0
            finally:
                os._exit(code)
        os.close(jobs)
        os.close(answers)

    def _run(self, err: dict, spec, m: int, nv: int, width: int, columns: list,
             live: bytes) -> tuple:
        """Run a job; its answer is the exception it raised, or None, and
        the (category, message) of each warning it issued, which the
        caller's filters decide on (_join)."""
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with np.errstate(**err):   # the caller's numpy error state
                    lat = get_lattice(spec)
                    _worker_products(self.region(m, len(lat), width), lat, nv, columns,
                                     np.frombuffer(live, dtype=bool))
            except Exception as exc:   # the caller raises it
                error = exc
        return error, [(w.category, str(w.message)) for w in caught]

    def region(self, m: int, n: int, width: int) -> np.ndarray:
        """The (m, n, width) complex array at the start of the mapping."""
        return self.shared[: m * n * width].reshape(m, n, width)

    def send(self, job: tuple) -> None:
        """Hand the worker a job. The pipe of a worker that died is broken;
        its answer reports it."""
        try:
            _send(self.jobs, _pickle(job))
        except BrokenPipeError:
            pass

    def answer(self) -> tuple:
        """The worker's answer to its job (see _run). Only a signal handler
        makes it raise, while it waits; asked again (_join), it resumes
        the wait. An answer that cannot be unpickled is a RuntimeError. A
        worker that died instead is reaped and dropped, so that the next
        call forks a fresh one, and its answer is a RuntimeError that
        names it."""
        message = _receive(self.answers, self.inbox) if self.open else None
        if message is not None:
            try:
                return pickle.loads(message)
            except Exception as exc:   # the message is read, and the worker idle
                error = RuntimeError(f"the convolution's worker process {self.pid} "
                                     f"sent an answer that cannot be unpickled: {exc!r}")
                error.__cause__ = exc
                return error, []
        if self in _workers:
            _workers.remove(self)
        status = self.stop()
        code = None if status is None else os.waitstatus_to_exitcode(status)
        how = ("has exited" if code is None else f"was killed by signal {-code}" if code < 0
               else f"exited with status {code}")
        return RuntimeError(f"the convolution's worker process {self.pid} {how}"), []

    def close(self) -> None:
        """Close the caller's ends of the pipes, once: the worker's job pipe
        then reaches EOF, and it exits."""
        if self.open:
            self.open = False
            os.close(self.jobs)
            os.close(self.answers)

    def stop(self) -> int | None:
        """Close the pipes and reap the worker; returns its wait status, or
        None when it was reaped already (as where SIGCHLD is ignored)."""
        self.close()
        try:
            return os.waitpid(self.pid, 0)[1]
        except ChildProcessError:
            return None


def _pickle(message) -> bytes:
    """The pickle of a job or an answer."""
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def _send(fd: int, data: bytes) -> None:
    """Write a message's pickle data to the pipe fd, after its length."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _receive(fd: int, inbox: bytearray) -> bytes | None:
    """The pickle of the next message that _send wrote to the non-blocking
    pipe fd, or None at EOF. inbox keeps what has arrived of it, so that a
    wait an interrupt cut short resumes where it stopped."""
    while len(inbox) < 8 + int.from_bytes(inbox[:8], "little"):
        part = _read(fd)
        if not part:
            return None
        inbox += part
    end = 8 + int.from_bytes(inbox[:8], "little")
    message = bytes(inbox[8:end])
    del inbox[:end]
    return message


def _read(fd: int) -> bytes:
    """The bytes waiting on the non-blocking pipe fd (b"" at EOF), polled
    for up to _POLL_S and then waited for."""
    end = time.perf_counter() + _POLL_S
    while time.perf_counter() < end:
        try:
            return os.read(fd, 1 << 16)
        except BlockingIOError:
            pass
    os.set_blocking(fd, True)
    try:
        return os.read(fd, 1 << 16)
    finally:
        os.set_blocking(fd, False)


# The workers of lanes 1, 2, ..., forked by the first call that has a live
# slice for them and shared by every kernel.
_workers: list[_Worker] = []


def _ready_workers(sizes: list[int], rooms: list[int]) -> list[_Worker]:
    """One worker per size, whose mapping holds at least that many bytes:
    a missing worker is forked with a mapping of the matching room's bytes,
    and one with a mapping smaller than its size stopped and forked again
    so. bilinear sizes a room for the widest job that a call of its span
    and its count of right factors can send, so the solver's calls, none of
    which copies more than two distinct factors or sends the worker a
    longer span than the first, fork it once: a fork copies the caller's
    page tables and starts a copy-on-write wave in both processes, while
    mapped pages that no job touches are never resident."""
    for i, (size, room) in enumerate(zip(sizes, rooms)):
        if i < len(_workers) and _workers[i].size >= size:
            continue
        if i < len(_workers):
            _workers.pop(i).stop()
        # forked while _workers holds only live workers, whose pipes the
        # child closes (_drop_workers)
        _workers.insert(i, _Worker(room))
    return _workers[:len(sizes)]


def _stop_workers() -> None:
    """Stop every worker (_Worker.stop): at exit, and wherever a change
    must reach the workers, which only those forked after it see."""
    while _workers:
        _workers.pop().stop()


def _drop_workers() -> None:
    """In a forked child: close the parent's workers' pipes, which the
    child must not hold open, and forget those workers, which are not its
    children; a child that needs lanes forks its own."""
    for worker in _workers:
        worker.close()
    _workers.clear()


atexit.register(_stop_workers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_workers)


def _join(workers: list[_Worker]) -> None:
    """Wait until every worker has answered, then issue the warnings they
    recorded, through the caller's warnings filters, and raise the first
    exception raised in a lane or by an interrupt during the wait, so none
    propagates while a lane may still write. Only a signal handler makes
    an answer raise (_Worker.answer), so the wait ends."""
    errors, caught = [], []
    for worker in workers:
        while True:
            try:
                error, issued = worker.answer()
                break
            except BaseException as exc:   # an interrupt: raised once all have answered
                errors.append(exc)
        errors.append(error)
        caught += issued
    for category, message in caught:
        warnings.warn(message, category, stacklevel=3)   # at bilinear's caller
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
    _block_products), so one build of A(u) serves all right factors that
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
    most one lane per live slice, and per _LANE_PAIRS pairs). Each worker (_Worker) is handed its run:
    the distinct factors' slices over the run are copied into its shared
    mapping once each, so a factor that recurs, as u does among the vs in
    the solver's S(v, v) and S(g, T, g), is copied once, and the call sends
    it the job with the caller's numpy error state. Lane 0 then runs the
    first run in the calling process (_lane_products). Each lane applies
    the projection (leray_project) and the factor 2 pi i to its own run's
    rows, in place, a few slices at a time (_project). The call waits for
    every lane before it goes on or raises (_join), then copies each
    worker's rows back into the output.

    The lane's work arrays are built with the kernel (conv_kernel) and
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
    v_st = [v.data.reshape(u_st.shape) for v in vs]
    # every slice as (re, im) pairs, (S+1, N, 3, 2)
    u_ri = _pairs(u_st)
    v_ri = [_pairs(v) for v in v_st]
    live = u_ri.any(axis=(1, 2, 3)) & np.any([v.any(axis=(1, 2, 3)) for v in v_ri], axis=0)
    res[~live] = 0.0
    at = np.flatnonzero(live).tolist()
    lanes = min(_LANES, len(at), max(1, len(at) * n * n // _LANE_PAIRS))
    if lanes:
        # lane i runs the live slices at[cut[i]:cut[i+1]]: the first lanes
        # take one more when they do not split evenly
        cut = [-(-len(at) * i // lanes) for i in range(lanes + 1)]
        spans = [(at[a], at[b - 1] + 1) for a, b in zip(cut, cut[1:])]
        # a field that recurs, as u does among the vs, is copied once
        seen = {}
        columns = [3 * seen.setdefault(id(f.data), len(seen)) for f in (u, *vs)]
        copies = dict(zip(columns, [u_st, *v_st]))
        # the products overwrite the factors
        width = 3 * max(len(copies), nv)
        err = np.geterr()
        # a fresh worker's mapping holds u and every v apart, the widest
        # job a call with these right factors can send
        column = [16 * (stop - start) * n for start, stop in spans[1:]]
        workers = _ready_workers([c * width for c in column], [c * 3 * (1 + nv) for c in column])
        busy, sending = [], None
        try:
            for worker, (start, stop) in zip(workers, spans[1:]):
                region = worker.region(stop - start, n, width)
                for c, stack in copies.items():
                    region[:, :, c:c + 3] = stack[start:stop]
                sending = worker
                worker.send((err, lat.spec, stop - start, nv, width, columns,
                             live[start:stop].tobytes()))
                busy.append(worker)
            _lane_products(kern.lane, *spans[0], u_ri, v_ri, live, res.view(np.float64))
            _project(kern.lane, res, *spans[0])
        finally:
            if sending is not None and sending not in busy:
                # an interrupt cut its send short, so whether it has the
                # job is unknown: it is stopped, and the next call forks
                # a fresh one
                _workers.remove(sending)
                sending.stop()
            _join(busy)
        for worker, (start, stop) in zip(busy, spans[1:]):
            res[start:stop] = worker.region(stop - start, n, width)[:, :, :3 * nv]
    if out is not None:
        return out
    parts = tuple(u._like(res[:, :, 3 * i: 3 * i + 3].reshape(u.data.shape))
                  for i in range(nv))
    return parts[0] if nv == 1 else parts


def _pairs(x: np.ndarray) -> np.ndarray:
    """The complex (S+1, N, 3) array x as a real view of its (re, im)
    pairs, (S+1, N, 3, 2); x's last axis must be contiguous."""
    return x.view(np.float64).reshape(*x.shape, 2)


def _project(lane: _Lane, res: np.ndarray, start: int, stop: int) -> None:
    """Apply the projection (leray_project) and the factor 2 pi i in place
    to the slices start <= s < stop of res, an (S+1, N, 3 nv) output with a
    contiguous last axis, as many slices at a time as _PROJECTION_BYTES
    and the lane's projection buffers allow: so a call with at most two
    right factors allocates no array here. (numpy's buffered iteration still takes up to its buffer
    size, 8192 elements, per broadcast operand of an operation; a smaller
    buffer slowed the projection of two right factors by up to 60%.) The
    projection is per entry, so how the slices are grouped changes no
    byte."""
    n = len(lane.ksq)
    per_v = res.reshape(len(res), n, -1, 3)
    width = n * per_v.shape[2]
    scratch = (lane.project if width <= lane.project.shape[1]
               else np.empty((2, width), dtype=np.complex128))
    step = max(1, min(_PROJECTION_BYTES // 48, scratch.shape[1]) // width)
    for s0 in range(start, stop, step):
        block = per_v[s0:min(stop, s0 + step)]
        factor, term = (b[:block[..., 0].size].reshape(block.shape[:-1]) for b in scratch)
        np.multiply(leray_project(lane.ksites, block, block, (lane.ksq, factor, term)),
                    _TWO_PI_I, out=block)


def _worker_products(region: np.ndarray, lat: Lattice, nv: int, columns: list,
                     live: np.ndarray) -> None:
    """A worker's job (see _Worker): the projected products of the live
    slices among the m of region, its (m, N, width) array of factors,
    written over those factors. columns holds the first column of u's and
    of each v's slices, and live the job's mask of live slices; the rows of
    dead slices are zeroed, so the projection reads products alone."""
    u_ri, *v_ri = (_pairs(region[:, :, c:c + 3]) for c in columns)
    res = region[:, :, :3 * nv]
    lane = conv_kernel(lat).lane
    _lane_products(lane, 0, len(region), u_ri, v_ri, live, res.view(np.float64))
    res[~live] = 0.0
    _project(lane, res, 0, len(region))


def _lane_products(lane: _Lane, start: int, stop: int, u_ri: np.ndarray, v_ri: list,
                   live: np.ndarray, res_ri: np.ndarray) -> None:
    """Write the unprojected products of the live slices start <= s < stop
    into res_ri, the real view of the output, in lane's work arrays alone.
    u_ri and v_ri are the factors' slices as (re, im) pairs, (S+1, N, 3, 2),
    and live the mask of live slices.

    The real right factors and transposed left factors are filled a chunk
    of consecutive slices at a time (a chunk with no live slice is skipped)
    into the lane's chunk buffer, which holds at least _CHUNK_SLICES slices
    with two right factors: one pass per v and one for u, through basic
    slices, so the fill allocates nothing. Then the chunk runs block by
    block, and each block over the chunk's live slices (_block_products),
    so a block's uint16 entries are widened into the lane's intp index
    block once per chunk, not once per slice. Every factor of a chunk is
    read before any of its products is written, so a slice's products may
    overwrite that slice's factors, as in a worker."""
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
    plan = [(own, mirror, kf, dots_ri, dots, gather, index, inter, inter_ri,
             prod[: 2 * b], prod[:b], prod[b: 2 * b])
            for b, own, mirror, kf, dots_ri, dots, gather, index, inter, inter_ri in lane.steps]
    for first in range(start, stop, c):
        end = min(stop, first + c)
        at = np.flatnonzero(live[first:end]).tolist()
        if not at:
            continue
        m = end - first
        # a ufunc buffers an operand it cannot walk in one stride, as
        # pairs' view and a worker's side-by-side factors are (up to 64 KB
        # a call), while an assignment does not: so -im is copied into the
        # left factors' space and negated there
        neg = left[:m].reshape(-1)[: m * n * 3].reshape(m, n, 3)
        for i, v in enumerate(v_ri):
            part = v[first:end]
            pairs[:m, :, 0, i] = part
            neg[...] = part[..., 1]
            np.negative(neg, out=neg)
            pairs[:m, :, 1, i, :, 0] = neg
            pairs[:m, :, 1, i, :, 1] = part[..., 0]
        np.copyto(left_pairs[:m], u_ri[first:end].transpose(0, 2, 1, 3))
        chunk = [(left[j], rhs[j], res_ri[first + j]) for j in at]
        for step in plan:
            _block_products(step, chunk)


def _block_products(step: tuple, chunk: list) -> None:
    """Write one block's rows of A(u) @ [v_1 ... v_n], before the
    projection, for each live slice of a chunk. step is one block's entry
    of the lane's per-call plan (_Lane.steps, with the block's rows of the
    block product), whose first item is the slice of the block's own rows;
    chunk holds each live slice's (u, rhs, out): u the slice's left factor
    as the (3, 2N) real array of its (re, im) pairs side by side, rhs its
    (2N, 6n) real right factor, whose rows 2l and 2l+1 hold each v(l)'s
    (re, im) and (-im, re) pairs, and out the (N, 6n) real view of its
    (N, 3n) output.

    The block's uint16 gather is widened into the lane's index block once
    for the whole chunk. Then per slice: a cache-sized block of
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
    gather from the mirror row's own D row gives; and a slice's outputs
    are the same operations on the same values in every chunk, so how the
    slices are chunked changes no byte.

    The complex product is one real one, which BLAS runs faster than a
    complex product this narrow: A's rows, viewed as their (re, im) pairs
    side by side, times rhs give out's (re, im) pairs. Each output mode is
    still the sum of the pair products a(l) v(l), each split into its real
    terms.
    """
    own, mirror, kf, dots_ri, dots, gather, index, inter, inter_ri, prod, top, bottom = step
    np.copyto(index, gather)
    for u, rhs, out in chunk:
        np.matmul(kf, u, out=dots_ri)   # D[i-r0, m] = <i, u(m)>
        # every index is in range; "wrap" only skips numpy's bounds check
        dots.take(index, out=inter, mode="wrap")
        np.matmul(inter_ri, rhs, out=prod)
        out[own] = top
        # 0 - x, not -x: an exact zero stays +0, as BLAS sums it
        np.subtract(0.0, bottom, out=out[mirror])


def unit_times(substeps: int) -> tuple[float, ...]:
    """Uniform substep times 0 = s_0 < ... < s_S = 1."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    return tuple(i / substeps for i in range(substeps + 1))


def duhamel_integrate(lattice: Lattice, times, data: np.ndarray, carry=None) -> None:
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

    Resumable: a grid's samples may come a run of consecutive grid times at
    a time, in order, each run with its own times. carry is then one list
    for the whole grid, empty at the first run, into which each call puts
    what the next run resumes from: the run's last time, last source sample
    and last integral, in arrays of their own, so the caller may overwrite
    data between the calls. Over any cut into runs the recurrence runs the
    same operations in the same order, so every integral is bit for bit the
    whole pass's.
    """
    if carry:
        last_time, prev, integral = carry
        rules = duhamel_rules(lattice, (last_time, *times))
    else:   # the grid's first run: its first integral is empty
        rules = duhamel_rules(lattice, tuple(times))
        prev = data[0].copy()
        data[0] = 0.0
        integral, data = data[0], data[1:]
    avg = np.empty_like(prev)
    for (decay, gain), cur in zip(rules, data):
        np.add(prev, cur, out=avg)
        np.multiply(0.5, avg, out=avg)
        prev[...] = cur
        np.multiply(decay, integral, out=cur)
        np.multiply(gain, avg, out=avg)
        np.add(cur, avg, out=cur)
        integral = cur
    if carry is not None:
        carry[:] = times[-1], prev, integral.copy()


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


def star_product(u: TimeSlicedField, *vs: TimeSlicedField, out=None, carry=None):
    """Heat-weighted time integral of the convolution of u with each of vs;
    one sliced field for one v, else a tuple with one per v.

    (u * v)(t) = integral_0^t exp(-(t-s)|k|^2) conv(u(s), v(s)) ds at every
    grid time, from one bilinear call over the whole grid (one interaction
    matrix per slice, shared by all of vs) that writes the side-by-side
    samples into one (S+1, N, 3 len(vs)) array, and one duhamel_integrate
    pass that overwrites them with the integrals; the t = 0 slice is the
    zero field (empty integral). Each product of several is a view of that
    array, so none is copied out of it.

    With out, an array that bilinear's out accepts, the integrals are
    written there and out is returned, for a caller that goes on to add
    into it in place. With carry, the factors are a run of a longer grid's
    consecutive slices, and the integral resumes where the run before it
    ended (duhamel_integrate's carry).
    """
    lat = u.lattice
    res = out
    if res is None:
        res = np.empty((len(u.times), len(lat), 3 * len(vs)), dtype=np.complex128)
    bilinear(u, *vs, out=res)   # checks vs and out
    duhamel_integrate(lat, u.times, res, carry)
    if out is not None:
        return out
    sliced = tuple(u._like(res[:, :, 3 * i: 3 * i + 3]) for i in range(len(vs)))
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

