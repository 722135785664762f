"""Spectral velocity fields and the weighted sup-norms they are measured in.

A field maps each lattice site k to a complex 3-vector amplitude. Storage is
dense over the lattice site table (unsupported sites hold exact zeros), which
keeps every operation a vectorized array expression. Fields are immutable:
the backing array is non-writeable and all operations return new instances.

A SpectralField is one (N, 3) array. A function of time on a substep grid is
a TimeSlicedField: one read-only (S+1, N, 3) array, so its sums, norms and
star products are whole-array expressions (a star product is one bilinear
call over the grid, whose samples duhamel_integrate then overwrites in
place). Its .slices are SpectralField views of the rows, for readers that
want one time at a time. The two kinds share one implementation of the
storage, the algebra and the invariant checks, written over the array's
last axes; neither is a subclass of the other, and operands of different
kinds, lattices or grids are rejected.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import pairwise

import numpy as np

from .errors import refuse_assignment
from .lattice import Lattice

__all__ = [
    "SpectralField",
    "TimeSlicedField",
    "site_magnitudes",
    "weighted_sup",
    "phi_norm",
    "fmc_weights",
    "fmc_norm",
    "slice_runs",
    "UNDERFLOW_FLOOR",
]

# Multiplier factors below this are clamped to exact zero and the entry
# leaves the support, so supports stay sparse at large times.
UNDERFLOW_FLOOR = 1e-300
# Bytes of one run of consecutive slices (see slice_runs): small next to a
# long grid's (S+1, N, 3) arrays, while a short grid's update is one run.
_RUN_BYTES = 128 * 1024
# Squares below the normal range cost a sum of at least 2^-968 = 2^54 * 2^-1022
# under 2^-104 of itself; below it they may have lost bits or underflowed to 0.
_SQUARES_EXACT = 2.0 ** -968


def site_magnitudes(data: np.ndarray) -> np.ndarray:
    """Euclidean magnitude of the complex 3-vectors on data's last axis; by
    nested hypot where the squares are too small or overflow, so no nonzero
    reads 0 and no finite entry reads inf. Exact zeros already read 0, so
    that path is skipped when they are all it would see.

    The squares are summed as re*re + im*im per component, the three
    components left to right, as (real**2 + imag**2).sum(axis=-1) adds
    them, in arrays one component wide."""
    re, im = data.real, data.imag
    sq, comp, term = (np.empty(data.shape[:-1]) for _ in range(3))

    def square(j, out):
        np.multiply(re[..., j], re[..., j], out=out)
        np.multiply(im[..., j], im[..., j], out=term)
        return np.add(out, term, out=out)

    with np.errstate(over="ignore"):
        square(0, sq)
        np.add(sq, square(1, comp), out=sq)
        np.add(sq, square(2, comp), out=sq)
    inexact = (sq < _SQUARES_EXACT) | (sq == np.inf)
    mags = np.sqrt(sq, out=sq)
    entries = data[inexact]
    if np.count_nonzero(entries):
        mod = np.abs(entries)
        mags[inexact] = np.hypot(np.hypot(mod[:, 0], mod[:, 1]), mod[:, 2])
    return mags


def slice_runs(count: int, slice_bytes: int) -> list[slice]:
    """Cut range(count) in order into runs of consecutive slices that take
    slice_bytes each and at most _RUN_BYTES together (one slice when a
    slice takes more), for whole-grid passes that keep their temporaries a
    run long."""
    step = max(1, _RUN_BYTES // slice_bytes)
    return [slice(a, a + step) for a in range(0, count, step)]


class _ArrayField:
    """Storage, algebra and invariant checks over a read-only complex array
    whose last two axes are (lattice site, component); the kinds differ in
    their leading axes and in _like, which wraps an array as the same kind
    on the same lattice (and grid). A field is immutable, its __init__
    setting each attribute once (a cached_property writes __dict__), and
    equal only to itself."""

    __setattr__ = __delattr__ = refuse_assignment

    def _freeze(self, data, shape: tuple[int, ...]) -> None:
        """Keep data as a read-only complex128 array of that shape whose
        last axis is contiguous, copied only when it is not one already:
        so a view, such as one of a pair of products in one array, is
        kept as it is, and only the view is made read-only."""
        arr = np.asarray(data, dtype=np.complex128)
        if arr.ndim == 0 or arr.strides[-1] != arr.itemsize:
            arr = np.ascontiguousarray(arr)
        if arr.shape != shape:
            raise ValueError(f"data shape {arr.shape} does not match the expected {shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def _check_operand(self, other) -> None:
        """Raise ValueError unless other has the same lattice and the same
        time grid; a SpectralField has no grid, so kinds cannot mix."""
        if other.lattice != self.lattice:
            raise ValueError("fields live on different lattices")
        if getattr(other, "times", None) != getattr(self, "times", None):
            raise ValueError("fields live on different time grids")

    def magnitudes(self) -> np.ndarray:
        """Per-site complex Euclidean magnitude of the 3-vector amplitude;
        (N,) for a field, (S+1, N) for a sliced field."""
        return site_magnitudes(self.data)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        self._check_operand(other)
        return self._like(self.data + other.data)

    def __sub__(self, other):
        self._check_operand(other)
        return self._like(self.data - other.data)

    def __neg__(self):
        return self._like(-self.data)

    def __mul__(self, scalar):
        return self._like(self.data * complex(scalar))

    __rmul__ = __mul__

    # -- invariant checks ----------------------------------------------------

    def max_divergence_ratio(self) -> float:
        """max over support of |<k, v(k)>| / (|k| |v(k)|), over every slice
        of a sliced field; 0 for a zero field."""
        mags = self.magnitudes()
        dots = np.abs((self.lattice.sites_f * self.data).sum(axis=-1))
        scale = mags * np.sqrt(self.lattice.norm_sq_f)
        ratio = np.divide(dots, scale, out=np.zeros_like(mags), where=mags > 0)
        return float(ratio.max(initial=0.0))

    def reality_defect(self) -> float:
        """max over sites (and slices) of |v(-k) - conj(v(k))|; 0 means
        negation-symmetric. Site N-1-i is -(site i) (see lattice)."""
        diff = self.data[..., ::-1, :] - np.conj(self.data)
        return float(site_magnitudes(diff).max(initial=0.0))


class SpectralField(_ArrayField):
    """Complex 3-vector amplitudes on the nonzero sites of a lattice.

    data, (N, 3) complex128 and read-only: data[i] is the amplitude at
    lattice.sites[i]. The origin is never a site, so the zero-mode
    constraint holds structurally.
    """

    def __init__(self, lattice: Lattice, data):
        if not isinstance(lattice, Lattice):
            raise TypeError(f"expected a Lattice, got {type(lattice)!r}")
        object.__setattr__(self, "lattice", lattice)
        self._freeze(data, (len(lattice), 3))

    def _like(self, data) -> "SpectralField":
        return SpectralField(self.lattice, data)

    @staticmethod
    def zero(lattice: Lattice) -> "SpectralField":
        return SpectralField(lattice, np.zeros((len(lattice), 3), dtype=np.complex128))

    @staticmethod
    def from_modes(lattice: Lattice, modes) -> "SpectralField":
        """Build a field from a {site: 3-vector} mapping; other sites are zero."""
        data = np.zeros((len(lattice), 3), dtype=np.complex128)
        for site, vec in modes.items():
            data[lattice.site_index(site)] = vec
        return SpectralField(lattice, data)

    def __getitem__(self, key) -> np.ndarray:
        return self.data[self.lattice.site_index(key)].copy()

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.magnitudes() > 0))


class TimeSlicedField(_ArrayField):
    """A field-valued function of time sampled on a fixed substep grid.

    data[n] holds the (N, 3) amplitudes at times[n], stored as one read-only
    (S+1, N, 3) complex128 array.
    """

    def __init__(self, times, lattice: Lattice, data):
        times = tuple(float(t) for t in times)
        if not times:
            raise ValueError("need at least one grid time")
        if any(b <= a for a, b in pairwise(times)):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lattice", lattice)
        self._freeze(data, (len(times), len(lattice), 3))

    def _like(self, data) -> "TimeSlicedField":
        return TimeSlicedField(self.times, self.lattice, data)

    @classmethod
    def from_slices(cls, times, fields):
        """Stack one field per grid time."""
        fields = tuple(fields)
        if not fields:
            raise ValueError("need at least one slice")
        lat = fields[0].lattice
        if any(f.lattice != lat for f in fields):
            raise ValueError("all slices must share one lattice")
        return cls(times, lat, np.stack([f.data for f in fields]))

    @classmethod
    def zero(cls, lattice, times):
        times = tuple(times)
        return cls(times, lattice, np.zeros((len(times), len(lattice), 3), dtype=np.complex128))

    @cached_property
    def slices(self) -> tuple[SpectralField, ...]:
        """The samples as read-only fields that are views of data."""
        return tuple(SpectralField(self.lattice, d) for d in self.data)

    def last_slice(self) -> SpectralField:
        """The last sample as a field with its own copy of the data, for
        keeping beyond this object without keeping the whole array alive."""
        return SpectralField(self.lattice, self.data[-1].copy())


def weighted_sup(mags: np.ndarray, weights: np.ndarray, axis=None):
    """sup over the supported sites of weights * mags (0 when no site is
    supported), for a field's magnitudes: (N,) or, for a sliced field,
    (S+1, N), whose sup then also runs over every grid slice; with axis=-1
    it is one sup per slice instead, an (S+1,) array.

    Unsupported sites count 0 whatever their weight, so an infinite weight
    there makes no nan, while a nan magnitude makes the sup nan."""
    weighted = np.multiply(weights, mags, out=np.zeros_like(mags), where=mags != 0)
    sup = np.max(weighted, axis=axis, initial=0.0)
    return float(sup) if axis is None else sup


def phi_norm(f, alpha: float, axis=None):
    """sup over supported k of |k|^alpha * |f(k)|; f a field or a sliced
    field, axis as in weighted_sup."""
    return weighted_sup(f.magnitudes(), f.lattice.norm_sq_f ** (alpha / 2.0), axis)


@lru_cache(maxsize=8)
def fmc_weights(lattice: Lattice, m, c: float, beta: float) -> np.ndarray:
    """The weights |k|^beta exp(c sqrt(m) |k|) of fmc_norm, one per site; inf
    where they overflow. Requires beta > 3 and m, c > 0. A read-only array,
    built once per lattice and parameters (a step measures at one index m)
    and kept for the few most recent ones."""
    if beta <= 3:
        raise ValueError(f"beta must be > 3, got {beta}")
    if m <= 0 or c <= 0:
        raise ValueError("m and c must be positive")
    q = lattice.norm_sq_f
    with np.errstate(over="ignore"):
        weights = q ** (beta / 2.0) * np.exp(c * np.sqrt(float(m)) * np.sqrt(q))
    weights.setflags(write=False)
    return weights


def fmc_norm(f, m, c: float, beta: float, axis=None):
    """Minimal C with |f(k)| <= C |k|^-beta exp(-c sqrt(m) |k|) on the lattice.

    Computed as sup_k |k|^beta exp(c sqrt(m) |k|) |f(k)| over the supported
    sites only: at large m the weight overflows to inf at large |k|, where
    the sites are empty. Requires beta > 3 and m, c > 0. f a field or a
    sliced field, axis as in weighted_sup.
    """
    return weighted_sup(f.magnitudes(), fmc_weights(f.lattice, m, c, beta), axis)
