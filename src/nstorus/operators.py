"""Nonlinear machinery: Leray projection, the lattice convolution, and the
heat-kernel-weighted time integration that composes them.

The convection term couples modes through the truncated convolution

    out(k) = 2*pi*i * sum_l <k, u(k-l)> P_k v(l),

summed over pairs with l and k-l both nonzero lattice sites (Galerkin
truncation: interactions leaving the lattice are dropped). Because P_k does
not depend on l, the projection is applied once to the accumulated sum per
output mode, which also makes the output solenoidal by construction. The
sum is one dense matrix product (see bilinear); every output mode is summed
from its own pair products, so small modes keep their relative accuracy.

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
without any step restriction in |k|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField, fmc_norm
from .lattice import Lattice, WaveVector

__all__ = [
    "leray_project",
    "bilinear",
    "TimeSlicedField",
    "DuhamelGrid",
    "unit_times",
    "grid_index",
    "duhamel_integrate",
    "star_product",
    "identity_split",
    "sliced_fmc_norm",
]

_TWO_PI_I = 2j * np.pi
_GRID_TOL = 1e-12


def leray_project(k, x) -> np.ndarray:
    """Project x onto the plane orthogonal to k: x - (<k,x>/|k|^2) k."""
    if isinstance(k, WaveVector):
        k = k.as_tuple()
    kx, ky, kz = (float(c) for c in k)
    ksq = kx * kx + ky * ky + kz * kz
    if ksq == 0:
        raise ValueError("Leray projector is undefined at k = 0")
    x0, x1, x2 = (complex(c) for c in x)
    factor = (kx * x0 + ky * x1 + kz * x2) / ksq
    return np.array([x0 - factor * kx, x1 - factor * ky, x2 - factor * kz])


def bilinear(u: SpectralField, v: SpectralField) -> SpectralField:
    """Truncated convection convolution of two fields on a shared lattice.

    The pairs are scattered into the dense interaction matrix
    A[k, l] = <k, u(k-l)> (zero where k-l is not a site), and one matrix
    product A @ v sums them. Each output mode is the sum of the same pair
    products as the direct convolution; only the summation order is BLAS's,
    so every mode keeps its own relative accuracy however small it is. Both
    matrices are the lattice's reused work arrays (Lattice.conv_work), so
    calls on one lattice must not run concurrently.
    """
    if u.lattice != v.lattice:
        raise ValueError("bilinear requires fields on the same lattice")
    lat = u.lattice
    tab = lat.conv_table()
    kf = lat.sites_f
    dots, inter = lat.conv_work()
    np.matmul(kf, u.data.T, out=dots)             # dots[k, m] = <k, u(m)>
    inter.ravel()[tab.dest] = dots.ravel()[tab.src]
    out = inter @ v.data
    out -= ((kf * out).sum(axis=1) / lat.norm_sq_f)[:, None] * kf
    out *= _TWO_PI_I
    return SpectralField(lat, out)


def unit_times(substeps: int) -> tuple[float, ...]:
    """Uniform substep times 0 = s_0 < ... < s_S = 1."""
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    return tuple(i / substeps for i in range(substeps + 1))


@dataclass(frozen=True, eq=False)
class TimeSlicedField:
    """A field-valued function of time sampled on a fixed substep grid."""

    times: tuple[float, ...]
    slices: tuple[SpectralField, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        slices = tuple(self.slices)
        if len(times) != len(slices) or not times:
            raise ValueError("times and slices must be non-empty and equal length")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        lat = slices[0].lattice
        if any(s.lattice != lat for s in slices):
            raise ValueError("all slices must share one lattice")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "slices", slices)

    @property
    def lattice(self) -> Lattice:
        return self.slices[0].lattice

    @classmethod
    def zero(cls, lattice, times):
        z = SpectralField.zero(lattice)
        return cls(tuple(times), tuple(z for _ in times))

    def at_time(self, t: float) -> SpectralField:
        return self.slices[grid_index(self.times, t)]

    def _check_same_grid(self, other: "TimeSlicedField"):
        if self.times != other.times:
            raise ValueError("time grids do not match")
        if self.lattice != other.lattice:
            raise ValueError("lattices do not match")

    def __add__(self, other):
        self._check_same_grid(other)
        return TimeSlicedField(self.times, tuple(a + b for a, b in zip(self.slices, other.slices)))

    def __sub__(self, other):
        self._check_same_grid(other)
        return TimeSlicedField(self.times, tuple(a - b for a, b in zip(self.slices, other.slices)))

    def __mul__(self, scalar):
        return TimeSlicedField(self.times, tuple(s * scalar for s in self.slices))

    __rmul__ = __mul__


class DuhamelGrid(TimeSlicedField):
    """Integrand samples on the unit-interval substep grid.

    This is the quadrature contract for the time-integrated products: the
    stored samples are the integrand sources at each substep time, with
    endpoints pinned to exactly 0 and 1.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.times[0] != 0.0 or self.times[-1] != 1.0:
            raise ValueError("DuhamelGrid times must start at 0 and end at 1")

    @property
    def substeps(self) -> int:
        return len(self.times) - 1

    @property
    def samples(self) -> tuple[SpectralField, ...]:
        return self.slices


def grid_index(times, t: float) -> int:
    """Index of t on the grid; evaluation off the grid is out of contract."""
    for i, s in enumerate(times):
        if abs(s - t) <= _GRID_TOL * max(1.0, abs(t)):
            return i
    raise ValueError(f"t={t!r} is not on the substep grid {times[0]}..{times[-1]}")


def duhamel_integrate(source: TimeSlicedField, t: float) -> SpectralField:
    """Quadrature of integral_0^t exp(-(t-s)|k|^2) source(s, k) ds per mode.

    On each substep the source is replaced by the average of its endpoint
    samples and the exponential factor is integrated exactly, giving the
    per-substep weight (exp(-(t-s_{i+1})|k|^2) - exp(-(t-s_i)|k|^2))/|k|^2.
    Exact when source(., k) is constant in s.
    """
    n = grid_index(source.times, t)
    lat = source.lattice
    if n == 0:
        return SpectralField.zero(lat)
    q = lat.norm_sq_f
    s = np.asarray(source.times[: n + 1])
    expo = np.exp(-np.outer(t - s, q))         # (n+1, N), increasing in s
    weights = (expo[1:] - expo[:-1]) / q       # (n, N), all >= 0
    data = np.stack([sl.data for sl in source.slices[: n + 1]])
    avg = 0.5 * (data[:-1] + data[1:])
    return SpectralField(lat, (avg * weights[:, :, None]).sum(axis=0))


def star_product(u: TimeSlicedField, v: TimeSlicedField) -> TimeSlicedField:
    """Heat-weighted time integral of the convolution of two sliced fields.

    (u * v)(t) = integral_0^t exp(-(t-s)|k|^2) conv(u(s), v(s)) ds on the
    shared grid; the t = 0 slice is the zero field (empty integral).
    """
    u._check_same_grid(v)
    integrand = TimeSlicedField(
        u.times, tuple(bilinear(a, b) for a, b in zip(u.slices, v.slices))
    )
    return TimeSlicedField(
        u.times, tuple(duhamel_integrate(integrand, t) for t in u.times)
    )


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
    kv = np.asarray(k.as_tuple() if isinstance(k, WaveVector) else k, dtype=np.float64)
    lv = np.asarray(l.as_tuple() if isinstance(l, WaveVector) else l, dtype=np.float64)
    coeff_k = a1 * a2 / total
    shift = a1 / total
    diff = lv - shift * kv
    residual = total * float(diff @ diff)
    return coeff_k, shift, residual


def sliced_fmc_norm(x: TimeSlicedField, m, c: float, beta: float) -> float:
    return max(fmc_norm(s, m, c, beta) for s in x.slices)
