"""Spectral velocity fields and the weighted sup-norms they are measured in.

A field maps each lattice site k to a complex 3-vector amplitude. Storage is
dense over the lattice site table (unsupported sites hold exact zeros), which
keeps every operation a vectorized array expression. Fields are immutable:
the backing array is non-writeable and all operations return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice, LatticeSpec, WaveVector, get_lattice

__all__ = [
    "SpectralField",
    "phi_norm",
    "fmc_norm",
    "heat_multiply",
    "UNDERFLOW_FLOOR",
]

# Multiplier factors below this are clamped to exact zero and the entry
# leaves the support, so supports stay sparse at large times.
UNDERFLOW_FLOOR = 1e-300


def _as_lattice(lattice) -> Lattice:
    if isinstance(lattice, Lattice):
        return lattice
    if isinstance(lattice, LatticeSpec):
        return get_lattice(lattice)
    raise TypeError(f"expected Lattice or LatticeSpec, got {type(lattice)!r}")


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex 3-vector amplitudes on the nonzero sites of a lattice.

    data[i] is the amplitude at lattice.sites[i]. The origin is never a
    site, so the zero-mode constraint holds structurally.
    """

    lattice: Lattice
    data: np.ndarray  # (N, 3) complex128, read-only

    def __post_init__(self):
        lat = _as_lattice(self.lattice)
        object.__setattr__(self, "lattice", lat)
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.shape != (len(lat), 3):
            raise ValueError(f"data shape {arr.shape} does not match lattice size {len(lat)}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(lattice) -> "SpectralField":
        lat = _as_lattice(lattice)
        return SpectralField(lat, np.zeros((len(lat), 3), dtype=np.complex128))

    @staticmethod
    def from_modes(lattice, modes) -> "SpectralField":
        """Build a field from a {site: 3-vector} mapping; other sites are zero."""
        lat = _as_lattice(lattice)
        data = np.zeros((len(lat), 3), dtype=np.complex128)
        for key, vec in modes.items():
            site = key.as_tuple() if isinstance(key, WaveVector) else tuple(key)
            if site not in lat.index:
                raise KeyError(f"site {site} is not on the lattice (k_max={lat.spec.k_max})")
            data[lat.index[site]] = np.asarray(vec, dtype=np.complex128)
        return SpectralField(lat, data)

    # -- mapping-style access ------------------------------------------------

    def __getitem__(self, key) -> np.ndarray:
        site = key.as_tuple() if isinstance(key, WaveVector) else tuple(key)
        return self.data[self.lattice.site_index(site)].copy()

    def items(self):
        """Yield (WaveVector, amplitude) over the supported sites."""
        mags = self.magnitudes()
        for i in np.flatnonzero(mags > 0):
            s = self.lattice.sites[i]
            yield WaveVector(int(s[0]), int(s[1]), int(s[2])), self.data[i].copy()

    def magnitudes(self) -> np.ndarray:
        """Per-site complex Euclidean magnitude of the 3-vector amplitude."""
        return np.sqrt((self.data.real ** 2 + self.data.imag ** 2).sum(axis=1))

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.magnitudes() > 0))

    # -- algebra ------------------------------------------------------------

    def _check_same_lattice(self, other: "SpectralField"):
        if self.lattice != other.lattice:
            raise ValueError("fields live on different lattices")

    def __add__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_lattice(other)
        return SpectralField(self.lattice, self.data + other.data)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_lattice(other)
        return SpectralField(self.lattice, self.data - other.data)

    def __neg__(self) -> "SpectralField":
        return SpectralField(self.lattice, -self.data)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.lattice, self.data * complex(scalar))

    __rmul__ = __mul__

    def scaled_by_sites(self, factors: np.ndarray) -> "SpectralField":
        """Multiply each site amplitude by a per-site scalar factor."""
        return SpectralField(self.lattice, self.data * np.asarray(factors)[:, None])

    def allclose(self, other: "SpectralField", rtol=1e-12, atol=0.0) -> bool:
        self._check_same_lattice(other)
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    # -- invariant checks ----------------------------------------------------

    def max_divergence_ratio(self) -> float:
        """max over support of |<k, v(k)>| / (|k| |v(k)|); 0 for a zero field."""
        mags = self.magnitudes()
        mask = mags > 0
        if not mask.any():
            return 0.0
        dots = np.abs((self.lattice.sites_f[mask] * self.data[mask]).sum(axis=1))
        scale = mags[mask] * np.sqrt(self.lattice.norm_sq_f[mask])
        return float((dots / scale).max())

    def is_divergence_free(self, eps_div: float) -> bool:
        return self.max_divergence_ratio() <= eps_div

    def reality_defect(self) -> float:
        """max over sites of |v(-k) - conj(v(k))|; 0 means negation-symmetric."""
        perm = self.lattice.negation_permutation()
        diff = self.data[perm] - np.conj(self.data)
        return float(np.sqrt((diff.real ** 2 + diff.imag ** 2).sum(axis=1)).max(initial=0.0))


def phi_norm(f: SpectralField, alpha: float) -> float:
    """sup over supported k of |k|^alpha * |f(k)| (zero field maps to 0)."""
    mags = f.magnitudes()
    weights = f.lattice.norm_sq_f ** (alpha / 2.0)
    return float(np.max(weights * mags, initial=0.0))


def fmc_norm(f: SpectralField, m, c: float, beta: float) -> float:
    """Minimal C with |f(k)| <= C |k|^-beta exp(-c sqrt(m) |k|) on the lattice.

    Computed as sup_k |k|^beta exp(c sqrt(m) |k|) |f(k)| over the supported
    sites only: at large m the weight overflows to inf at large |k|, and inf
    times an empty site's zero would be nan. Requires beta > 3 and m, c > 0.
    """
    if beta <= 3:
        raise ValueError(f"beta must be > 3, got {beta}")
    if m <= 0 or c <= 0:
        raise ValueError("m and c must be positive")
    mags = f.magnitudes()
    supported = mags > 0
    q = f.lattice.norm_sq_f[supported]
    weights = q ** (beta / 2.0) * np.exp(c * np.sqrt(float(m)) * np.sqrt(q))
    return float(np.max(weights * mags[supported], initial=0.0))


def heat_multiply(f: SpectralField, t: float) -> SpectralField:
    """Scale each amplitude by exp(-t |k|^2); factors below the underflow
    floor are clamped to exact zero, removing the entry from the support."""
    if t < 0:
        raise ValueError(f"heat multiplier requires t >= 0, got {t}")
    factors = np.exp(-t * f.lattice.norm_sq_f)
    factors[factors < UNDERFLOW_FLOOR] = 0.0
    return f.scaled_by_sites(factors)
