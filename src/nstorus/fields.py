"""Spectral velocity fields and the weighted sup-norms they are measured in.

A field maps each lattice site k to a complex 3-vector amplitude. Storage is
dense over the lattice site table (unsupported sites hold exact zeros), which
keeps every operation a vectorized array expression. Fields are immutable:
the backing array is non-writeable and all operations return new instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice

__all__ = [
    "SpectralField",
    "phi_norm",
    "fmc_norm",
    "UNDERFLOW_FLOOR",
]

# Multiplier factors below this are clamped to exact zero and the entry
# leaves the support, so supports stay sparse at large times.
UNDERFLOW_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Complex 3-vector amplitudes on the nonzero sites of a lattice.

    data[i] is the amplitude at lattice.sites[i]. The origin is never a
    site, so the zero-mode constraint holds structurally.
    """

    lattice: Lattice
    data: np.ndarray  # (N, 3) complex128, read-only

    def __post_init__(self):
        lat = self.lattice
        if not isinstance(lat, Lattice):
            raise TypeError(f"expected a Lattice, got {type(lat)!r}")
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.shape != (len(lat), 3):
            raise ValueError(f"data shape {arr.shape} does not match lattice size {len(lat)}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(lattice: Lattice) -> "SpectralField":
        return SpectralField(lattice, np.zeros((len(lattice), 3), dtype=np.complex128))

    @staticmethod
    def from_modes(lattice: Lattice, modes) -> "SpectralField":
        """Build a field from a {site: 3-vector} mapping; other sites are zero."""
        data = np.zeros((len(lattice), 3), dtype=np.complex128)
        for key, vec in modes.items():
            site = tuple(key)
            if site not in lattice.index:
                raise KeyError(f"site {site} is not on the lattice (k_max={lattice.spec.k_max})")
            data[lattice.index[site]] = np.asarray(vec, dtype=np.complex128)
        return SpectralField(lattice, data)

    # -- mapping-style access ------------------------------------------------

    def __getitem__(self, key) -> np.ndarray:
        return self.data[self.lattice.site_index(key)].copy()

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


def phi_norm(f, alpha: float, axis=None):
    """sup over supported k of |k|^alpha * |f(k)| (zero field maps to 0).

    f is a SpectralField, or a TimeSlicedField, whose sup then also runs
    over every grid slice; with axis=-1 it is one sup per slice instead,
    an (S+1,) array."""
    mags = f.magnitudes()
    weights = f.lattice.norm_sq_f ** (alpha / 2.0)
    sup = np.max(weights * mags, axis=axis, initial=0.0)
    return float(sup) if axis is None else sup


def fmc_norm(f, m, c: float, beta: float, axis=None):
    """Minimal C with |f(k)| <= C |k|^-beta exp(-c sqrt(m) |k|) on the lattice.

    Computed as sup_k |k|^beta exp(c sqrt(m) |k|) |f(k)| over the supported
    sites only: at large m the weight overflows to inf at large |k|, and inf
    times an empty site's zero would be nan. Requires beta > 3 and m, c > 0.
    f is a SpectralField, or a TimeSlicedField, whose sup then also runs
    over every grid slice; with axis=-1 it is one sup per slice instead,
    an (S+1,) array.
    """
    if beta <= 3:
        raise ValueError(f"beta must be > 3, got {beta}")
    if m <= 0 or c <= 0:
        raise ValueError("m and c must be positive")
    mags = f.magnitudes()
    supported = mags > 0
    q = f.lattice.norm_sq_f
    with np.errstate(over="ignore"):
        weights = q ** (beta / 2.0) * np.exp(c * np.sqrt(float(m)) * np.sqrt(q))
    weighted = np.multiply(weights, mags, out=np.zeros_like(mags), where=supported)
    sup = np.max(weighted, axis=axis, initial=0.0)
    return float(sup) if axis is None else sup
