"""Integer wave-vector lattices underlying all spectral data.

Every field, operator and norm in this package is indexed by the sites of a
finite, negation-symmetric sublattice of Z^3 minus the origin. Sites are kept
in lexicographic order, so site indices, and every array laid out by them,
depend only on the lattice spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationRule",
    "WaveVector",
    "LatticeSpec",
    "Lattice",
    "build_lattice",
    "get_lattice",
]


class TruncationRule(str, Enum):
    """How the finite lattice is cut out of Z^3."""

    EUCLIDEAN_BALL = "euclidean_ball"  # kx^2 + ky^2 + kz^2 <= k_max^2
    SUP_CUBE = "sup_cube"              # max(|kx|, |ky|, |kz|) <= k_max


@dataclass(frozen=True, order=True)
class WaveVector:
    """Lattice site with its squared Euclidean norm cached exactly."""

    kx: int
    ky: int
    kz: int
    norm_sq: int = field(init=False, compare=False)

    def __post_init__(self):
        ns = self.kx * self.kx + self.ky * self.ky + self.kz * self.kz
        object.__setattr__(self, "norm_sq", ns)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.kx, self.ky, self.kz)

    def __neg__(self) -> "WaveVector":
        return WaveVector(-self.kx, -self.ky, -self.kz)

    @property
    def is_zero(self) -> bool:
        return self.norm_sq == 0


@dataclass(frozen=True)
class LatticeSpec:
    """Truncation radius and rule defining a finite lattice."""

    k_max: int
    truncation_rule: TruncationRule = TruncationRule.EUCLIDEAN_BALL

    def __post_init__(self):
        if int(self.k_max) != self.k_max or self.k_max < 1:
            raise ValueError(f"k_max must be a positive integer, got {self.k_max!r}")
        object.__setattr__(self, "k_max", int(self.k_max))
        object.__setattr__(self, "truncation_rule", TruncationRule(self.truncation_rule))


def _enumerate_sites(spec: LatticeSpec) -> np.ndarray:
    k = spec.k_max
    rng = np.arange(-k, k + 1, dtype=np.int64)
    kx, ky, kz = np.meshgrid(rng, rng, rng, indexing="ij")
    sites = np.column_stack([kx.ravel(), ky.ravel(), kz.ravel()])
    norm_sq = (sites * sites).sum(axis=1)
    if spec.truncation_rule is TruncationRule.EUCLIDEAN_BALL:
        keep = norm_sq <= k * k
    else:
        keep = np.abs(sites).max(axis=1) <= k
    keep &= norm_sq > 0
    # meshgrid with ij indexing already yields lexicographic order
    return np.ascontiguousarray(sites[keep])


@dataclass(frozen=True, eq=False)
class _ConvTable:
    """Flat indices of the lattice convolution's pairs (k, l), k-l a site.

    For N sites, pair p scatters entry src[p] = ki*N + mi of the flattened
    (N, N) matrix D[k, m] = <k, u(m)> to entry dest[p] = ki*N + li of the
    flattened interaction matrix A[k, l] = <k, u(k-l)>, where mi is the index
    of k-l. Pairs are in row-major order of A, so dest is strictly increasing.
    """

    dest: np.ndarray
    src: np.ndarray


class Lattice:
    """Built lattice: ordered site table plus cached convolution pairings
    and work matrices.

    Two Lattice instances compare equal when their specs are equal; use
    get_lattice() to share one instance (and its caches) per spec.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        sites = _enumerate_sites(spec)
        self.sites = sites
        self.sites_f = sites.astype(np.float64)
        self.norm_sq = (sites * sites).sum(axis=1)
        self.norm_sq_f = self.norm_sq.astype(np.float64)
        self.index = {tuple(s): i for i, s in enumerate(sites.tolist())}
        self._conv: _ConvTable | None = None
        self._conv_work: tuple[np.ndarray, np.ndarray] | None = None
        self._negation: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sites)

    @property
    def size(self) -> int:
        return len(self.sites)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Lattice({self.spec.k_max}, {self.spec.truncation_rule.value}, sites={len(self)})"

    def contains(self, site) -> bool:
        return tuple(site) in self.index

    def site_index(self, site) -> int:
        return self.index[tuple(site)]

    def wavevectors(self) -> tuple[WaveVector, ...]:
        return tuple(WaveVector(*s) for s in self.sites.tolist())

    def negation_permutation(self) -> np.ndarray:
        """Index array p with sites[p[i]] == -sites[i]."""
        if self._negation is None:
            perm = np.array([self.index[(-x, -y, -z)] for x, y, z in self.sites.tolist()],
                            dtype=np.int64)
            self._negation = perm
        return self._negation

    def conv_table(self) -> _ConvTable:
        if self._conv is None:
            self._conv = self._build_conv_table()
        return self._conv

    def conv_work(self) -> tuple[np.ndarray, np.ndarray]:
        """Two (N, N) complex work matrices reused by every convolution call.

        Reuse keeps each call free of fresh allocations, whose page faults
        would otherwise cost as much as the arithmetic. The second matrix is
        written only at conv_table().dest and so stays zero elsewhere.
        Callers on one lattice must not overlap: bilinear is not thread-safe.
        """
        if self._conv_work is None:
            n = len(self.sites)
            self._conv_work = (np.empty((n, n), dtype=np.complex128),
                               np.zeros((n, n), dtype=np.complex128))
        return self._conv_work

    def _build_conv_table(self) -> _ConvTable:
        k_max = self.spec.k_max
        n = len(self.sites)
        side = 2 * k_max + 1
        lookup = np.full((side, side, side), -1, dtype=np.int64)
        shifted = self.sites + k_max
        lookup[shifted[:, 0], shifted[:, 1], shifted[:, 2]] = np.arange(n)

        dest_parts, src_parts = [], []
        chunk = max(1, min(n, 512))
        for a in range(0, n, chunk):
            b = min(n, a + chunk)
            d = self.sites[a:b, None, :] - self.sites[None, :, :]
            inside = (np.abs(d) <= k_max).all(axis=2)
            rows, cols = np.nonzero(inside)
            dd = d[rows, cols] + k_max
            mi = lookup[dd[:, 0], dd[:, 1], dd[:, 2]]
            keep = mi >= 0
            row_start = (rows[keep] + a) * n
            dest_parts.append(row_start + cols[keep])
            src_parts.append(row_start + mi[keep])
        return _ConvTable(dest=np.concatenate(dest_parts), src=np.concatenate(src_parts))


@lru_cache(maxsize=None)
def get_lattice(spec: LatticeSpec) -> Lattice:
    """Shared Lattice instance per spec (caches the convolution table)."""
    return Lattice(spec)


def build_lattice(spec: LatticeSpec) -> tuple[WaveVector, ...]:
    """All nonzero sites inside the truncation region, lexicographic order.

    The returned sequence is closed under negation and never contains the
    origin; an empty truncation region is rejected at LatticeSpec level.
    """
    return get_lattice(spec).wavevectors()
