"""Integer wave-vector lattices underlying all spectral data.

Every field, operator and norm in this package is indexed by the sites of a
finite, negation-symmetric sublattice of Z^3 minus the origin. Sites are kept
in lexicographic order, so site indices, and every array laid out by them,
depend only on the lattice spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "TruncationRule",
    "LatticeSpec",
    "Lattice",
    "get_lattice",
]


class TruncationRule(str, Enum):
    """How the finite lattice is cut out of Z^3."""

    EUCLIDEAN_BALL = "euclidean_ball"  # kx^2 + ky^2 + kz^2 <= k_max^2
    SUP_CUBE = "sup_cube"              # max(|kx|, |ky|, |kz|) <= k_max


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


# Bytes of one row block of the convolution's (rows, N) complex matrices:
# small enough that a block of D = <k, u(m)> stays in cache while it is
# gathered into a block of A and multiplied.
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True, eq=False)
class _ConvTable:
    """Gather indices that build the lattice convolution's interaction
    matrix A[k, l] = <k, u(k-l)> one block of `rows` output sites at a time.

    For N sites, a block's rows r0 <= k < r1 are gathered from the flat D
    buffer of Lattice.conv_work, whose first (r1-r0)*N entries hold
    D[k, m] = <k, u(m)> for those rows and whose entry rows*N, the zero
    slot, is always 0: entry (k-r0)*N + l of the block's gather is
    (k-r0)*N + index(k-l) when k-l is a site, else rows*N. The blocks hold
    (r0, r1, gather) with gather an (r1-r0, N) view of one flat N*N array,
    so no (N, N) complex matrix is ever formed.
    """

    rows: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Lattice({self.spec.k_max}, {self.spec.truncation_rule.value}, sites={len(self)})"

    def site_index(self, site) -> int:
        return self.index[tuple(site)]

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
        """Work arrays reused by every convolution call: the flat D buffer of
        rows*N + 1 complex entries, whose last entry (the zero slot) stays
        0, and a (rows, N) block of the interaction matrix A, with
        rows = conv_table().rows.

        Reuse keeps each call free of fresh allocations, whose page faults
        would otherwise cost as much as the arithmetic. Only the first
        rows*N entries of the D buffer are ever written. Callers on one
        lattice must not overlap: bilinear is not thread-safe.
        """
        if self._conv_work is None:
            n, rows = len(self.sites), self.conv_table().rows
            self._conv_work = (np.zeros(rows * n + 1, dtype=np.complex128),
                               np.empty((rows, n), dtype=np.complex128))
        return self._conv_work

    def _build_conv_table(self) -> _ConvTable:
        k_max = self.spec.k_max
        n = len(self.sites)
        block = min(n, max(1, _BLOCK_BYTES // (16 * n)))
        # allocated first, then filled one row block at a time
        gather = np.empty(n * n, dtype=np.intp)
        # a cube of side 4 k_max + 1 holds every difference of two sites
        side = 4 * k_max + 1
        lookup = np.full((side, side, side), -1, dtype=np.intp)
        shifted = self.sites + 2 * k_max
        lookup[shifted[:, 0], shifted[:, 1], shifted[:, 2]] = np.arange(n)
        row_start = np.arange(block)[:, None] * n
        blocks = []
        for r0 in range(0, n, block):
            r1 = min(n, r0 + block)
            d = self.sites[r0:r1, None, :] - self.sites[None, :, :] + 2 * k_max
            mi = lookup[d[..., 0], d[..., 1], d[..., 2]]
            g = gather[r0 * n: r1 * n].reshape(r1 - r0, n)
            np.add(mi, row_start[: r1 - r0], out=g)
            g[mi < 0] = block * n   # the zero slot
            blocks.append((r0, r1, g))
        return _ConvTable(rows=block, blocks=tuple(blocks))


@lru_cache(maxsize=None)
def get_lattice(spec: LatticeSpec) -> Lattice:
    """Shared Lattice instance per spec (caches the convolution table)."""
    return Lattice(spec)
