"""Integer wave-vector lattices underlying all spectral data.

Every field, operator and norm in this package is indexed by the sites of a
finite, negation-symmetric sublattice of Z^3 minus the origin. Sites are kept
in lexicographic order, so site indices, and every array laid out by them,
depend only on the lattice spec. Negation reverses that order on a set
closed under it, so site N-1-i is -(site i): reversing an array's site axis
pairs each site with its negative.

The one map from points back to sites is the lattice's index cube: the
(4 k_max + 1)^3 array over the integer points with every coordinate in
[-2 k_max, 2 k_max], holding each site's index and -1 at every other point.
Both readers of the cube, Lattice.indices for any array of points and the
convolution table for every difference k - l of two sites (all of which lie
in the cube), take a point's flat position in its C order from one helper,
Lattice._position. Positions are linear in the point, so k - l sits at
position(k) - position(l) + position(0).

The convolution table pairs each output row i < N/2 with its mirror row
N-1-i in one block: D[k, m] = <k, u(m)> is linear in k, so D's row N-1-i
is -D[i], and the mirror row is gathered, negated, from the D rows the
block forms for the rows i. The blocks end at N/2 by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

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


# Bytes of one block of the convolution's interaction matrix A, (2 rows, N)
# complex for `rows` row pairs: small enough that a block of D = <k, u(m)>
# stays in cache while it is gathered into a block of A and multiplied.
_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True, eq=False)
class _ConvTable:
    """Gather indices that build the lattice convolution's interaction
    matrix A[k, l] = <k, u(k-l)> one block of `rows` pairs of output sites
    at a time.

    For N sites, a block pairs the rows r0 <= i < r1 <= N/2 with their
    mirror rows N-r1 <= j < N-r0. Site N-1-i is -(site i) and
    D[k, m] = <k, u(m)> is linear in k, so D[N-1-i] = -D[i] exactly, and
    both halves are gathered from D's rows r0..r1-1 alone: the flat D
    buffer of Lattice.conv_work holds them in its first (r1-r0)*N entries,
    and its entry rows*N, the zero slot, is always 0. A block's gather is a
    (2 (r1-r0), N) view of one flat N*N array. Its first half gathers the
    rows i from D row i-r0; its second half gathers the mirror rows j, in
    order, from D row N-1-j-r0, that is -A[j, :]. Entry l of a row for site
    p is (D row)*N + index(p - sites[l]), with index read from the
    flattened index cube at the flat position of p - sites[l], or rows*N
    when p - sites[l] is not a site. The blocks hold (r0, r1, gather) and
    end at N/2; together they cover all N*N pairs once, and no (N, N)
    complex matrix is ever formed.
    """

    rows: int
    blocks: tuple[tuple[int, int, np.ndarray], ...]


class Lattice:
    """Built lattice: the ordered site table, the index cube it is read off,
    and the cached convolution pairings and work matrices.

    sites, norm_sq and cube come from one meshgrid of the cube's points,
    whose C order is lexicographic. indices(points) maps an (..., 3) array
    of points to site indices, -1 for a point that is not a site; site_index
    does the same for one point and raises KeyError instead of returning -1.

    Two Lattice instances compare equal when their specs are equal; use
    get_lattice() to share one instance (and its caches) per spec.
    """

    def __init__(self, spec: LatticeSpec):
        self.spec = spec
        k = spec.k_max
        # a cube of side 4 k_max + 1 holds every difference of two sites
        axis = np.arange(-2 * k, 2 * k + 1, dtype=np.int64)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        norm_sq = (grid * grid).sum(axis=-1)
        ball = spec.truncation_rule is TruncationRule.EUCLIDEAN_BALL
        keep = (norm_sq > 0) & ((norm_sq <= k * k) if ball else (np.abs(grid).max(axis=-1) <= k))
        # the grid's C order is lexicographic, so boolean indexing keeps it
        self.cube = np.full(keep.shape, -1, dtype=np.intp)
        self.cube[keep] = np.arange(np.count_nonzero(keep))
        self.sites = grid[keep]
        self.sites_f = self.sites.astype(np.float64)
        self.norm_sq = norm_sq[keep]
        self.norm_sq_f = self.norm_sq.astype(np.float64)

    def __len__(self) -> int:
        return len(self.sites)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Lattice({self.spec.k_max}, {self.spec.truncation_rule.value}, sites={len(self)})"

    def indices(self, points) -> np.ndarray:
        """Site index of each point of an (..., 3) array, -1 where the point
        is not a site: off the lattice, outside the cube or not integral."""
        points = np.asarray(points)
        shift = 2 * self.spec.k_max
        on_cube = ((points >= -shift) & (points <= shift)
                   & (points == np.floor(points))).all(axis=-1)
        c = np.where(on_cube[..., None], points, 0).astype(np.intp)
        return np.where(on_cube, self.cube.reshape(-1)[self._position(c)], -1)

    def _position(self, points) -> np.ndarray:
        """Flat position in the index cube of each point of an (..., 3)
        integer array whose coordinates lie in [-2 k_max, 2 k_max]."""
        shift, side = 2 * self.spec.k_max, self.cube.shape[0]
        c = points + shift
        return (c[..., 0] * side + c[..., 1]) * side + c[..., 2]

    def site_index(self, site) -> int:
        i = int(self.indices(site))
        if i < 0:
            raise KeyError(f"site {tuple(site)} is not on the lattice (k_max={self.spec.k_max})")
        return i

    @cached_property
    def conv_table(self) -> _ConvTable:
        """The convolution's gather table, built on first use: a block's
        flat positions of k - l are one subtraction, written into its rows
        of the gather array and read back by one take from the flat cube."""
        n = len(self.sites)
        half = n // 2   # sites come in pairs (k, -k), so n is even
        block = min(half, max(1, _BLOCK_BYTES // (32 * n)))
        cube = self.cube.reshape(-1)
        pos = self._position(self.sites)
        # position(k - l) = position(k) - (position(l) - position(0))
        pos_l = pos - self._position(np.zeros(3, dtype=np.intp))
        # allocated first, then filled one block of row pairs at a time
        gather = np.empty(n * n, dtype=np.intp)
        blocks = []
        for r0 in range(0, half, block):
            r1 = min(half, r0 + block)
            b = r1 - r0
            g = gather[2 * r0 * n: 2 * r1 * n].reshape(2 * b, n)
            # rows r0..r1-1, then their mirror rows n-r1..n-r0-1
            np.subtract(np.r_[pos[r0:r1], pos[n - r1:n - r0]][:, None], pos_l, out=g)
            mi = cube.take(g)
            # the D row each reads: i - r0, then n-1-j-r0 for mirror row j
            d_row = np.r_[np.arange(b), np.arange(b - 1, -1, -1)]
            np.add(mi, (d_row * n)[:, None], out=g)
            g[mi < 0] = block * n   # the zero slot
            blocks.append((r0, r1, g))
        return _ConvTable(rows=block, blocks=tuple(blocks))

    @cached_property
    def conv_work(self) -> tuple[np.ndarray, np.ndarray]:
        """Work arrays reused by every convolution call: the flat D buffer of
        rows*N + 1 complex entries, whose last entry (the zero slot) stays
        0, and a (2 rows, N) block of the interaction matrix A (a block's
        rows and their mirror rows), with rows = conv_table.rows.

        Reuse keeps each call free of fresh allocations, whose page faults
        would otherwise cost as much as the arithmetic. Only the first
        rows*N entries of the D buffer are ever written. Callers on one
        lattice must not overlap: bilinear is not thread-safe.
        """
        n, rows = len(self.sites), self.conv_table.rows
        return (np.zeros(rows * n + 1, dtype=np.complex128),
                np.empty((2 * rows, n), dtype=np.complex128))


@lru_cache(maxsize=None)
def get_lattice(spec: LatticeSpec) -> Lattice:
    """Shared Lattice instance per spec (caches the convolution table)."""
    return Lattice(spec)
