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
convolution's gather table (operators.conv_kernel) for every difference
k - l of two sites (all of which lie in the cube), take a point's flat
position in its C order from one method, Lattice.position. Positions are
linear in the point, so k - l sits at position(k) - position(l) +
position(0).
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


class Lattice:
    """Built lattice: the ordered site table and the index cube it is read
    off. A Lattice holds geometry only; the convolution's gather table and
    work arrays are built and kept by operators.conv_kernel.

    sites (with sites_f, their float copy), norm_sq_f (|k|^2 as floats) and
    cube come from one meshgrid of the cube's points, whose C order is
    lexicographic. indices(points) maps an (..., 3) array of points to site
    indices, -1 for a point that is not a site; site_index does the same for
    one point and raises KeyError instead of returning -1.

    Two Lattice instances compare equal when their specs are equal; use
    get_lattice() to share one instance per spec.
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
        self.norm_sq_f = norm_sq[keep].astype(np.float64)

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
        return np.where(on_cube, self.cube.reshape(-1)[self.position(c)], -1)

    def position(self, points) -> np.ndarray:
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


@lru_cache(maxsize=None)
def get_lattice(spec: LatticeSpec) -> Lattice:
    """Shared Lattice instance per spec."""
    return Lattice(spec)
