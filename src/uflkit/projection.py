"""Gaussian random linear maps x -> (1/sqrt(m)) G x and the target-dimension
formula used by the approximation pipeline."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .util import rng_from_seed, snapped_ceil

_MAP_MAGIC = b"RLMG"


@dataclass(frozen=True)
class RandomLinearMap:
    """m x d matrix of i.i.d. standard normals, fully determined by the seed
    (PCG64 stream, Ziggurat normal sampling as implemented by numpy)."""

    matrix: np.ndarray
    m: int
    d: int
    seed: int

    def apply_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"dimension mismatch: expected ({self.d},), got {x.shape}")
        return self.matrix @ x / math.sqrt(self.m)

    def apply(self, X: PointSet) -> PointSet:
        if X.d != self.d:
            raise ValueError(f"dimension mismatch: map expects d={self.d}, got d={X.d}")
        return PointSet(X.coords @ self.matrix.T / math.sqrt(self.m))


def sample_map(d: int, m: int, seed: int) -> RandomLinearMap:
    """Draw the m x d Gaussian matrix for the given seed."""
    if d < 1 or m < 1:
        raise ValueError("both dimensions must be at least 1")
    G = rng_from_seed(seed).standard_normal((m, d))
    G.setflags(write=False)
    return RandomLinearMap(matrix=G, m=int(m), d=int(d), seed=int(seed))


def target_dim(eps: float, tau: float, c3: float = 2.0) -> int:
    """m = ceil(c3 * eps^-2 * (log2 tau + log2(1/eps))), at least 1.

    Values within 1e-8 of an integer snap down before the ceiling to absorb
    float rounding of the log terms.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if tau < 2.0:
        raise ValueError("tau must be at least 2")
    if c3 <= 0.0:
        raise ValueError("c3 must be positive")
    raw = c3 * eps ** -2 * (math.log2(tau) + math.log2(1.0 / eps))
    return max(1, snapped_ceil(raw))


def save_map(pi: RandomLinearMap, path) -> None:
    """Serialize as magic 'RLMG', u32 m, u32 d, u64 seed; the matrix is
    regenerated from the seed on load."""
    with open(path, "wb") as fh:
        fh.write(_MAP_MAGIC)
        fh.write(struct.pack("<IIQ", pi.m, pi.d, pi.seed))


def load_map(path) -> RandomLinearMap:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAP_MAGIC:
            raise ValueError("not a RLMG map file")
        m, d, seed = struct.unpack("<IIQ", fh.read(16))
    return sample_map(d=d, m=m, seed=seed)
