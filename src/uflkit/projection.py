"""Gaussian random linear maps x -> (1/sqrt(m)) G x, drawn from a seed, and
the target dimension m that `PtasConfig.m` derives for the Euclidean
pipeline's projection.

Only the distances of the image matter to the pipeline, and the image of
R^d spans at most min(m, d) dimensions: `RandomLinearMap.embed` writes it
in min(m, d) coordinates with every pairwise distance kept."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .util import rng_from_seed, snapped_ceil


@dataclass(frozen=True)
class RandomLinearMap:
    """m x d matrix of i.i.d. standard normals, fully determined by the seed
    (PCG64 stream, Ziggurat normal sampling as implemented by numpy).

    `apply` gives the image pi(X) in R^m. When m > d the image lies in the
    d-dimensional range of G = QR (Q with orthonormal columns, R d x d), so
    |pi(x) - pi(y)| = |R(x - y)| / sqrt(m) exactly and `embed` writes
    pi(X) in an orthonormal basis of that range: d coordinates per point.
    """

    matrix: np.ndarray
    m: int
    d: int
    seed: int

    def apply_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"dimension mismatch: expected ({self.d},), got {x.shape}")
        return self.matrix @ x / math.sqrt(self.m)

    def _coords(self, X: PointSet) -> np.ndarray:
        if X.d != self.d:
            raise ValueError(f"dimension mismatch: map expects d={self.d}, got d={X.d}")
        return X.coords

    def apply(self, X: PointSet) -> PointSet:
        return PointSet(self._coords(X) @ self.matrix.T / math.sqrt(self.m))

    def embed(self, X: PointSet) -> PointSet:
        """pi(X) up to an isometry, in min(m, d) coordinates: X R^T / sqrt(m)
        with R from the QR factorisation of G when m > d, `apply(X)` when
        m <= d."""
        if self.m <= self.d:
            return self.apply(X)
        R = np.linalg.qr(self.matrix, mode="r")
        return PointSet(self._coords(X) @ R.T / math.sqrt(self.m))


def sample_map(d: int, m: int, seed: int) -> RandomLinearMap:
    """Draw the m x d Gaussian matrix for the given seed."""
    if d < 1 or m < 1:
        raise ValueError("both dimensions must be at least 1")
    G = rng_from_seed(seed).standard_normal((m, d))
    G.setflags(write=False)
    return RandomLinearMap(matrix=G, m=int(m), d=int(d), seed=int(seed))


_C3 = 2.0       # the paper's c3, which need only be large enough; read at call time


def target_dim(eps: float, tau: float) -> int:
    """m = ceil(_C3 * eps^-2 * (log2 tau + log2(1/eps))), at least 1.

    Values within 1e-8 of an integer snap down before the ceiling to absorb
    float rounding of the log terms.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if tau < 2.0:
        raise ValueError("tau must be at least 2")
    raw = _C3 * eps ** -2 * (math.log2(tau) + math.log2(1.0 / eps))
    return max(1, snapped_ceil(raw))
