"""Gaussian random linear maps x -> (1/sqrt(m)) G x, drawn from a seed, and
the target dimension m that `PtasConfig.m` derives for the Euclidean
pipeline's projection.

Only the distances of the image matter to the pipeline, and the image of
R^d spans at most min(m, d) dimensions. A map therefore keeps only a
min(m, d) x d factor F whose distances have the law of G's (see
`sample_map`), and `RandomLinearMap.embed` writes the image in min(m, d)
coordinates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PointSet
from .util import rng_from_seed, snapped_ceil


@dataclass(frozen=True)
class RandomLinearMap:
    """A Gaussian map pi(x) = G x / sqrt(m), G an m x d matrix of i.i.d.
    standard normals, kept as its min(m, d) x d factor `matrix` = F and
    fully determined by the seed (PCG64 stream, numpy's samplers): F = G
    when m <= d, and when m > d a d x d upper-triangular F with the law of
    the R in G = QR, so that |F(x - y)| has the joint law of |G(x - y)|.

    `embed` gives X F^T / sqrt(m). `apply` and `apply_vector` give the
    image in R^m, x -> [F; 0] x / sqrt(m): `embed`'s coordinates padded
    with m - min(m, d) zeros. For m > d that is pi(x) up to an isometry of
    R^m, so `embed` and `apply` are one map.
    """

    matrix: np.ndarray
    m: int
    d: int
    seed: int

    def apply_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.d,):
            raise ValueError(f"dimension mismatch: expected ({self.d},), got {x.shape}")
        return np.concatenate([self.matrix @ x / math.sqrt(self.m),
                               np.zeros(self.m - len(self.matrix))])

    def apply(self, X: PointSet) -> PointSet:
        """pi(X) in R^m: `embed(X)` padded with m - min(m, d) zero columns."""
        E = self.embed(X).coords
        return PointSet(np.pad(E, ((0, 0), (0, self.m - E.shape[1]))))

    def embed(self, X: PointSet) -> PointSet:
        """pi(X) up to an isometry, in min(m, d) coordinates: X F^T / sqrt(m)."""
        if X.d != self.d:
            raise ValueError(f"dimension mismatch: map expects d={self.d}, got d={X.d}")
        return PointSet(X.coords @ self.matrix.T / math.sqrt(self.m))


def sample_map(d: int, m: int, seed: int) -> RandomLinearMap:
    """Draw the map's factor F for the given seed.

    m <= d: F is the m x d Gaussian matrix G, one `standard_normal((m, d))`
    draw.

    m > d: F is drawn as the triangular factor R of G = QR, without G.
    Q has orthonormal columns, so |Gv| = |QRv| = |Rv| for every v: the
    map's distances are R's. By Bartlett's decomposition of the Wishart
    matrix G^T G = R^T R (Bartlett, 1933), R with its diagonal taken
    positive has independent entries, R_ij ~ N(0, 1) for i < j and
    R_ii = sqrt(chi^2(m - i)) for i = 0..d-1. A QR routine may return R
    with some negative diagonal entries instead; flipping the sign of a row
    of R is an isometry, so |Rv| does not depend on that choice. The
    generator first fills the strict upper triangle in row-major order
    from `standard_normal(d (d - 1) / 2)`, then the diagonal from
    `sqrt(chisquare(m - arange(d)))`. The cost is d (d + 1) / 2 draws and
    no factorisation, against m d draws and an O(m d^2) QR.
    """
    if d < 1 or m < 1:
        raise ValueError("both dimensions must be at least 1")
    rng = rng_from_seed(seed)
    if m <= d:
        F = rng.standard_normal((m, d))
    else:
        i = np.arange(d)
        F = np.zeros((d, d))
        F[i[:, None] < i] = rng.standard_normal(d * (d - 1) // 2)
        F[i, i] = np.sqrt(rng.chisquare(m - i))
    F.setflags(write=False)
    return RandomLinearMap(matrix=F, m=int(m), d=int(d), seed=int(seed))


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
