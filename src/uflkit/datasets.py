"""Seeded generators for doubling-dimension-bounded test instances."""

from __future__ import annotations

import numpy as np

from .geometry import PointSet
from .util import rng_from_seed

KINDS = ("subspace", "clusters", "grid")


def generate_dataset(kind: str, n: int, d: int, intrinsic_dim: int,
                     seed: int) -> PointSet:
    """Build n points in R^d that live on an intrinsic_dim-dimensional
    subspace (embedded by a seeded random rotation), so the doubling
    dimension stays O(intrinsic_dim) regardless of d.

    kinds: "subspace" uniform cube, "clusters" well-separated Gaussian
    blobs, "grid" an exact lattice.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}; expected one of {KINDS}")
    if n < 1 or d < 1 or not 1 <= intrinsic_dim <= d:
        raise ValueError("need n >= 1 and 1 <= intrinsic_dim <= d")
    rng = rng_from_seed(seed)
    base = _base_points(kind, n, intrinsic_dim, rng)
    basis = _random_basis(d, intrinsic_dim, rng)
    return PointSet(base @ basis.T)


def _base_points(kind: str, n: int, t: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "subspace":
        return rng.random((n, t))
    if kind == "grid":
        side = 1
        while side ** t < n:
            side += 1
        axes = np.meshgrid(*([np.arange(side, dtype=np.float64)] * t), indexing="ij")
        lattice = np.stack([a.ravel() for a in axes], axis=1)
        return lattice[:n]
    blobs = max(2, min(8, n // 10 + 2))
    centers = rng.random((blobs, t)) * 20.0 * blobs
    labels = rng.integers(0, blobs, size=n)
    return centers[labels] + rng.normal(0.0, 0.05, size=(n, t))


def _random_basis(d: int, t: int, rng: np.random.Generator) -> np.ndarray:
    """(d, t) orthonormal columns; a seeded rotation of the subspace axes."""
    q, r = np.linalg.qr(rng.standard_normal((d, t)))
    return q * np.sign(np.diag(r))
