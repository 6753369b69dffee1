"""Shared numeric helpers: tolerant ceilings and seed derivation."""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance for cost/distance comparisons throughout the package.
COST_RTOL = 1e-9


def snapped_ceil(value: float) -> int:
    """Ceiling that forgives float noise within 1e-8 of an integer."""
    return int(math.ceil(round(value, 8)))


def ceil_log2(value: float) -> int:
    """snapped_ceil(log2(value)) for value > 0."""
    if value <= 0:
        raise ValueError("ceil_log2 requires a positive argument")
    return snapped_ceil(math.log2(value))


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PRNG: PCG64 seeded deterministically."""
    return np.random.default_rng(int(seed))


def spawn_seeds(root_seed: int, n: int) -> list[int]:
    """Derive n child seeds from one root via numpy's SeedSequence splitting."""
    children = np.random.SeedSequence(int(root_seed)).spawn(n)
    return [int(c.generate_state(1, np.uint64)[0]) for c in children]


def format_float(value: float) -> str:
    """Shortest decimal that round-trips, for byte-stable text output."""
    return repr(float(value))
