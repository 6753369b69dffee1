import os
from pathlib import Path

import numpy as np
import pytest

from uflkit.geometry import PointSet

# CLI tests run `python -m uflkit.cli` in subprocesses: give them this
# source tree as well, so the suite needs no PYTHONPATH or install.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def line(*positions) -> PointSet:
    return PointSet(np.asarray(positions, dtype=np.float64)[:, None])


def random_points(rng, n, d=2, scale=1.0) -> PointSet:
    return PointSet(rng.random((n, d)) * scale)
