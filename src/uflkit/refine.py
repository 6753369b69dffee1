"""Badly-cut elimination: at every level of a hierarchical decomposition,
move each point into its guiding facility's cluster when the level is high
enough to make the pair badly cut, and list the moves. The guiding solution
is the facility id of every point (`ptas.guiding_assignment`); the result
records it with eps and ddim, and every check reads them there. Each level
remains a partition; nesting across levels is deliberately not maintained.
Also the checks that the moves keep every cluster near its original and
leave no guided pair cut."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hierarchy import HierarchicalDecomposition, badly_cut_threshold, f0_point_ids
from .util import COST_RTOL


class Move(NamedTuple):
    level: int
    point: int
    from_cluster: int
    to_cluster: int


@dataclass
class RefinedDecomposition:
    """Per-level memberships after the moves; clusters keep their original
    ids, so there is a one-to-one cluster correspondence with the base."""

    base: HierarchicalDecomposition
    eps: float
    ddim: float
    f0_ids: np.ndarray           # guiding facility id per point
    membership: np.ndarray       # (ell+2, n) cluster id per point per level

    @property
    def moves(self) -> list[Move]:
        """Every (level, point) whose cluster differs from the base's,
        level-major with points ascending."""
        base = self.base.membership
        return [Move(int(level), int(x), int(base[level, x]), int(self.membership[level, x]))
                for level, x in zip(*np.nonzero(self.membership != base))]


def eliminate_badly_cut(H: HierarchicalDecomposition, f0, eps: float,
                        ddim: float) -> RefinedDecomposition:
    """Independently at every level, move each point x whose cluster differs
    from its guiding facility's cluster, provided the level is at or above
    log2(ddim * dist(x, F0(x)) / (eps^2 * gamma)); f0 holds F0(x) for
    every point id x.

    Guiding facilities never move, so every move reads the base membership
    and all levels are moved at once.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if ddim < 1.0:
        raise ValueError("ddim must be at least 1")
    ids = f0_point_ids(f0, H.n)
    thresholds = badly_cut_threshold(H.metric.matrix[np.arange(H.n), ids], eps, H.gamma, ddim)
    levels = np.arange(H.ell + 2)[:, None]
    membership = np.where(levels >= thresholds, H.membership[:, ids], H.membership)
    return RefinedDecomposition(base=H, eps=eps, ddim=ddim, f0_ids=ids,
                                membership=membership)


class ConsistencyReport(NamedTuple):
    violations: list[tuple[int, int, int, float, float]]  # level, cluster, point, dist, radius

    @property
    def ok(self) -> bool:
        return not self.violations


def consistency_check(T: RefinedDecomposition) -> ConsistencyReport:
    """Verify that every modified cluster stays within distance
    eps^2 * 2^level * gamma of its original cluster."""
    H = T.base
    violations = []
    for level, x, _, cid in T.moves:
        radius = T.eps ** 2 * H.rang(level)
        d = float(H.metric.matrix[x, H.members(cid)].min())
        if d > radius * (1 + COST_RTOL):
            violations.append((level, cid, x, d, radius))
    return ConsistencyReport(violations)


def check_guided_pairs_uncut(T: RefinedDecomposition) -> list[tuple[int, int]]:
    """(level, point) pairs, point-major, where a point and its guiding
    facility are still in different clusters at a level at or above their
    `badly_cut_threshold`; empty by construction. A point at distance 0
    from its facility (itself or a copy) qualifies at every level."""
    H, ids = T.base, T.f0_ids
    thr = badly_cut_threshold(H.metric.matrix[np.arange(H.n), ids], T.eps, H.gamma, T.ddim)
    bad = (np.arange(H.ell + 2) >= thr[:, None]) & (T.membership != T.membership[:, ids]).T
    return [(int(level), int(x)) for x, level in zip(*np.nonzero(bad))]
