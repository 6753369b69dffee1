"""Randomized hierarchical decomposition of a doubling point set, with the
cut / badly-cut / good-pair predicates defined on it.

The construction needs only pairwise distances, so it runs over a
MetricData (dense matrix) and therefore works for both Euclidean point sets
and abstract finite metrics. A decomposition is two arrays: the (levels, n)
membership matrix, from which members are read, and one table row (level,
parent, center) per cluster id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointSet, greedy_net, pair_stats
from .util import COST_RTOL, rng_from_seed


class MetricData:
    """Dense pairwise distances for points addressed by ids 0..n-1. Every
    self-distance is exactly 0: gamma, the least positive distance, would
    read noise there and leave each point outside its own level-0 ball."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        if np.diag(matrix).any():
            raise ValueError("distance matrix has a nonzero self-distance")
        self.matrix = matrix

    @classmethod
    def from_points(cls, X: PointSet) -> "MetricData":
        return cls(X.distance_matrix())

    @classmethod
    def coerce(cls, source) -> "MetricData":
        if isinstance(source, MetricData):
            return source
        if isinstance(source, PointSet):
            return cls.from_points(source)
        raise TypeError("expected a PointSet or MetricData")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def stats(self) -> tuple[float, float, float, int]:
        """(gamma, Diam, Delta, l) of the matrix as it is (`pair_stats`):
        gamma is its least positive distance, so copies of a point count
        once."""
        return pair_stats(self.matrix)


@dataclass
class HierarchicalDecomposition:
    """Levels 0..l+1 of nested random partitions at scales 2^i * gamma.

    membership[i, x] is the id of point x's level-i cluster, and it is the
    only record of members: cluster C's members are the points whose entry
    in row level(C) is C, read off in ascending order. clusters holds one
    row per cluster id, with columns level, parent (-1 for the root) and
    center (the net point that formed the cluster, -1 for the root). The
    root is id 0 at level l+1; ids are contiguous within a level, and the
    level falls as the id grows.
    """

    metric: MetricData
    rho: float                  # scaling factor, uniform in (1/2, 1)
    gamma: float
    ell: int
    nets: list[np.ndarray]      # N_0 .. N_ell, nested
    membership: np.ndarray      # (ell+2, n): cluster id of each point per level
    clusters: np.recarray       # indexed by cluster id: level, parent, center

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def num_levels(self) -> int:
        return self.ell + 2

    def rang(self, level: int) -> float:
        """Diameter budget 2^level * gamma of a cluster at the given level."""
        return (2.0 ** level) * self.gamma

    def members(self, cid: int) -> np.ndarray:
        """Point ids of a cluster, ascending."""
        return np.flatnonzero(self.membership[self.clusters.level[cid]] == cid)

    def ancestors(self, cid: int) -> list[int]:
        """Strict ancestors of a cluster, nearest first."""
        out = [int(self.clusters.parent[cid])]
        while out[-1] != -1:
            out.append(int(self.clusters.parent[out[-1]]))
        return out[:-1]

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.ell + 1:
            raise ValueError(f"level must lie in [0, {self.ell + 1}]")


def group_members(H: HierarchicalDecomposition) -> list[np.ndarray]:
    """Point ids of every cluster, by cluster id, ascending, from one stable
    grouping of the membership."""
    ids = H.membership.ravel()
    order = np.argsort(ids, kind="stable")
    return np.split(order % H.n, np.searchsorted(ids[order], np.arange(1, len(H.clusters))))


def build_hierarchy(source, seed: int) -> HierarchicalDecomposition:
    """Randomly decompose the point set top-down: level i splits each level
    i+1 cluster by assigning every point to the first net point (in random
    permutation order) whose ball of radius rho * 2^(i-1) * gamma contains it.

    A point's level-i cluster is therefore fixed by its level-(i+1) cluster
    and its first covering net point alone, so each level is one stable
    grouping of all points by (parent id, mu-rank of that net point): cluster
    ids follow parents in ascending id, then net points in mu order.

    Levels 1-3 have net radius 2^(i-3) * gamma <= gamma, the least positive
    distance, so no two distinct points block each other and they reuse N_0.
    Levels 0-3 thus keep every copy of a point in their nets, but copies
    have identical distance rows and share every cluster, so no cluster
    changes.
    """
    md = MetricData.coerce(source)
    gamma, _, _, ell = md.stats()
    n = md.n
    D = md.matrix

    rng = rng_from_seed(seed)
    rho = float(rng.uniform(0.5, 1.0))
    perm = rng.permutation(n)
    mu = np.empty(n, dtype=np.int64)
    mu[perm] = np.arange(n)

    nets = [np.arange(n)]
    for i in range(1, ell + 1):
        nets.append(nets[0] if i <= 3 else greedy_net(D, nets[-1], (2.0 ** (i - 3)) * gamma))

    membership = np.zeros((ell + 2, n), dtype=np.int64)    # the root, id 0, holds every point
    table = [([ell + 1], [-1], [-1])]                      # level, parent, center columns
    for i in range(ell, -1, -1):
        r_i = rho * (2.0 ** (i - 1)) * gamma
        net = nets[i][np.argsort(mu[nets[i]])]                # mu order
        within = (D <= r_i)[:, net]
        if not within.any(axis=1).all():
            raise AssertionError("net fails to cover a point at its level")
        rank = np.argmax(within, axis=1)                       # first covering net point
        parent = membership[i + 1]
        order = np.lexsort((rank, parent))                     # stable: ids ascend per run
        start = np.r_[True, (np.diff(parent[order]) | np.diff(rank[order])) != 0]
        membership[i, order] = parent.max() + np.cumsum(start)  # ids follow the level above's
        heads = order[start]                                   # first member of each cluster
        table.append((np.full(len(heads), i), parent[heads], net[rank[heads]]))

    clusters = np.rec.fromarrays([np.concatenate(col) for col in zip(*table)],
                                 names="level,parent,center")
    return HierarchicalDecomposition(metric=md, rho=rho, gamma=gamma, ell=ell, nets=nets,
                                     membership=membership, clusters=clusters)


# ---------------------------------------------------------------------------
# Cut predicates
# ---------------------------------------------------------------------------

def is_cut(H: HierarchicalDecomposition, x: int, y: int, level: int) -> bool:
    """True iff x and y lie in different clusters of the level-i partition."""
    H._check_level(level)
    return bool(H.membership[level, x] != H.membership[level, y])


def badly_cut_threshold(distance, eps: float, gamma: float, ddim: float):
    """The real-valued level log2(ddim * distance / (eps^2 * gamma)) at and
    above which a cut makes a pair at that distance badly cut, elementwise
    over distance; -inf at distance 0, since copies share every cluster."""
    with np.errstate(divide="ignore"):
        return np.log2(ddim * np.asarray(distance) / (eps * eps * gamma))


def is_badly_cut(H: HierarchicalDecomposition, x: int, y: int,
                 eps: float, ddim: float) -> bool:
    """True iff the pair is cut at some level i >= log2(ddim*d/(eps^2*gamma)).

    Clusters nest, so that holds iff the pair is cut at the first such level
    (the root's, l+1, when the threshold lies above it: the root cuts
    nothing). A pair at distance 0 shares every cluster, so it is never cut.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if ddim < 1.0:
        raise ValueError("ddim must be at least 1")
    thr = badly_cut_threshold(H.metric.matrix[x, y], eps, H.gamma, ddim)
    level = int(np.clip(np.ceil(thr), 0, H.ell + 1))
    return bool(H.membership[level, x] != H.membership[level, y])


def is_good_pair(H: HierarchicalDecomposition, f0, x: int, y: int,
                 eps: float, ddim: float) -> bool:
    """True iff none of (x, y), (x, F0(x)), (y, F0(y)) is badly cut, f0 the
    guiding facility id of every point."""
    ids = f0_point_ids(f0, H.n)
    return not (is_badly_cut(H, x, y, eps, ddim)
                or is_badly_cut(H, x, int(ids[x]), eps, ddim)
                or is_badly_cut(H, y, int(ids[y]), eps, ddim))


def f0_point_ids(f0, n: int) -> np.ndarray:
    """The guiding assignment f0 as an (n,) int array mapping each point to
    the id of its facility, checked to map every point and to fix every
    facility."""
    ids = np.asarray(f0, dtype=int)
    if ids.shape != (n,):
        raise ValueError("guiding assignment must map every point id")
    if not np.array_equal(ids[ids], ids):
        raise ValueError("guiding assignment must be idempotent (facilities map to themselves)")
    return ids


# ---------------------------------------------------------------------------
# Structural checks and debug dump
# ---------------------------------------------------------------------------

def check_nesting(H: HierarchicalDecomposition) -> list[tuple[int, int]]:
    """(level, point) pairs whose level-i cluster is not a child of their
    level-(i+1) cluster, level-major; empty for any correctly built
    decomposition."""
    bad = H.clusters.parent[H.membership[:-1]] != H.membership[1:]
    return [(int(i), int(x)) for i, x in zip(*np.nonzero(bad))]


def check_diameters(H: HierarchicalDecomposition) -> list[int]:
    """Cluster ids whose diameter exceeds rang(C) = 2^level * gamma."""
    bad = []
    for cid, members in enumerate(group_members(H)):
        if len(members) > 1:
            sub = H.metric.matrix[np.ix_(members, members)]
            if sub.max() > H.rang(H.clusters.level[cid]) * (1 + COST_RTOL):
                bad.append(cid)
    return bad


def dump_decomposition(H: HierarchicalDecomposition) -> str:
    """One line per cluster: 'level cluster_id parent_id center_id n: ids...'."""
    lines = []
    rows = zip(H.clusters.tolist(), group_members(H))
    for cid, ((level, parent, center), members) in enumerate(rows):
        ids = " ".join(map(str, members.tolist()))
        lines.append(f"{level} {cid} {parent} {center} {len(members)}: {ids}")
    return "\n".join(lines) + "\n"
