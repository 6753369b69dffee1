"""Randomized hierarchical decomposition of a doubling point set, with the
cut / badly-cut / good-pair predicates defined on it.

The construction needs only pairwise distances, so it runs over a
MetricData (dense matrix) and therefore works for both Euclidean point sets
and abstract finite metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointSet, UflSolution, pair_stats
from .util import rng_from_seed


class MetricData:
    """Dense pairwise distances for points addressed by ids 0..n-1."""

    def __init__(self, matrix: np.ndarray, coords: np.ndarray | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        self.matrix = matrix
        self.coords = coords

    @classmethod
    def from_points(cls, X: PointSet) -> "MetricData":
        return cls(X.distance_matrix(), X.coords)

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
        """(gamma, Diam, Delta, l) from the matrix."""
        return pair_stats(self.matrix[~np.eye(self.n, dtype=bool)])


@dataclass
class Cluster:
    cid: int
    level: int
    center: int                 # net point that formed the cluster; -1 for the root
    parent: int                 # parent cluster id; -1 for the root
    members: np.ndarray         # point ids
    children: tuple[int, ...] = field(default_factory=tuple)


@dataclass
class HierarchicalDecomposition:
    """Levels 0..l+1 of nested random partitions at scales 2^i * gamma."""

    metric: MetricData
    seed: int
    rho: float                  # scaling factor, uniform in (1/2, 1)
    mu: np.ndarray              # mu[point id] = rank in the random permutation
    gamma: float
    diam: float
    ell: int
    nets: list[np.ndarray]      # N_0 .. N_ell, nested
    membership: np.ndarray      # (ell+2, n): cluster id of each point per level
    clusters: list[Cluster]     # indexed by cluster id
    levels: list[list[int]]     # cluster ids per level, creation order

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def num_levels(self) -> int:
        return self.ell + 2

    def rang(self, level: int) -> float:
        """Diameter budget 2^level * gamma of a cluster at the given level."""
        return (2.0 ** level) * self.gamma

    def ancestors(self, cid: int) -> list[int]:
        """Strict ancestors of a cluster, nearest first."""
        out = []
        cur = self.clusters[cid].parent
        while cur != -1:
            out.append(cur)
            cur = self.clusters[cur].parent
        return out

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.ell + 1:
            raise ValueError(f"level must lie in [0, {self.ell + 1}]")


def build_hierarchy(source, seed: int) -> HierarchicalDecomposition:
    """Randomly decompose the point set top-down: level i splits each level
    i+1 cluster by assigning every point to the first net point (in random
    permutation order) whose ball of radius rho * 2^(i-1) * gamma contains it.

    A point's level-i cluster is therefore fixed by its level-(i+1) cluster
    and its first covering net point alone, so each level is one stable
    grouping of all points by (parent id, mu-rank of that net point): cluster
    ids follow parents in ascending id, then net points in mu order, and
    members ascend.
    """
    md = MetricData.coerce(source)
    gamma, diam, _, ell = md.stats()
    n = md.n
    D = md.matrix

    rng = rng_from_seed(seed)
    rho = float(rng.uniform(0.5, 1.0))
    perm = rng.permutation(n)
    mu = np.empty(n, dtype=np.int64)
    mu[perm] = np.arange(n)

    nets = [np.arange(n)]
    for i in range(1, ell + 1):
        radius = (2.0 ** (i - 3)) * gamma
        prev = nets[-1]
        members: list[int] = []
        for p in prev:                       # ascending id: prev is sorted
            if not members or D[p, members].min() >= radius:
                members.append(int(p))
        nets.append(np.asarray(members, dtype=int))

    membership = np.full((ell + 2, n), -1, dtype=np.int64)
    clusters: list[Cluster] = []
    levels: list[list[int]] = [[] for _ in range(ell + 2)]

    root = Cluster(cid=0, level=ell + 1, center=-1, parent=-1, members=np.arange(n))
    clusters.append(root)
    levels[ell + 1] = [0]
    membership[ell + 1] = 0

    for i in range(ell, -1, -1):
        r_i = rho * (2.0 ** (i - 1)) * gamma
        net = nets[i][np.argsort(mu[nets[i]])]                # mu order
        within = (D <= r_i)[:, net]
        if not within.any(axis=1).all():
            raise AssertionError("net fails to cover a point at its level")
        rank = np.argmax(within, axis=1)                       # first covering net point
        parent = membership[i + 1]
        order = np.lexsort((rank, parent))                     # stable: ids ascend per run
        cuts = np.flatnonzero(np.diff(parent[order]) | np.diff(rank[order])) + 1
        first = len(clusters)
        for sub in np.split(order, cuts):
            cid, p = len(clusters), int(parent[sub[0]])
            clusters.append(Cluster(cid=cid, level=i, center=int(net[rank[sub[0]]]),
                                    parent=p, members=sub))
            clusters[p].children += (cid,)
            membership[i, sub] = cid
        levels[i] = list(range(first, len(clusters)))

    return HierarchicalDecomposition(
        metric=md, seed=int(seed), rho=rho, mu=mu, gamma=gamma, diam=diam,
        ell=ell, nets=nets, membership=membership, clusters=clusters, levels=levels)


# ---------------------------------------------------------------------------
# Cut predicates
# ---------------------------------------------------------------------------

def is_cut(H: HierarchicalDecomposition, x: int, y: int, level: int) -> bool:
    """True iff x and y lie in different clusters of the level-i partition."""
    H._check_level(level)
    return bool(H.membership[level, x] != H.membership[level, y])


def badly_cut_threshold(distance: float, eps: float, gamma: float, ddim: float) -> float:
    """The (real-valued) level above which a cut makes the pair badly cut."""
    return math.log2(ddim * distance / (eps * eps * gamma))


def is_badly_cut(H: HierarchicalDecomposition, x: int, y: int,
                 eps: float, ddim: float) -> bool:
    """True iff the pair is cut at some level i >= log2(ddim*d/(eps^2*gamma)).

    The degenerate x == y case returns False by convention. Levels above the
    root are vacuously uncut.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if ddim < 1.0:
        raise ValueError("ddim must be at least 1")
    if x == y:
        return False
    d = float(H.metric.matrix[x, y])
    first = max(0, math.ceil(badly_cut_threshold(d, eps, H.gamma, ddim)))
    for i in range(first, H.ell + 2):
        if H.membership[i, x] != H.membership[i, y]:
            return True
    return False


def is_good_pair(H: HierarchicalDecomposition, f0, x: int, y: int,
                 eps: float, ddim: float) -> bool:
    """True iff none of (x, y), (x, F0(x)), (y, F0(y)) is badly cut."""
    ids = f0_point_ids(f0, H.n)
    return not (is_badly_cut(H, x, y, eps, ddim)
                or is_badly_cut(H, x, int(ids[x]), eps, ddim)
                or is_badly_cut(H, y, int(ids[y]), eps, ddim))


def f0_point_ids(f0, n: int) -> np.ndarray:
    """Normalize a guiding solution to the (n,) array mapping each point to
    the id of its assigned facility (which must be a dataset point)."""
    if isinstance(f0, UflSolution):
        if f0.facility_ids is None:
            raise ValueError("guiding solution must have facilities in the dataset")
        ids = np.asarray(f0.facility_ids, dtype=int)[np.asarray(f0.assignment, dtype=int)]
    else:
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
    level-(i+1) cluster; empty for any correctly built decomposition."""
    bad = []
    for i in range(H.ell + 1):
        for x in range(H.n):
            cid = int(H.membership[i, x])
            if H.clusters[cid].parent != int(H.membership[i + 1, x]):
                bad.append((i, x))
    return bad


def check_diameters(H: HierarchicalDecomposition) -> list[int]:
    """Cluster ids whose diameter exceeds rang(C) = 2^level * gamma."""
    bad = []
    for c in H.clusters:
        if len(c.members) > 1:
            sub = H.metric.matrix[np.ix_(c.members, c.members)]
            if sub.max() > H.rang(c.level) * (1 + 1e-9):
                bad.append(c.cid)
    return bad


def dump_decomposition(H: HierarchicalDecomposition) -> str:
    """One line per cluster: 'level cluster_id parent_id center_id n: ids...'."""
    lines = []
    for c in H.clusters:
        ids = " ".join(str(int(i)) for i in c.members)
        lines.append(f"{c.level} {c.cid} {c.parent} {c.center} {len(c.members)}: {ids}")
    return "\n".join(lines) + "\n"
