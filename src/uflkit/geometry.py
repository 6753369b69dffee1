"""Point sets, Euclidean distances, the UFL objective, greedy nets, and
doubling-dimension diagnostics.

The opening cost is fixed at 1; instances with a general opening cost f
should be pre-scaled by 1/f. All logarithms are base 2.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .util import COST_RTOL, ceil_log2

OPENING_COST = 1.0

_BINARY_MAGIC = b"UFLP"


class OracleScaleError(RuntimeError):
    """Raised when an exhaustive oracle is asked to exceed its size cap."""


@dataclass(frozen=True)
class PointSet:
    """n points in R^d with ids 0..n-1 given by row order."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
            raise ValueError("coords must be a (n, d) array with n, d >= 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    @property
    def ids(self) -> np.ndarray:
        return np.arange(self.n)

    def distance_matrix(self) -> np.ndarray:
        return squareform(pdist(self.coords)) if self.n > 1 else np.zeros((1, 1))

    def subset(self, ids) -> np.ndarray:
        """Coordinate rows for the given ids."""
        return self.coords[np.asarray(ids, dtype=int)]


@dataclass(frozen=True)
class UflSolution:
    """Open facilities plus the point -> facility assignment and its cost."""

    facilities: np.ndarray            # (k, dim) coordinates
    assignment: np.ndarray            # (n,) facility index per point id
    opening_cost: float
    connection_cost: float
    total: float
    facility_ids: np.ndarray | None = field(default=None)  # set when facilities are dataset points

    def __post_init__(self):
        if self.facilities.ndim != 2 or len(self.facilities) == 0:
            raise ValueError("no facilities")
        if self.assignment.min(initial=0) < 0 or self.assignment.max(initial=0) >= len(self.facilities):
            raise ValueError("assignment refers to a nonexistent facility")
        if not np.isclose(self.total, self.opening_cost + self.connection_cost,
                          rtol=COST_RTOL, atol=1e-12):
            raise ValueError("total must equal opening_cost + connection_cost")

    @property
    def num_facilities(self) -> int:
        return len(self.facilities)

    def assigned_facility_id(self, point_id: int) -> int:
        """Dataset id of the facility serving point_id (facilities must lie in the dataset)."""
        if self.facility_ids is None:
            raise ValueError("solution facilities are not dataset points")
        return int(self.facility_ids[self.assignment[point_id]])

    def clusters(self) -> list[np.ndarray]:
        """Point ids grouped by assigned facility (empty groups dropped)."""
        groups = [np.flatnonzero(self.assignment == j) for j in range(self.num_facilities)]
        return [g for g in groups if len(g)]


def dist(p, q) -> float:
    """Euclidean distance between two coordinate vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(np.linalg.norm(p - q))


def ufl_cost(X: PointSet, facilities, facility_ids=None) -> UflSolution:
    """Assign every point to its nearest facility (ties -> lowest facility
    index) and price the solution: |F| * 1 opening plus total connection."""
    F = np.atleast_2d(np.asarray(facilities, dtype=np.float64))
    if F.size == 0:
        raise ValueError("no facilities")
    if F.shape[1] != X.d:
        raise ValueError("facility dimension does not match point set")
    D = cdist(X.coords, F)
    assignment = np.argmin(D, axis=1)          # argmin takes the first minimum
    connection = float(D[np.arange(X.n), assignment].sum())
    opening = OPENING_COST * len(F)
    ids = None if facility_ids is None else np.asarray(facility_ids, dtype=int)
    return UflSolution(facilities=F, assignment=assignment, opening_cost=opening,
                       connection_cost=connection, total=opening + connection,
                       facility_ids=ids)


@dataclass(frozen=True)
class Net:
    """A rho-net: members form a rho-packing that rho-covers the given subset."""

    radius: float
    members: np.ndarray     # ids, ascending
    covered: np.ndarray     # ids the net was built over

    def check(self, X: PointSet, ddim: float | None = None) -> None:
        """Verify packing and covering by direct scan; optionally the packing
        cardinality bound |members| <= (2 Diam / radius)^ddim."""
        mem = X.subset(self.members)
        if len(mem) > 1:
            inter = pdist(mem)
            if inter.min() < self.radius * (1 - COST_RTOL):
                raise AssertionError("net violates packing")
        if len(self.covered):
            D = cdist(X.subset(self.covered), mem)
            if D.min(axis=1).max() > self.radius * (1 + COST_RTOL):
                raise AssertionError("net violates covering")
        if ddim is not None and len(self.covered) > 1:
            diam = pdist(X.subset(self.covered)).max()
            bound = (2.0 * diam / self.radius) ** ddim
            if len(self.members) > bound * (1 + COST_RTOL):
                raise AssertionError(
                    f"packing bound exceeded: {len(self.members)} > {bound}")


def greedy_net(X: PointSet, subset, radius: float) -> Net:
    """Sequential greedy net over ids in ascending order: a point joins the
    net iff it is at distance >= radius from every current member."""
    if radius <= 0:
        raise ValueError("net radius must be positive")
    ids = np.sort(np.asarray(list(subset), dtype=int))
    members: list[int] = []
    member_coords: list[np.ndarray] = []
    for i in ids:
        p = X.coords[i]
        if members:
            dmin = np.linalg.norm(np.asarray(member_coords) - p, axis=1).min()
            if dmin < radius:
                continue
        members.append(int(i))
        member_coords.append(p)
    return Net(radius=float(radius), members=np.asarray(members, dtype=int), covered=ids)


def metric_stats(X: PointSet) -> tuple[float, float, float, int]:
    """(gamma, Diam, Delta, l): minimum pairwise distance, diameter, aspect
    ratio Diam/gamma, and l = ceil(log2 Delta)."""
    return pair_stats(pdist(X.coords))


def pair_stats(pair: np.ndarray) -> tuple[float, float, float, int]:
    """metric_stats from the distances between distinct points."""
    if len(pair) == 0:
        raise ValueError("metric stats require at least two points")
    gamma = float(pair.min())
    diam = float(pair.max())
    if gamma <= 0:
        raise ValueError("zero minimum distance")
    delta = diam / gamma
    return gamma, diam, delta, max(0, ceil_log2(delta))


def estimate_ddim(X: PointSet, scales: int = 8, max_centers: int = 256) -> float:
    """Doubling-dimension estimate: the largest log2 of the greedy cover
    count of any ball B(x, r) by radius-r/2 balls, over log-spaced scales
    r in [gamma, Diam] and (a deterministic sample of) centers x.

    Diagnostic only; always in [0, log2 n].
    """
    gamma, diam, _, _ = metric_stats(X)
    radii = np.geomspace(gamma, diam, num=max(1, scales))
    step = max(1, -(-X.n // max_centers))
    centers = np.arange(0, X.n, step)
    D = cdist(X.subset(centers), X.coords)
    best = 0.0
    for r in radii:
        half = r / 2.0
        for row in D:
            ball = np.flatnonzero(row <= r * (1 + COST_RTOL))
            count = len(greedy_net(X, ball, half).members)
            if count > 1:
                best = max(best, np.log2(count))
    return float(best)


# ---------------------------------------------------------------------------
# Point-set file formats.
#
# Text: first line "n d", then n lines of d space-separated decimal reals.
# Binary: magic "UFLP", u32 n, u32 d, then n*d little-endian f64, row-major.
# ---------------------------------------------------------------------------

def save_points_text(X: PointSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{X.n} {X.d}\n")
        for row in X.coords:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_points_text(path) -> PointSet:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError("point-set text file must start with 'n d'")
        n, d = int(header[0]), int(header[1])
        coords = np.loadtxt(io.StringIO(fh.read()), ndmin=2)
    if coords.shape != (n, d):
        raise ValueError(f"expected {n}x{d} coordinates, found {coords.shape}")
    return PointSet(coords)


def save_points_binary(X: PointSet, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(struct.pack("<II", X.n, X.d))
        fh.write(np.ascontiguousarray(X.coords, dtype="<f8").tobytes())


def load_points_binary(path) -> PointSet:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BINARY_MAGIC:
            raise ValueError("not a UFLP binary point-set file")
        n, d = struct.unpack("<II", fh.read(8))
        data = np.frombuffer(fh.read(8 * n * d), dtype="<f8")
    if data.size != n * d:
        raise ValueError("truncated UFLP binary file")
    return PointSet(data.reshape(n, d).astype(np.float64))


def load_points(path) -> PointSet:
    """Load either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return load_points_binary(path) if magic == _BINARY_MAGIC else load_points_text(path)
