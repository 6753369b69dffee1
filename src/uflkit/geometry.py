"""Point sets, Euclidean distances (`distances`), the UFL objective, the
greedy net builder (over a distance matrix, shared with the hierarchy) and
its check, aspect-ratio statistics, a doubling-dimension diagnostic, and
the text and binary point-set file formats.

The opening cost is fixed at 1; instances with a general opening cost f
should be pre-scaled by 1/f. All logarithms are base 2.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .util import COST_RTOL, ceil_log2

OPENING_COST = 1.0

_BINARY_MAGIC = b"UFLP"
_DDIM_SCALES = 8            # estimate_ddim's log-spaced radii
_DDIM_MAX_CENTERS = 256     # and its cap on sampled ball centers
_DIST_CELLS = 16384         # distances per distances() chunk: 128 KB per float temporary
_NET_CELLS = 65536          # distances per greedy_net block or gather: 512 KB of flat indices


class OracleScaleError(RuntimeError):
    """Raised when an exhaustive oracle is asked to exceed its size cap."""


def checked_coords(coords) -> np.ndarray:
    """coords as a float64 array, which must be (n, d) with n, d >= 1 and
    finite: PointSet's checks, which the solvers also apply to raw arrays."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] < 1 or coords.shape[1] < 1:
        raise ValueError("coords must be a (n, d) array with n, d >= 1")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coords must be finite")
    return coords


@dataclass(frozen=True)
class PointSet:
    """n points in R^d with ids 0..n-1 given by row order."""

    coords: np.ndarray

    def __post_init__(self):
        coords = checked_coords(self.coords)
        if coords is self.coords:       # the caller's own float64 array: freeze a copy
            coords = coords.copy()
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def distance_matrix(self) -> np.ndarray:
        return distances(self.coords)


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


def distances(A, B=None) -> np.ndarray:
    """Euclidean distances between the rows of A and of B (A when B is
    None), a (len(A), len(B)) matrix. Squared differences are summed in
    coordinate order, as scipy's cdist sums them, so the bytes are cdist's;
    rows go in chunks of at most _DIST_CELLS distances."""
    A = np.asarray(A, dtype=np.float64)
    B = A if B is None else np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    out = np.zeros((len(A), len(B)))
    BT = np.ascontiguousarray(B.T)              # (coordinate, row of B)
    rows = max(1, _DIST_CELLS // max(1, len(B)))
    diff = np.empty((min(rows, len(A)), len(B)))
    for lo in range(0, len(A), rows):
        acc = out[lo:lo + rows]
        d = diff[:len(acc)]
        for a, b in zip(A[lo:lo + rows].T, BT):
            np.subtract(a[:, None], b, out=d)
            np.multiply(d, d, out=d)
            acc += d
        np.sqrt(acc, out=acc)
    return out


def ufl_cost(X: PointSet, facilities, facility_ids=None) -> UflSolution:
    """Assign every point to its nearest facility (ties -> lowest facility
    index) and price the solution: |F| * 1 opening plus total connection."""
    F = np.atleast_2d(np.asarray(facilities, dtype=np.float64))
    if F.size == 0:
        raise ValueError("no facilities")
    if F.shape[1] != X.d:
        raise ValueError("facility dimension does not match point set")
    D = distances(X.coords, F)
    assignment = np.argmin(D, axis=1)          # argmin takes the first minimum
    connection = float(D[np.arange(X.n), assignment].sum())
    opening = OPENING_COST * len(F)
    ids = None if facility_ids is None else np.asarray(facility_ids, dtype=int)
    return UflSolution(facilities=F, assignment=assignment, opening_cost=opening,
                       connection_cost=connection, total=opening + connection,
                       facility_ids=ids)


def greedy_net(D: np.ndarray, ids, radius: float) -> np.ndarray:
    """Sequential greedy net over ids in ascending order, on the distance
    matrix D: a point x joins the net iff D[x, y] >= radius for every
    earlier member y. The ids are decided in chunks of
    b = max(1, _NET_CELLS // len(ids)) consecutive ids. A chunk's undecided
    ids decide from their own D[chunk, chunk] block: those with no earlier
    id of the chunk within radius join, those within radius of one of them
    are blocked, and the rest decide in order. Then one D[later, kept]
    gather blocks the later undecided ids within radius of the chunk's new
    members. A blocked id is never read again, and every comparison is the
    sequential net's. Returns the member ids, ascending."""
    if radius <= 0:
        raise ValueError("net radius must be positive")
    ids = np.sort(np.asarray(ids, dtype=int))
    width = D.shape[1]
    step = max(1, _NET_CELLS // max(1, len(ids)))
    free = np.ones(len(ids), dtype=bool)        # not blocked by a member
    net = [ids[:0]]
    for lo in range(0, len(ids), step):
        chunk = ids[lo:lo + step][free[lo:lo + step]]
        # near[a, c]: chunk[c] comes first and blocks chunk[a]; a take of
        # flat indices gathers faster than np.ix_
        near = np.take(D, chunk[:, None] * width + chunk) < radius
        near &= np.tri(len(chunk), k=-1, dtype=bool)
        keep = ~near.any(axis=1)
        blocked = (near & keep).any(axis=1)
        for a in np.flatnonzero(~(keep | blocked)):
            if not blocked[a]:
                keep[a] = True
                blocked |= near[:, a]
        net.append(chunk[keep])
        rest = free[lo + step:]                 # a view: writes reach free
        if len(net[-1]) and rest.any():
            later = ids[lo + step:][rest]
            rest[rest] = ~(np.take(D, later[:, None] * width + net[-1]) < radius).any(axis=1)
    return np.concatenate(net)


def check_net(D: np.ndarray, covered, net, radius: float,
              ddim: float | None = None) -> None:
    """Verify that the ids in net form a radius-packing that radius-covers
    the ids in covered, by direct scan of D; optionally also the packing
    cardinality bound |net| <= (2 Diam(covered) / radius)^ddim."""
    covered = np.asarray(covered, dtype=int)
    net = np.asarray(net, dtype=int)
    inter = D[np.ix_(net, net)]
    np.fill_diagonal(inter, np.inf)
    if inter.min(initial=np.inf) < radius * (1 - COST_RTOL):
        raise AssertionError("net violates packing")
    reach = D[np.ix_(covered, net)].min(axis=1, initial=np.inf)
    if reach.max(initial=0.0) > radius * (1 + COST_RTOL):
        raise AssertionError("net violates covering")
    if ddim is not None and len(covered) > 1:
        bound = (2.0 * D[np.ix_(covered, covered)].max() / radius) ** ddim
        if len(net) > bound * (1 + COST_RTOL):
            raise AssertionError(f"packing bound exceeded: {len(net)} > {bound}")


def pair_stats(D: np.ndarray) -> tuple[float, float, float, int]:
    """(gamma, Diam, Delta, l) from a distance matrix: its least positive
    entry, so copies of a point leave gamma to distinct pairs; its largest
    entry; the aspect ratio Diam/gamma; and l = ceil(log2 Delta). Raises
    when an entry is NaN or infinite (the max propagates both) or no two
    points differ."""
    diam = float(D.max(initial=0.0))
    if not np.isfinite(diam):
        raise ValueError("distance matrix holds non-finite distances")
    gamma = float(np.min(D, where=D > 0, initial=np.inf))
    if gamma == np.inf:
        raise ValueError("metric stats require two distinct points")
    delta = diam / gamma
    return gamma, diam, delta, max(0, ceil_log2(delta))


def estimate_ddim(X: PointSet) -> float:
    """Doubling-dimension estimate: the largest log2 of the greedy cover
    count of any ball B(x, r) by radius-r/2 balls, over log-spaced scales
    r in [gamma, Diam] and (a deterministic sample of) centers x.

    Diagnostic only; always in [0, log2 n].
    """
    D = X.distance_matrix()
    gamma, diam, _, _ = pair_stats(D)
    step = max(1, -(-X.n // _DDIM_MAX_CENTERS))
    best = 0.0
    for r in np.geomspace(gamma, diam, num=_DDIM_SCALES):
        for row in D[::step]:
            ball = np.flatnonzero(row <= r * (1 + COST_RTOL))
            count = len(greedy_net(D, ball, r / 2.0))
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
        header = fh.read(8)
        if len(header) < 8:
            raise ValueError("truncated UFLP binary file")
        n, d = struct.unpack("<II", header)
        data = np.frombuffer(fh.read(8 * n * d), dtype="<f8")
    if data.size != n * d:
        raise ValueError("truncated UFLP binary file")
    return PointSet(data.reshape(n, d).astype(np.float64))


def load_points(path) -> PointSet:
    """Load either format, sniffing the binary magic."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    return load_points_binary(path) if magic == _BINARY_MAGIC else load_points_text(path)
