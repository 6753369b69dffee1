"""Bottom-up partition of the dataset into parts whose local UFL value is
certified to sit above the threshold kappa, plus the verification predicates
for its structural guarantees (holes accounting, separation, consistency,
local value bounds). The predicates take the partition alone: the guiding
assignment, eps and ddim they check against are the ones its refined
decomposition was built with."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hierarchy import is_good_pair
from .refine import RefinedDecomposition
from .solvers import mp_ufl_value
from .geometry import OracleScaleError
from .util import COST_RTOL


class MatrixApproxHandle:
    """Ball-growing UFL approximation over a fixed distance matrix, used as
    the qualification test of the partition loop. c members cost at most
    2c - 1: a client at distance 0 pays any radius, so with opening cost 1
    every radius is at most 1, a blocked client lies within 2 of a kept one,
    and at least one facility opens. alpha is 6 (PtasConfig.tau reads it
    too): ball growing is 3-approximate against facilities at data points,
    and data points lose at most a factor 2 against ambient facilities."""

    alpha = 6.0

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def evaluate(self, members: np.ndarray, cluster_id: int) -> tuple[float, np.ndarray]:
        return mp_ufl_value(self.matrix, members)

    @staticmethod
    def cost_bound(size: np.ndarray) -> np.ndarray:
        return 2.0 * size - 1.0


@dataclass
class Part:
    index: int
    members: np.ndarray
    provenance: int              # cluster id in the refined/base decomposition
    level: int
    rang: float                  # 2^level * gamma of the provenance cluster
    approx_value: float          # certified cost at emission time
    facility_ids: np.ndarray     # facilities of the certifying solution
    is_last: bool


@dataclass
class LowValuePartition:
    refined: RefinedDecomposition
    kappa: float
    alpha: float
    parts: list[Part]
    holes: dict[int, list[int]] = field(default_factory=dict)   # part index -> hole part indices
    evaluations: int = 0         # handle evaluations the scan made
    bound_skips: int = 0         # evaluations the handle's cost bound ruled out

    @property
    def hierarchy(self):
        return self.refined.base

    def part_of_point(self) -> np.ndarray:
        out = np.full(self.hierarchy.n, -1, dtype=int)
        for p in self.parts:
            out[p.members] = p.index
        return out


def bottom_up_partition(T: RefinedDecomposition, kappa: float, approx) -> LowValuePartition:
    """Repeatedly emit the first cluster (lowest level, then lowest cluster
    id) whose surviving members have certified cost >= alpha * kappa, deleting
    its points everywhere; the remainder, if any, becomes the last part.

    approx has .alpha, .evaluate(members, cluster id) and .cost_bound(c), a
    bound on its cost for c members (2c - 1 for ball growing over the
    members, 3c over candidate sets that contain them), which the scan
    applies to an array of member counts at once: a cluster whose
    bound * (1 + COST_RTOL) is below the threshold fails unevaluated.

    The scan keeps two arrays, alive (points not yet emitted) and failed
    (per cluster, the current member set fails). It recounts members from
    the alive points' refined membership once per emission, and reads a
    cluster's members only to evaluate it. An emission clears failed only
    for the emitted points' clusters, as every other member set is
    unchanged; sets only shrink, so none is evaluated twice on one set.
    """
    if kappa < 1.0:
        raise ValueError("kappa must be at least 1")
    H = T.base
    alpha = float(approx.alpha)
    threshold = alpha * kappa * (1.0 - 1e-12)

    root = 0
    level = H.clusters.level
    scan = np.argsort(level, kind="stable")[:-1]   # by level, then id; not the root
    rows = T.membership[:H.ell + 1]                # refined levels below the root
    failed = np.zeros(len(H.clusters), dtype=bool)
    alive = np.ones(H.n, dtype=bool)
    out = LowValuePartition(refined=T, kappa=float(kappa), alpha=alpha, parts=[])

    while alive.any():
        # the open clusters in scan order; the first that qualifies is emitted
        # and every one before it fails, empty or ruled out by the bound
        sizes = np.bincount(rows[:, alive].ravel(), minlength=len(H.clusters))
        open_ = scan[~failed[scan]]
        nonempty = sizes[open_] > 0
        ruled = np.asarray(approx.cost_bound(sizes[open_])) * (1 + COST_RTOL) < threshold
        cid, stop = root, len(open_)
        for pos in np.flatnonzero(nonempty & ~ruled):
            c = int(open_[pos])
            got = np.flatnonzero(alive & (rows[level[c]] == c))
            out.evaluations += 1
            cost, fids = approx.evaluate(got, c)
            if cost >= threshold:
                cid, stop = c, pos
                break
        out.bound_skips += int(np.count_nonzero((nonempty & ruled)[:stop]))
        failed[open_[:stop]] = True
        if cid == root:
            got = np.flatnonzero(alive)
            out.evaluations += 1
            cost, fids = approx.evaluate(got, root)
        lv = int(level[cid])
        out.parts.append(Part(len(out.parts), got, cid, lv, H.rang(lv), cost, fids,
                              is_last=cid == root))
        alive[got] = False
        failed[rows[:, got]] = False

    out.holes = _compute_holes(out)
    return out


def _compute_holes(P: LowValuePartition) -> dict[int, list[int]]:
    """A part is a hole of the part whose provenance cluster is the
    lowest-level strict ancestor of its own provenance cluster."""
    H = P.hierarchy
    by_provenance: dict[int, int] = {}
    for p in P.parts:
        if p.provenance in by_provenance:
            raise AssertionError("two parts share a provenance cluster")
        by_provenance[p.provenance] = p.index
    holes: dict[int, list[int]] = {p.index: [] for p in P.parts}
    for p in P.parts:
        for anc in H.ancestors(p.provenance):                # nearest ancestor first
            if anc in by_provenance:
                holes[by_provenance[anc]].append(p.index)
                break
    return holes


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

class BoundsEntry(NamedTuple):
    part: int
    size: int
    value: float | None
    checked: bool
    lower_ok: bool | None        # None when the part is beyond the oracle's reach
    upper_ok: bool | None


class BoundsReport(NamedTuple):
    entries: list[BoundsEntry]
    kappa: float
    alpha: float                 # the approximation factor tau was computed with
    tau: float

    @property
    def ok(self) -> bool:
        """Every checked entry passes; unchecked ones count neither way."""
        return all(e.lower_ok and e.upper_ok for e in self.entries if e.checked)

    @property
    def unchecked(self) -> int:
        return sum(not e.checked for e in self.entries)


def tau_bound(ddim: float, alpha: float, kappa: float) -> float:
    """tau = 2^(10 ddim) * alpha * kappa, the paper's upper bound on a part's
    value for a partition scanned at threshold alpha * kappa."""
    return (2.0 ** (10.0 * ddim)) * alpha * kappa


def local_value_bounds_check(P: LowValuePartition, oracle) -> BoundsReport:
    """Check kappa <= opt(part) <= tau_bound(ddim, alpha, kappa), alpha and
    kappa the partition's and ddim its refinement's, with an exact (or
    near-exact) oracle that maps a part's member ids to its value, so any
    metric can be checked; the lower bound is skipped for the last part, and
    parts the oracle rejects with OracleScaleError are reported unchecked."""
    kappa = P.kappa
    tau = tau_bound(P.refined.ddim, P.alpha, kappa)
    entries = []
    for p in P.parts:
        try:
            value = float(oracle(p.members))
        except OracleScaleError:
            entries.append(BoundsEntry(p.index, len(p.members), None, False, None, None))
            continue
        lower_ok = p.is_last or value >= kappa * (1 - COST_RTOL)
        upper_ok = value <= tau * (1 + COST_RTOL)
        entries.append(BoundsEntry(p.index, len(p.members), value, True, lower_ok, upper_ok))
    return BoundsReport(entries, kappa, P.alpha, tau)


class PartitionCheckReport(NamedTuple):
    partition_ok: bool
    holes_total_ok: bool
    holes_disjoint_ok: bool
    approx_lower_ok: bool
    separation_violations: list[tuple[int, int, float, float]]
    consistency_violations: list[tuple[int, int, float, float]]
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return (self.partition_ok and self.holes_total_ok and self.holes_disjoint_ok
                and self.approx_lower_ok and not self.separation_violations
                and not self.consistency_violations)


def check_partition_invariants(P: LowValuePartition) -> tuple[bool, bool, bool, bool]:
    """(exact partition, sum of holes <= |parts|, holes disjoint,
    non-last parts certified >= alpha * kappa)."""
    n = P.hierarchy.n
    all_ids = np.concatenate([p.members for p in P.parts]) if P.parts else np.array([], int)
    partition_ok = len(all_ids) == n and np.array_equal(np.sort(all_ids), np.arange(n))
    total = sum(len(v) for v in P.holes.values())
    holes_total_ok = total <= len(P.parts)
    seen: set[int] = set()
    holes_disjoint_ok = True
    for v in P.holes.values():
        for idx in v:
            if idx in seen:
                holes_disjoint_ok = False
            seen.add(idx)
    approx_lower_ok = all(p.is_last or p.approx_value >= P.alpha * P.kappa * (1 - COST_RTOL)
                          for p in P.parts)
    return partition_ok, holes_total_ok, holes_disjoint_ok, approx_lower_ok


def partition_properties_check(P: LowValuePartition, pairs) -> PartitionCheckReport:
    """Verify the separation bounds on the supplied good pairs that fall in
    distinct parts, and the consistency radius for every part, at the
    guiding assignment, eps and ddim of the badly-cut elimination.

    Pairs in one part (or pairs that are not good) are skipped.
    """
    T = P.refined
    H = T.base
    eps, ddim = T.eps, T.ddim
    D = H.metric.matrix
    part_of = P.part_of_point()

    sep_viol: list[tuple[int, int, float, float]] = []
    checked = 0
    anc_cache = {p.provenance: set(H.ancestors(p.provenance)) for p in P.parts}
    for x, y in pairs:
        if part_of[x] == part_of[y]:
            continue
        if not is_good_pair(H, T.f0_ids, int(x), int(y), eps, ddim):
            continue
        checked += 1
        pa, pb = P.parts[part_of[x]], P.parts[part_of[y]]
        d = float(D[x, y])
        scale = eps * eps / ddim
        if pb.provenance in anc_cache[pa.provenance]:
            owner, descendant = pb, pa
        elif pa.provenance in anc_cache[pb.provenance]:
            owner, descendant = pa, pb
        else:
            bound = scale * max(pa.rang, pb.rang)
            if d < bound * (1 - COST_RTOL):
                sep_viol.append((int(x), int(y), d, bound))
            continue
        hole_rangs = [P.parts[h].rang for h in P.holes[owner.index]]
        if not any(d >= scale * r * (1 - COST_RTOL) for r in hole_rangs):
            bound = min((scale * r for r in hole_rangs), default=float("inf"))
            sep_viol.append((int(x), int(y), d, bound))

    cons_viol: list[tuple[int, int, float, float]] = []
    for p in P.parts:
        orig = H.members(p.provenance)
        radius = eps * eps * p.rang
        dmin = D[np.ix_(p.members, orig)].min(axis=1)
        for pos in np.flatnonzero(dmin > radius * (1 + COST_RTOL)):
            cons_viol.append((p.index, int(p.members[pos]), float(dmin[pos]), radius))

    part_ok, holes_total_ok, holes_disj_ok, approx_ok = check_partition_invariants(P)
    return PartitionCheckReport(part_ok, holes_total_ok, holes_disj_ok, approx_ok,
                                sep_viol, cons_viol, checked)


def partition_to_csv(P: LowValuePartition) -> str:
    buf = io.StringIO()
    buf.write("part_index,point_id,provenance_cluster,level,is_last\n")
    for p in P.parts:
        flag = "1" if p.is_last else "0"
        for x in p.members:
            buf.write(f"{p.index},{int(x)},{p.provenance},{p.level},{flag}\n")
    return buf.getvalue()
