"""Bottom-up partition of the dataset into parts whose local UFL value is
certified to sit above the threshold kappa, plus the verification predicates
for its structural guarantees (holes accounting, separation, consistency,
local value bounds)."""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .hierarchy import is_good_pair
from .refine import RefinedDecomposition
from .solvers import mp_ufl_value
from .geometry import OracleScaleError


class MatrixApproxHandle:
    """Ball-growing UFL approximation over a fixed distance matrix, used as
    the qualification test of the partition loop."""

    def __init__(self, matrix: np.ndarray, alpha: float = 6.0):
        self.matrix = matrix
        self.alpha = float(alpha)

    def evaluate(self, members: np.ndarray, cluster_id: int) -> tuple[float, np.ndarray]:
        return mp_ufl_value(self.matrix, members)


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

    @property
    def hierarchy(self):
        return self.refined.base

    def part_of_point(self) -> np.ndarray:
        out = np.full(self.hierarchy.n, -1, dtype=int)
        for p in self.parts:
            out[p.members] = p.index
        return out

    def size_stat(self) -> tuple[int, float]:
        """(|parts|, sum of certified approx values), for scaling checks."""
        return len(self.parts), float(sum(p.approx_value for p in self.parts))


def bottom_up_partition(T: RefinedDecomposition, kappa: float, approx,
                        merge_last_two: bool = False) -> LowValuePartition:
    """Repeatedly emit the first cluster (lowest level, then lowest cluster
    id) whose surviving members have certified cost >= alpha * kappa, deleting
    its points everywhere; the remainder, if any, becomes the last part."""
    if kappa < 1.0:
        raise ValueError("kappa must be at least 1")
    H = T.base
    n = H.n
    alpha = float(approx.alpha)
    threshold = alpha * kappa * (1.0 - 1e-12)

    base_members = {cid: T.members(cid) for level in range(H.ell + 2)
                    for cid in H.levels[level]}
    alive = np.ones(n, dtype=bool)
    cache: dict[tuple[int, int], tuple[float, np.ndarray]] = {}

    def evaluate(cid: int, members: np.ndarray) -> tuple[float, np.ndarray]:
        key = (cid, hash(members.tobytes()))
        if key not in cache:
            cache[key] = approx.evaluate(members, cid)
        return cache[key]

    parts: list[Part] = []
    while alive.any():
        hit = None
        for level in range(H.ell + 1):                       # the root level is never scanned
            for cid in H.levels[level]:
                base = base_members[cid]
                members = base[alive[base]]
                if len(members) == 0:
                    continue
                cost, fids = evaluate(cid, members)
                if cost >= threshold:
                    hit = (cid, level, members, cost, fids)
                    break
            if hit:
                break
        if hit:
            cid, level, members, cost, fids = hit
            parts.append(Part(index=len(parts), members=members, provenance=cid,
                              level=level, rang=H.rang(level), approx_value=cost,
                              facility_ids=fids, is_last=False))
            alive[members] = False
        else:
            members = np.flatnonzero(alive)
            root = H.levels[H.ell + 1][0]
            cost, fids = evaluate(root, members)
            parts.append(Part(index=len(parts), members=members, provenance=root,
                              level=H.ell + 1, rang=H.rang(H.ell + 1),
                              approx_value=cost, facility_ids=fids, is_last=True))
            alive[members] = False

    if merge_last_two and len(parts) >= 2 and parts[-1].is_last:
        last = parts.pop()
        prev = parts.pop()
        members = np.sort(np.concatenate([prev.members, last.members]))
        cost, fids = evaluate(prev.provenance, members)
        parts.append(Part(index=len(parts), members=members, provenance=prev.provenance,
                          level=prev.level, rang=prev.rang, approx_value=cost,
                          facility_ids=fids, is_last=True))

    out = LowValuePartition(refined=T, kappa=float(kappa), alpha=alpha, parts=parts)
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
    lower_ok: bool
    upper_ok: bool


class BoundsReport(NamedTuple):
    entries: list[BoundsEntry]
    kappa: float
    tau: float

    @property
    def ok(self) -> bool:
        return all(e.lower_ok and e.upper_ok for e in self.entries)


def local_value_bounds_check(P: LowValuePartition, oracle, ddim: float,
                             kappa: float | None = None) -> BoundsReport:
    """Check kappa <= opt(part) <= 2^(10 ddim) * alpha * kappa with an exact
    (or near-exact) oracle; the lower bound is skipped for the last part and
    parts beyond the oracle's reach are reported unchecked."""
    kappa = P.kappa if kappa is None else float(kappa)
    tau = (2.0 ** (10.0 * ddim)) * P.alpha * kappa
    coords = P.hierarchy.metric.coords
    entries = []
    for p in P.parts:
        try:
            value = float(oracle(coords[p.members]))
        except OracleScaleError:
            entries.append(BoundsEntry(p.index, len(p.members), None, False, True, True))
            continue
        lower_ok = p.is_last or value >= kappa * (1 - 1e-9)
        upper_ok = value <= tau * (1 + 1e-9)
        entries.append(BoundsEntry(p.index, len(p.members), value, True, lower_ok, upper_ok))
    return BoundsReport(entries, kappa, tau)


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
    approx_lower_ok = all(p.is_last or p.approx_value >= P.alpha * P.kappa * (1 - 1e-9)
                          for p in P.parts)
    return partition_ok, holes_total_ok, holes_disjoint_ok, approx_lower_ok


def partition_properties_check(P: LowValuePartition, f0, pairs,
                               eps: float | None = None,
                               ddim: float | None = None) -> PartitionCheckReport:
    """Verify the separation bounds on the supplied good pairs that fall in
    distinct parts, and the consistency radius for every part.

    Pairs in one part (or pairs that are not good) are skipped.
    """
    T = P.refined
    H = T.base
    eps = T.eps if eps is None else eps
    ddim = T.ddim if ddim is None else ddim
    D = H.metric.matrix
    part_of = P.part_of_point()

    sep_viol: list[tuple[int, int, float, float]] = []
    checked = 0
    anc_cache = {p.provenance: set(H.ancestors(p.provenance)) for p in P.parts}
    for x, y in pairs:
        if part_of[x] == part_of[y]:
            continue
        if not is_good_pair(H, f0, int(x), int(y), eps, ddim):
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
            if d < bound * (1 - 1e-9):
                sep_viol.append((int(x), int(y), d, bound))
            continue
        hole_rangs = [P.parts[h].rang for h in P.holes[owner.index]]
        if not any(d >= scale * r * (1 - 1e-9) for r in hole_rangs):
            bound = min((scale * r for r in hole_rangs), default=float("inf"))
            sep_viol.append((int(x), int(y), d, bound))

    cons_viol: list[tuple[int, int, float, float]] = []
    for p in P.parts:
        orig = H.clusters[p.provenance].members
        radius = eps * eps * p.rang
        dmin = D[np.ix_(p.members, orig)].min(axis=1)
        for pos in np.flatnonzero(dmin > radius * (1 + 1e-9)):
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
