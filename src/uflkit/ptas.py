"""End-to-end (1+eps)-style approximation pipelines for UFL on doubling
inputs. Both decompose the input with `build_stages`, the single stage
builder (hierarchy, guiding solution, badly-cut elimination, low-value
partition). The Euclidean pipeline then solves small k-median instances on
randomly projected parts (falling back to the constant-factor clustering
when the projection misbehaves), and the discrete pipeline solves them
against per-cluster candidate facility sets over a distance oracle."""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import OPENING_COST, PointSet, UflSolution, ufl_cost
from .hierarchy import HierarchicalDecomposition, MetricData, build_hierarchy
from .partition import LowValuePartition, MatrixApproxHandle, bottom_up_partition
from .projection import sample_map, target_dim
from .refine import eliminate_badly_cut
from .solvers import (_MAX_DISCRETE, DEFAULT_SOLVER, SolverConfig, _affine_reduce,
                      _mask_ids, _med1_costs, _subset_enumerable, _subset_table,
                      _ufl_partition_dp, mp_ufl_value, restricted_ufl_value,
                      weiszfeld_1median)
from .util import spawn_seeds

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PtasConfig:
    """Pipeline parameters and the derived threshold/dimension values.

    The theoretical constants behind kappa are astronomically large, so kappa
    is clamped to kappa_cap by default; every downstream guarantee is checked
    with explicit slack at this desk scale.
    """

    eps: float = 0.2
    ddim: float = 2.0
    c1: float = 1.0
    c2: float = 1.0
    c3: float = 2.0
    c4: float = 4.0
    kappa_cap: float = 32.0
    alpha: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.ddim < 1.0:
            raise ValueError("ddim must be at least 1")
        if min(self.c1, self.c2, self.c3, self.c4, self.kappa_cap, self.alpha) <= 0:
            raise ValueError("constants must be positive")

    @property
    def kappa(self) -> float:
        raw = self.c2 * (self.ddim / self.eps) ** (self.c1 * self.ddim)
        return max(1.0, min(raw, self.kappa_cap))

    @property
    def tau(self) -> float:
        return (2.0 ** (10.0 * self.ddim)) * self.alpha * self.kappa

    @property
    def m(self) -> int:
        return target_dim(self.eps, self.tau, self.c3)

    @property
    def seeds(self) -> tuple[int, int]:
        """(hierarchy seed, random linear map seed), both derived from seed."""
        return tuple(spawn_seeds(self.seed, 2))


class PartTrace(NamedTuple):
    part: int
    level: int
    event_G: bool                # projection contracted no facility pair too much
    event_H: bool                # best projected k-median value stayed below c4*tau
    k_star: int | None
    v: float | None
    adopted: str                 # "median" or "fallback"
    approx_cost: float
    designated_cost: float       # original-space cost of the adopted clustering

    def to_json(self) -> str:
        return json.dumps(self._asdict())


def trace_to_jsonl(traces: list[PartTrace]) -> str:
    return "".join(t.to_json() + "\n" for t in traces)


class DistanceOracle:
    """Pairwise-distance access over point ids 0..n-1, with metric axioms
    spot-checked on sampled triples."""

    def __init__(self, matrix: np.ndarray, coords: np.ndarray | None = None):
        self._md = MetricData(np.asarray(matrix, dtype=np.float64), coords)

    @classmethod
    def from_points(cls, X: PointSet) -> "DistanceOracle":
        return cls(X.distance_matrix(), X.coords)

    @property
    def n(self) -> int:
        return self._md.n

    def dist(self, i: int, j: int) -> float:
        return float(self._md.matrix[i, j])

    def metric_data(self) -> MetricData:
        return self._md

    def spot_check(self, triples: int = 300, seed: int = 0, tol: float = 1e-9) -> None:
        D = self._md.matrix
        n = self.n
        if np.any(np.abs(np.diag(D)) > tol) or np.any(D < -tol):
            raise ValueError("distance oracle violates nonnegativity")
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(triples, 3))
        for i, j, k in idx:
            if abs(D[i, j] - D[j, i]) > tol * max(1.0, D[i, j]):
                raise ValueError("distance oracle violates symmetry")
            if D[i, k] > D[i, j] + D[j, k] + tol * max(1.0, D[i, k]):
                raise ValueError("distance oracle violates the triangle inequality")


def candidate_set(H: HierarchicalDecomposition, cluster_id: int, eps: float) -> np.ndarray:
    """Ids within (100/eps) * rang(C) of some member of cluster C."""
    c = H.clusters[cluster_id]
    radius = (100.0 / eps) * H.rang(c.level)
    near = (H.metric.matrix[c.members] <= radius).any(axis=0)
    return np.flatnonzero(near)


# ---------------------------------------------------------------------------
# Decomposition stages
# ---------------------------------------------------------------------------

class Stages(NamedTuple):
    partition: LowValuePartition   # also holds .hierarchy, .refined and .refined.f0_ids
    approx: object                 # the qualification handle the partition scan used


def build_stages(md, cfg: PtasConfig, approx=None) -> Stages:
    """The single stage builder: random hierarchy, ball-growing guiding
    solution f0, badly-cut elimination against f0, and the bottom-up
    low-value partition at threshold cfg.kappa.

    md is a MetricData or a PointSet. approx, when given, maps the hierarchy
    to the partition's qualification handle; by default the scan uses ball
    growing over the whole matrix. The stages are looked up as module
    globals at call time, so wrappers installed on them see every call.
    """
    md = MetricData.coerce(md)
    H = build_hierarchy(md, cfg.seeds[0])
    _, f0_ids = mp_ufl_value(md.matrix, np.arange(md.n))
    T = eliminate_badly_cut(H, _nearest_assignment_ids(md.matrix, f0_ids),
                            cfg.eps, cfg.ddim)
    handle = MatrixApproxHandle(md.matrix, alpha=cfg.alpha) if approx is None else approx(H)
    return Stages(bottom_up_partition(T, cfg.kappa, handle), handle)


def _nearest_assignment_ids(D: np.ndarray, facility_ids: np.ndarray) -> np.ndarray:
    cols = D[:, facility_ids]
    return facility_ids[np.argmin(cols, axis=1)]


# ---------------------------------------------------------------------------
# Euclidean pipeline
# ---------------------------------------------------------------------------

def _fallback_clusters(D: np.ndarray, members: np.ndarray,
                       facility_ids: np.ndarray) -> list[np.ndarray]:
    assign = np.argmin(D[np.ix_(members, facility_ids)], axis=1)
    return [members[assign == j] for j in range(len(facility_ids))
            if (assign == j).any()]


def _exact_projected_sweep(proj_members: np.ndarray, solver: SolverConfig):
    """min_k (k + v_k) over all k at once: the per-k sweep of the exact
    k-median enumeration collapses into one partition DP."""
    med1 = _med1_costs(_affine_reduce(proj_members), solver)
    total, blocks = _ufl_partition_dp(med1, len(proj_members))
    k_star = len(blocks)
    return k_star, float(total - k_star), blocks


def _heuristic_projected_sweep(proj_members: np.ndarray, k_hint: int, kmax: int,
                               solver: SolverConfig):
    """Local-search k-median over a small k window around the constant-factor
    facility count; uncertified, used only beyond the enumeration scale."""
    from .solvers import kmedian

    best = None
    lo, hi = max(1, k_hint - 2), min(kmax, k_hint + 2)
    for k in range(lo, hi + 1):
        res = kmedian(proj_members, k, cfg=solver)
        if best is None or k + res.cost < best[0] + best[1]:
            best = (k, res.cost, res.clusters)
    return best


def ptas_euclidean(X: PointSet, cfg: PtasConfig,
                   solver: SolverConfig = DEFAULT_SOLVER
                   ) -> tuple[UflSolution, list[PartTrace]]:
    """Full pipeline: hierarchical decomposition, badly-cut elimination,
    bottom-up partition, random projection, per-part k-median on projected
    points (with contraction/expansion fallbacks), and 1-median recentering
    of every adopted cluster in the original space."""
    if X.n == 0:
        raise ValueError("empty input")
    if X.n == 1:
        sol = ufl_cost(X, X.coords.copy(), facility_ids=np.array([0]))
        return sol, []

    md = MetricData.from_points(X)
    partition, _ = build_stages(md, cfg)

    pi = sample_map(X.d, cfg.m, cfg.seeds[1])
    proj = pi.apply(X).coords

    centers: list[np.ndarray] = []
    traces: list[PartTrace] = []
    kmax_cap = int(min(cfg.c4 * cfg.tau, 1e18))
    for p in partition.parts:
        members = p.members
        fids = p.facility_ids
        fallback = _fallback_clusters(md.matrix, members, fids)

        event_g = True
        for a in range(len(fids)):
            for b in range(a + 1, len(fids)):
                orig = md.matrix[fids[a], fids[b]]
                contracted = float(np.linalg.norm(proj[fids[a]] - proj[fids[b]]))
                if orig > (1.0 + cfg.eps) * contracted:
                    event_g = False
                    break
            if not event_g:
                break

        k_star = None
        v = None
        event_h = True
        adopted = fallback
        label = "fallback"
        if event_g:
            kmax = min(len(members), kmax_cap)
            if len(members) <= solver.enum_threshold:
                k_star, v, blocks = _exact_projected_sweep(proj[members], solver)
            else:
                k_star, v, blocks = _heuristic_projected_sweep(
                    proj[members], len(fids), kmax, solver)
            if k_star + v > cfg.c4 * cfg.tau:
                event_h = False
            else:
                adopted = [members[b] for b in blocks]
                label = "median"

        designated = 0.0
        for cl in adopted:
            if len(cl) == 0:
                logger.info("skipping empty cluster in part %d", p.index)
                continue
            med = weiszfeld_1median(X.coords[cl], solver)
            centers.append(med.center)
            designated += med.cost
        traces.append(PartTrace(p.index, p.level, event_g, event_h, k_star, v,
                                label, p.approx_value, designated))

    F = _dedupe_rows(np.asarray(centers))
    return ufl_cost(X, F), traces


def _dedupe_rows(F: np.ndarray) -> np.ndarray:
    seen = set()
    keep = []
    for i, row in enumerate(F):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return F[keep]


# ---------------------------------------------------------------------------
# Discrete pipeline
# ---------------------------------------------------------------------------

@dataclass
class DiscreteSolution:
    facility_ids: np.ndarray
    assignment: np.ndarray       # index into facility_ids per point
    opening_cost: float
    connection_cost: float
    total: float


class RestrictedApproxHandle:
    """Qualification test against per-cluster candidate facility sets: exact
    enumeration when every candidate set is small, ball growing otherwise."""

    def __init__(self, matrix: np.ndarray, candidates: dict[int, np.ndarray]):
        self.matrix = matrix
        self.candidates = candidates
        largest = max(len(c) for c in candidates.values())
        self.exact = _subset_enumerable(largest, matrix.shape[0])
        self.alpha = 1.0 if self.exact else 3.0

    def evaluate(self, members: np.ndarray, cluster_id: int) -> tuple[float, np.ndarray]:
        cost, _, fids = restricted_ufl_value(
            self.matrix, members, self.candidates[cluster_id],
            exact_cap=_MAX_DISCRETE if self.exact else 0)
        return cost, fids


def _restricted_sweep(D: np.ndarray, members: np.ndarray, cand: np.ndarray,
                      kmax: int, solver: SolverConfig):
    """Best k + v_k over k = 1..kmax with facilities from cand; exact by
    subset enumeration when feasible."""
    if _subset_enumerable(len(cand), len(members)):
        cost, size = _subset_table(D[np.ix_(members, cand)])
        best = None
        for k in range(1, kmax + 1):
            masks = np.flatnonzero(size == k)
            if len(masks) == 0:
                break
            vals = cost[masks]
            j = int(np.argmin(vals))
            if best is None or k + vals[j] < best[0] + best[1]:
                best = (k, float(vals[j]), cand[_mask_ids(masks[j], len(cand))])
        return best
    from .solvers import kmedian_restricted

    best = None
    for k in range(1, min(kmax, len(cand)) + 1):
        ids, v, _ = kmedian_restricted(D, members, cand, k, solver)
        if best is None or k + v < best[0] + best[1]:
            best = (k, v, ids)
    return best


def ptas_discrete(oracle: DistanceOracle, cfg: PtasConfig,
                  solver: SolverConfig = DEFAULT_SOLVER
                  ) -> tuple[DiscreteSolution, list[PartTrace]]:
    """Discrete-metric pipeline: same decomposition stages over the oracle
    metric, then per part a k-median sweep restricted to the candidate
    facility set of its provenance cluster."""
    oracle.spot_check()
    md = oracle.metric_data()
    D = md.matrix
    if md.n == 1:
        return DiscreteSolution(np.array([0]), np.array([0]), OPENING_COST, 0.0,
                                OPENING_COST), []

    def restricted(H: HierarchicalDecomposition) -> RestrictedApproxHandle:
        return RestrictedApproxHandle(
            D, {c.cid: candidate_set(H, c.cid, cfg.eps) for c in H.clusters})

    partition, handle = build_stages(md, cfg, restricted)
    candidates = handle.candidates

    facility_ids: list[int] = []
    traces: list[PartTrace] = []
    kmax_cap = int(min(cfg.tau, 1e18))
    for p in partition.parts:
        cand = candidates[p.provenance]
        kmax = min(len(p.members), len(cand), kmax_cap)
        k_star, v, fids = _restricted_sweep(D, p.members, cand, kmax, solver)
        facility_ids.extend(int(f) for f in fids)
        designated = float(D[np.ix_(p.members, fids)].min(axis=1).sum())
        traces.append(PartTrace(p.index, p.level, True, True, k_star, v,
                                "median", p.approx_value, designated))

    seen = set()
    unique = [f for f in facility_ids if not (f in seen or seen.add(f))]
    fid_arr = np.asarray(unique, dtype=int)
    cols = D[:, fid_arr]
    assignment = np.argmin(cols, axis=1)
    connection = float(cols[np.arange(md.n), assignment].sum())
    opening = OPENING_COST * len(fid_arr)
    sol = DiscreteSolution(fid_arr, assignment, opening, connection,
                           opening + connection)
    return sol, traces
