"""End-to-end (1+eps)-style approximation pipelines for UFL on doubling
inputs. Both decompose the input with `build_stages`, the single stage
builder (hierarchy, guiding solution, badly-cut elimination, low-value
partition). Each part then needs min_k (k + v_k), v_k its k-median cost,
which is the part's UFL optimum: one problem per part, not one per k. The
Euclidean pipeline solves it on the randomly projected part, exactly up to
the enumeration scale by solvers._ufl_exact, the partition DP the
continuous oracle runs, and by ufl_local_search over the part's points
beyond it (falling back to the constant-factor clustering when the
projection misbehaves), then recenters every adopted cluster in the
original space in one 1-median pass; the discrete pipeline solves it by
ufl_local_search against the per-cluster candidate facility set over a
distance oracle."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import solvers
from .geometry import OPENING_COST, PointSet, UflSolution, distances, ufl_cost
from .hierarchy import HierarchicalDecomposition, MetricData, build_hierarchy
from .partition import LowValuePartition, MatrixApproxHandle, bottom_up_partition, tau_bound
from .projection import sample_map, target_dim
from .refine import eliminate_badly_cut
from .solvers import (_nearest_blocks, _ufl_exact, mp_ufl_value, restricted_ufl_value,
                      ufl_local_search, weiszfeld_1median)
from .util import COST_RTOL, spawn_seeds


# The paper's constants, which need only be large enough; read at call time
_C1 = 1.0       # kappa = _C2 * (ddim / eps)^(_C1 * ddim)
_C2 = 1.0
_C4 = 4.0       # event H: a part's best projected k + v_k is at most _C4 * tau
_SPOT_TRIPLES = 300     # DistanceOracle.spot_check's sampled triples and their seed
_SPOT_SEED = 0


@dataclass(frozen=True)
class PtasConfig:
    """Pipeline parameters. kappa, tau and m derive from them and from _C1,
    _C2, projection._C3 and MatrixApproxHandle.alpha.

    The theoretical constants behind kappa are astronomically large, so kappa
    is clamped to kappa_cap by default; every downstream guarantee is checked
    with explicit slack at this desk scale.
    """

    eps: float = 0.2
    ddim: float = 2.0
    kappa_cap: float = 32.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if self.ddim < 1.0:
            raise ValueError("ddim must be at least 1")
        if self.kappa_cap <= 0:
            raise ValueError("kappa_cap must be positive")

    @property
    def kappa(self) -> float:
        raw = _C2 * (self.ddim / self.eps) ** (_C1 * self.ddim)
        return max(1.0, min(raw, self.kappa_cap))

    @property
    def tau(self) -> float:
        return tau_bound(self.ddim, MatrixApproxHandle.alpha, self.kappa)

    @property
    def m(self) -> int:
        return target_dim(self.eps, self.tau)

    @property
    def seeds(self) -> tuple[int, int]:
        """(hierarchy seed, random linear map seed), both derived from seed."""
        return tuple(spawn_seeds(self.seed, 2))


class PartTrace(NamedTuple):
    part: int
    level: int
    event_G: bool | None         # projection contracted no facility pair too much
    event_H: bool | None         # the sweep's projected k* + v stayed at most _C4 * tau
                                 # (None: not tested, as in the discrete pipeline)
    k_star: int | None           # the sweep's number of open facilities (blocks)
    v: float | None              # connection cost of the sweep's own solution: its
                                 # blocks' medians (exact sweep) or open points
                                 # (local search, projected or in the oracle)
    adopted: str                 # "median" or "fallback"
    approx_cost: float
    designated_cost: float       # original-space cost of the adopted clustering


def trace_to_jsonl(traces: list[PartTrace]) -> str:
    return "".join(json.dumps(t._asdict()) + "\n" for t in traces)


class DistanceOracle(MetricData):
    """The discrete pipeline's input: a MetricData (so its self-distances
    are 0) whose entries can be checked finite and nonnegative, and whose
    other metric axioms can be spot-checked on _SPOT_TRIPLES triples drawn
    with _SPOT_SEED, within COST_RTOL."""

    def spot_check(self) -> None:
        D, tol = self.matrix, COST_RTOL
        if not np.all(np.isfinite(D)):
            raise ValueError("distance oracle holds non-finite distances")
        if np.any(D < -tol):
            raise ValueError("distance oracle violates nonnegativity")
        rng = np.random.default_rng(_SPOT_SEED)
        i, j, k = rng.integers(0, self.n, size=(_SPOT_TRIPLES, 3)).T
        asym = np.abs(D[i, j] - D[j, i]) > tol * np.maximum(1.0, D[i, j])
        bad = asym | (D[i, k] > D[i, j] + D[j, k] + tol * np.maximum(1.0, D[i, k]))
        if bad.any():      # the first failing triple decides, symmetry tested first
            if asym[bad.argmax()]:
                raise ValueError("distance oracle violates symmetry")
            raise ValueError("distance oracle violates the triangle inequality")


def candidate_set(H: HierarchicalDecomposition, cluster_id: int, eps: float) -> np.ndarray:
    """Ids within (100/eps) * rang(C) of some member of cluster C."""
    radius = (100.0 / eps) * H.rang(H.clusters.level[cluster_id])
    near = (H.metric.matrix[H.members(cluster_id)] <= radius).any(axis=0)
    return np.flatnonzero(near)


# ---------------------------------------------------------------------------
# Decomposition stages
# ---------------------------------------------------------------------------

class Stages(NamedTuple):
    partition: LowValuePartition   # also holds .hierarchy, .refined and .refined.f0_ids
    approx: object                 # the qualification handle the partition scan used


def guiding_assignment(D: np.ndarray) -> np.ndarray:
    """F0, the one guiding solution: each point's nearest (first among ties)
    ball-growing facility over the whole distance matrix D, as an id array."""
    _, f0_ids = mp_ufl_value(D, np.arange(len(D)))
    return f0_ids[np.argmin(D[:, f0_ids], axis=1)]


def build_stages(md, cfg: PtasConfig, approx=None) -> Stages:
    """The single stage builder: random hierarchy, the guiding assignment
    f0, badly-cut elimination against f0, and the bottom-up low-value
    partition at threshold cfg.kappa.

    md is a MetricData or a PointSet. approx, when given, maps the hierarchy
    to the partition's qualification handle; by default the scan uses ball
    growing over the whole matrix. The stages are looked up as module
    globals at call time, so wrappers installed on them see every call.
    """
    md = MetricData.coerce(md)
    H = build_hierarchy(md, cfg.seeds[0])
    T = eliminate_badly_cut(H, guiding_assignment(md.matrix), cfg.eps, cfg.ddim)
    handle = MatrixApproxHandle(md.matrix) if approx is None else approx(H)
    return Stages(bottom_up_partition(T, cfg.kappa, handle), handle)


# ---------------------------------------------------------------------------
# Euclidean pipeline
# ---------------------------------------------------------------------------

def _exact_projected_sweep(proj_members: np.ndarray):
    """min_k (k + v_k) over all k at once: the per-k sweep of the exact
    k-median enumeration collapses into one partition DP, solved by
    solvers._ufl_exact, the continuous oracle's routine, which runs the
    1-median iteration only on the subsets a near-optimal partition can
    use, and the DP only over those subsets and the rows they reach."""
    total, blocks = _ufl_exact(proj_members)
    k_star = len(blocks)
    return k_star, float(total - k_star), blocks


def _heuristic_projected_sweep(proj_members: np.ndarray):
    """UFL local search on one part's projected points, every point a
    candidate (exact over data-point facilities when they are enumerable);
    uncertified, used only beyond the enumeration scale. The open points
    group the points by _nearest_blocks; returns (k, v, blocks) with k the
    number of blocks, v the search's connection cost and blocks as
    positions within the part. v is the cost of a projected solution, so it
    is at least the blocks' recentered sum."""
    D = distances(proj_members)
    every = np.arange(len(proj_members))
    _, v, ids = ufl_local_search(D, every, every)
    blocks = _nearest_blocks(D[:, ids])
    return len(blocks), v, blocks


def ptas_euclidean(X: PointSet, cfg: PtasConfig) -> tuple[UflSolution, list[PartTrace]]:
    """Full pipeline: hierarchical decomposition, badly-cut elimination,
    bottom-up partition, random projection, per-part UFL on projected
    points (with contraction/expansion fallbacks), and 1-median recentering
    of every adopted cluster in the original space.

    The parts go through the stages together, so the pipeline makes one
    weiszfeld_1median call in all:
    1. event G, the contraction check, on every part;
    2. per part that passes it, _heuristic_projected_sweep above
       _ENUM_THRESHOLD points and _exact_projected_sweep otherwise, then
       event H on the sweep's k* + v;
    3. the fallback clustering for every part that fails G or H;
    4. one weiszfeld_1median call over every adopted block, in part order,
       as ids into X.

    The projected points are `pi.embed(X)`: pi(X) written in an orthonormal
    basis of pi's range, min(m, d) coordinates with the same pairwise
    distances as pi(X) in R^m, which are all that the contraction check
    and the sweeps read."""
    if X.n == 0:
        raise ValueError("empty input")
    if not np.any(X.coords != X.coords[0]):          # one location: open it
        return ufl_cost(X, X.coords[:1].copy(), facility_ids=np.array([0])), []

    md = MetricData.from_points(X)
    partition, _ = build_stages(md, cfg)
    parts = partition.parts

    pi = sample_map(X.d, cfg.m, cfg.seeds[1])
    proj = pi.embed(X).coords

    event_g = [not np.any(md.matrix[np.ix_(f, f)] > (1.0 + cfg.eps) * distances(proj[f]))
               for f in (p.facility_ids for p in parts)]

    adopted, traces = [], []                    # blocks as positions within members
    for i, p in enumerate(parts):
        k_star = v = blocks = event_h = None
        if event_g[i]:
            sweep = (_heuristic_projected_sweep if len(p.members) > solvers._ENUM_THRESHOLD
                     else _exact_projected_sweep)
            k_star, v, blocks = sweep(proj[p.members])
            event_h = k_star + v <= _C4 * cfg.tau
        label = "median"
        if not event_h:
            label = "fallback"
            blocks = _nearest_blocks(md.matrix[np.ix_(p.members, p.facility_ids)])
        adopted.append(blocks)
        traces.append(PartTrace(p.index, p.level, event_g[i], event_h, k_star, v,
                                label, p.approx_value, None))

    ids = [p.members[b] for p, blocks in zip(parts, adopted) for b in blocks]
    meds = weiszfeld_1median(X.coords, blocks=ids)
    at = 0
    for i, blocks in enumerate(adopted):
        designated = float(sum(med.cost for med in meds[at:at + len(blocks)]))
        traces[i] = traces[i]._replace(designated_cost=designated)
        at += len(blocks)
    return ufl_cost(X, _dedupe(np.array([med.center for med in meds]))), traces


def _dedupe(A: np.ndarray) -> np.ndarray:
    """A without its repeated rows (entries, if A is 1-d), first
    occurrences kept in order."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(A):
        first.setdefault(row.tobytes(), i)
    return A[list(first.values())]


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
    """Qualification test against per-cluster candidate facility sets: ball
    growing over the cluster's candidates, 3-approximate against the best
    facilities among them, at every n. A cluster's candidate set is built
    the first time it is asked for and then kept."""

    alpha = 3.0

    def __init__(self, H: HierarchicalDecomposition, eps: float):
        self.H = H
        self.eps = eps
        self.matrix = H.metric.matrix
        self._candidates: dict[int, np.ndarray] = {}

    def candidates(self, cluster_id: int) -> np.ndarray:
        if cluster_id not in self._candidates:
            self._candidates[cluster_id] = candidate_set(self.H, cluster_id, self.eps)
        return self._candidates[cluster_id]

    def evaluate(self, members: np.ndarray, cluster_id: int) -> tuple[float, np.ndarray]:
        cost, _, fids = restricted_ufl_value(self.matrix, members, self.candidates(cluster_id))
        return cost, fids

    @staticmethod
    def cost_bound(size: np.ndarray) -> np.ndarray:
        """3c for c members, when every member is a candidate and the
        matrix is a metric. Ball growing over the candidates costs at most
        that:

        (i) each member j has D[j, j] = 0, so its radius is r_j <= 1;
        (ii) each member is either kept (connection 0) or blocked by an
            earlier kept y with D(y, j) <= 2 r_j <= 2, so the connection
            cost is at most 2c;
        (iii) each kept y has a client strictly inside B(y, r_y), and for
            kept y before y', D(y, y') > 2 r_y' >= r_y + r_y', so by the
            triangle inequality the balls share no client and at most c
            candidates are kept.

        A cluster's refined members are its candidates: a badly-cut move
        brings x to within eps^2 * rang / ddim of f0(x), a base member,
        which is less than the candidate radius (100 / eps) * rang."""
        return 3.0 * size


def ptas_discrete(oracle: DistanceOracle, cfg: PtasConfig
                  ) -> tuple[DiscreteSolution, list[PartTrace]]:
    """Discrete-metric pipeline: same decomposition stages over the oracle
    metric, then per part one ufl_local_search with facilities restricted
    to the candidate set of its provenance cluster (exact when that set is
    enumerable); k* is the number of facilities it opens and v, also the
    designated cost, their connection cost."""
    if oracle.n == 0:
        raise ValueError("empty input")
    oracle.spot_check()
    D = oracle.matrix
    if not D.any():                                   # one location: open it
        return DiscreteSolution(np.array([0]), np.zeros(oracle.n, dtype=int), OPENING_COST,
                                0.0, OPENING_COST), []

    partition, handle = build_stages(oracle, cfg,
                                     lambda H: RestrictedApproxHandle(H, cfg.eps))

    facility_ids: list[int] = []
    traces: list[PartTrace] = []
    for p in partition.parts:
        k_star, v, fids = ufl_local_search(D, p.members, handle.candidates(p.provenance))
        facility_ids.extend(int(f) for f in fids)
        traces.append(PartTrace(p.index, p.level, None, None, k_star, v,
                                "median", p.approx_value, v))

    fid_arr = _dedupe(np.asarray(facility_ids, dtype=int))
    cols = D[:, fid_arr]
    assignment = np.argmin(cols, axis=1)
    connection = float(cols[np.arange(oracle.n), assignment].sum())
    opening = OPENING_COST * len(fid_arr)
    sol = DiscreteSolution(fid_arr, assignment, opening, connection,
                           opening + connection)
    return sol, traces
