"""UFL and k-median subroutines: a deterministic O(n^2) ball-growing
constant-factor UFL approximation, Weiszfeld's 1-median iteration, exact
k-median by dynamic programming over subsets, a local-search fallback for
larger inputs, and exhaustive oracles used for validation.

Exhaustive paths reduce coordinates to the affine span of the input first;
this is an exact isometry on the points and on any geometric median (which
lies in their convex hull), so oracle values are unaffected while the cost
no longer depends on the ambient dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.spatial.distance import cdist, squareform, pdist

from .geometry import OPENING_COST, OracleScaleError, PointSet, UflSolution, ufl_cost

_MAX_ENUM = 14          # hard cap on exact partition enumeration
_MAX_DISCRETE = 15      # hard cap on facility-subset enumeration
_MAX_SUBSET_CELLS = 4_000_000   # cap on (facility subset, client) table cells


def _subset_enumerable(facilities: int, clients: int) -> bool:
    """True iff the facility-subset table of _subset_table is small enough
    to enumerate: at most _MAX_DISCRETE facilities and _MAX_SUBSET_CELLS
    (subset, client) cells."""
    return facilities <= _MAX_DISCRETE and (1 << facilities) * clients <= _MAX_SUBSET_CELLS


def _mask_ids(mask: int, s: int) -> np.ndarray:
    """Positions 0..s-1 of the set bits of mask, ascending."""
    return np.flatnonzero((int(mask) >> np.arange(s)) & 1)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the solver stack.

    alpha_target is the certified approximation factor of approx_ufl against
    the continuous optimum: the ball-growing algorithm is 3-approximate with
    facilities restricted to the input, and moving optimal ambient facilities
    onto the input loses at most another factor 2.
    """

    alpha_target: float = 6.0
    weiszfeld_tol: float = 1e-10
    weiszfeld_max_iter: int = 10000
    enum_threshold: int = 12
    local_search_swaps: int = 40

    def __post_init__(self):
        if self.weiszfeld_tol <= 0 or self.weiszfeld_max_iter < 1:
            raise ValueError("weiszfeld tolerances must be positive")
        if not 1 <= self.enum_threshold <= _MAX_ENUM:
            raise ValueError(f"enum_threshold must lie in [1, {_MAX_ENUM}]")


DEFAULT_SOLVER = SolverConfig()


class WeiszfeldResult(NamedTuple):
    center: np.ndarray
    cost: float
    converged: bool


class KMedianResult(NamedTuple):
    clusters: list[np.ndarray]   # index lists into the input point list
    centers: np.ndarray          # (k, dim)
    cost: float                  # total connection cost
    certified: bool              # True only on the exact enumeration path


def _as_points(points) -> np.ndarray:
    if isinstance(points, PointSet):
        return points.coords
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return P


def _affine_reduce(P: np.ndarray) -> np.ndarray:
    """Coordinates of P in an orthonormal basis of its affine span."""
    if len(P) == 1:
        return np.zeros((1, 1))
    centered = P - P.mean(axis=0)
    U, s, _ = np.linalg.svd(centered, full_matrices=False)
    rank = int((s > s.max(initial=0.0) * 1e-12).sum())
    if rank == 0:
        return np.zeros((len(P), 1))
    return U[:, :rank] * s[:rank]


# ---------------------------------------------------------------------------
# 1-median
# ---------------------------------------------------------------------------

def weiszfeld_1median(points, cfg: SolverConfig = DEFAULT_SOLVER,
                      return_history: bool = False):
    """Geometric median by Weiszfeld iteration from the centroid.

    When an iterate lands on a data point, the subgradient test decides
    optimality and otherwise a blended step (Vardi-Zhang) escapes it.
    """
    P = _as_points(points)
    if len(P) == 1:
        res = WeiszfeldResult(P[0].copy(), 0.0, True)
        return (res, [0.0]) if return_history else res

    y = P.mean(axis=0)
    obj = float(np.linalg.norm(P - y, axis=1).sum())
    history = [obj]
    converged = False
    for _ in range(cfg.weiszfeld_max_iter):
        d = np.linalg.norm(P - y, axis=1)
        hit = d < 1e-12
        if hit.any():
            others = ~hit
            if not others.any():
                converged = True
                break
            w = 1.0 / d[others]
            pull = ((P[others] - y) * w[:, None]).sum(axis=0)
            eta = float(hit.sum())
            rnorm = float(np.linalg.norm(pull))
            if rnorm <= eta:        # the data point is the optimum
                converged = True
                break
            t_step = (P[others] * w[:, None]).sum(axis=0) / w.sum()
            lam = min(1.0, eta / rnorm)
            y_new = (1.0 - lam) * t_step + lam * y
        else:
            w = 1.0 / d
            y_new = (P * w[:, None]).sum(axis=0) / w.sum()
        new_obj = float(np.linalg.norm(P - y_new, axis=1).sum())
        history.append(new_obj)
        improvement = obj - new_obj
        y, obj = y_new, min(obj, new_obj)
        if improvement <= cfg.weiszfeld_tol * max(obj, 1e-30):
            converged = True
            break
    res = WeiszfeldResult(y, obj, converged)
    return (res, history) if return_history else res


def _med1_costs(P: np.ndarray, cfg: SolverConfig = DEFAULT_SOLVER,
                max_iter: int = 2000) -> np.ndarray:
    """1-median cost of every subset of P, indexed by bitmask.

    All masks iterate in lockstep (weights clamped away from zero), far
    cheaper than per-mask runs. Each value is additionally capped by the best
    data-point center, which is exact whenever the geometric median sits on a
    data point (where Weiszfeld converges slowly).
    """
    s = len(P)
    nm = 1 << s
    costs = np.zeros(nm)
    if s == 1:
        return costs
    masks = np.arange(nm, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(s)[None, :]) & 1).astype(bool)
    sizes = bits.sum(axis=1)

    D = squareform(pdist(P)) if s > 1 else np.zeros((1, 1))
    for i, j in combinations(range(s), 2):     # 2-point masks: any point between
        costs[(1 << i) | (1 << j)] = D[i, j]

    big = np.flatnonzero(sizes >= 3)
    if len(big) == 0:
        return costs
    M = bits[big].astype(np.float64)
    Y = (M @ P) / sizes[big][:, None]
    dist_mat = np.maximum(cdist(Y, P), 1e-15)
    obj = (dist_mat * M).sum(axis=1)
    active = np.arange(len(big))
    for _ in range(max_iter):
        W = M[active] / dist_mat[active]
        Y[active] = (W @ P) / W.sum(axis=1, keepdims=True)
        dist_mat[active] = np.maximum(cdist(Y[active], P), 1e-15)
        new_obj = (dist_mat[active] * M[active]).sum(axis=1)
        moved = (obj[active] - new_obj) > cfg.weiszfeld_tol * np.maximum(new_obj, 1e-30)
        obj[active] = np.minimum(obj[active], new_obj)
        active = active[moved]
        if len(active) == 0:
            break
    costs[big] = np.minimum(obj, _best_data_center_costs(D, bits)[big])
    return costs


def _best_data_center_costs(D: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """min over data points j in each mask of sum_{i in mask} D[i, j]."""
    nm, s = bits.shape
    sums = np.zeros((nm, s))
    for mask in range(1, nm):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + D[low.bit_length() - 1]
    return np.where(bits, sums, np.inf).min(axis=1)


# ---------------------------------------------------------------------------
# Exact partition DPs (facilities anywhere in space)
# ---------------------------------------------------------------------------

def _ufl_partition_dp(med1: np.ndarray, s: int):
    """Minimize  #blocks + sum of 1-median costs  over all partitions of
    {0..s-1}; ties prefer fewer blocks. Returns (value, blocks)."""
    nm = 1 << s
    inf = float("inf")
    dp = [inf] * nm
    blocks = [0] * nm
    choice = [0] * nm
    dp[0] = 0.0
    med = med1.tolist()
    for S in range(1, nm):
        low = S & (-S)
        best, bblk, bch = inf, 0, 0
        T = S
        while T:
            if T & low:
                rest = S ^ T
                v = dp[rest] + OPENING_COST + med[T]
                b = blocks[rest] + 1
                if v < best - 1e-12 or (v <= best + 1e-12 and b < bblk):
                    best, bblk, bch = v, b, T
            T = (T - 1) & S
        dp[S], blocks[S], choice[S] = best, bblk, bch
    parts = []
    S = nm - 1
    while S:
        T = choice[S]
        parts.append(_mask_ids(T, s))
        S ^= T
    return dp[nm - 1], parts


def _kmedian_exact_dp(med1: np.ndarray, s: int, k: int):
    """Minimum sum of 1-median costs over partitions into exactly k blocks.
    Returns (value, blocks)."""
    nm = 1 << s
    inf = float("inf")
    med = med1.tolist()
    prev = [inf] * nm
    prev[0] = 0.0
    choices = []
    for _ in range(k):
        cur = [inf] * nm
        ch = [0] * nm
        for S in range(1, nm):
            low = S & (-S)
            best, bch = inf, 0
            T = S
            while T:
                if T & low:
                    v = prev[S ^ T] + med[T]
                    if v < best:
                        best, bch = v, T
                T = (T - 1) & S
            cur[S], ch[S] = best, bch
        choices.append(ch)
        prev = cur
    parts = []
    S = nm - 1
    for j in range(k - 1, -1, -1):
        T = choices[j][S]
        parts.append(_mask_ids(T, s))
        S ^= T
    return prev[nm - 1], parts


def brute_force_ufl_continuous(points, cfg: SolverConfig = DEFAULT_SOLVER) -> float:
    """opt(S) with ambient facilities, by exhaustive partition DP with
    geometric-median block centers (exact up to the Weiszfeld tolerance)."""
    P = _as_points(points)
    if len(P) > cfg.enum_threshold:
        raise OracleScaleError("oracle scale exceeded")
    R = _affine_reduce(P)
    value, _ = _ufl_partition_dp(_med1_costs(R, cfg), len(P))
    return float(value)


# ---------------------------------------------------------------------------
# Discrete enumeration (facilities restricted to given candidates)
# ---------------------------------------------------------------------------

def _subset_table(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every facility subset of the candidate columns of sub (clients x
    candidates), indexed by bitmask: (cost, size) where cost[mask] is the
    clients' total distance to their nearest facility in mask (inf for the
    empty mask) and size[mask] its popcount. Both tables grow by adding the
    lowest set bit to a smaller mask."""
    nc, m = sub.shape
    if not _subset_enumerable(m, nc):
        raise OracleScaleError("oracle scale exceeded")
    nm = 1 << m
    dmin = np.empty((nm, nc))
    dmin[0] = np.inf
    size = [0] * nm
    for mask in range(1, nm):
        low = mask & (-mask)
        np.minimum(dmin[mask ^ low], sub[:, low.bit_length() - 1], out=dmin[mask])
        size[mask] = size[mask ^ low] + 1
    return dmin.sum(axis=1), np.asarray(size)


def brute_force_ufl_discrete(points_or_matrix, is_matrix: bool = False) -> float:
    """opt^S(S): exhaustive minimum of |F| + connection cost over all
    nonempty facility subsets F of the input.

    Accepts a point list, or a precomputed distance matrix with is_matrix.
    """
    arr = np.asarray(points_or_matrix if not isinstance(points_or_matrix, PointSet)
                     else points_or_matrix.coords, dtype=np.float64)
    if is_matrix:
        D = arr
    else:
        P = np.atleast_2d(arr)
        D = squareform(pdist(P)) if len(P) > 1 else np.zeros((1, 1))
    cost, size = _subset_table(D)
    return float((OPENING_COST * size[1:] + cost[1:]).min())


def kmedian_restricted(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray,
                       k: int, cfg: SolverConfig = DEFAULT_SOLVER):
    """k-median with facilities restricted to candidate ids, over a distance
    matrix. Exact by enumeration when the candidate set is small, otherwise
    greedy + swap local search. Returns (facility ids, cost, certified)."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    if not 1 <= k <= len(candidates):
        raise ValueError("k must lie in [1, #candidates]")
    sub = D[np.ix_(clients, candidates)]
    if _subset_enumerable(len(candidates), len(clients)):
        cost, size = _subset_table(sub)
        eligible = np.flatnonzero(size == k)
        best = eligible[int(np.argmin(cost[eligible]))]
        return candidates[_mask_ids(best, len(candidates))], float(cost[best]), True

    # local search: greedy forward selection, then single swaps
    chosen: list[int] = []
    dcur = np.full(len(clients), np.inf)
    for _ in range(k):
        gains = [(np.minimum(dcur, sub[:, j]).sum(), j) for j in range(len(candidates))
                 if j not in chosen]
        _, jbest = min(gains)
        chosen.append(jbest)
        dcur = np.minimum(dcur, sub[:, jbest])
    cost = float(dcur.sum())
    for _ in range(cfg.local_search_swaps):
        improved = False
        for out_pos in range(k):
            others = [c for i, c in enumerate(chosen) if i != out_pos]
            base = sub[:, others].min(axis=1) if others else np.full(len(clients), np.inf)
            for j in range(len(candidates)):
                if j in chosen:
                    continue
                trial = float(np.minimum(base, sub[:, j]).sum())
                if trial < cost * (1 - 1e-12):
                    chosen[out_pos] = j
                    cost = trial
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return candidates[np.asarray(chosen)], cost, False


# ---------------------------------------------------------------------------
# k-median with ambient centers
# ---------------------------------------------------------------------------

def kmedian(points, k: int, eps: float = 0.05,
            cfg: SolverConfig = DEFAULT_SOLVER) -> KMedianResult:
    """k-median clustering with centers anywhere in space.

    Small inputs are solved exactly over all k-partitions with geometric
    median centers; larger ones fall back to local search over data-point
    centers followed by Weiszfeld refinement (certified=False).
    """
    P = _as_points(points)
    s = len(P)
    if not 1 <= k <= s:
        raise ValueError("k must lie in [1, |S|]")
    if k == s:
        return KMedianResult([np.array([i]) for i in range(s)], P.copy(), 0.0, True)
    if k == 1:
        res = weiszfeld_1median(P, cfg)
        return KMedianResult([np.arange(s)], res.center[None, :], res.cost, True)

    if s <= cfg.enum_threshold:
        med1 = _med1_costs(_affine_reduce(P), cfg)
        _, blocks = _kmedian_exact_dp(med1, s, k)
        centers, cost = _recenter(P, blocks, cfg)
        return KMedianResult(blocks, centers, cost, True)

    D = squareform(pdist(P))
    ids, _, _ = kmedian_restricted(D, np.arange(s), np.arange(s), k, cfg)
    centers = P[ids]
    assign = np.argmin(cdist(P, centers), axis=1)
    blocks = [np.flatnonzero(assign == j) for j in range(k)]
    blocks = [b for b in blocks if len(b)]
    centers, cost = _recenter(P, blocks, cfg)
    return KMedianResult(blocks, centers, cost, False)


def _recenter(P: np.ndarray, blocks, cfg: SolverConfig):
    centers = []
    cost = 0.0
    for b in blocks:
        res = weiszfeld_1median(P[b], cfg)
        centers.append(res.center)
        cost += res.cost
    return np.asarray(centers), float(cost)


# ---------------------------------------------------------------------------
# Constant-factor UFL approximation (ball growing, facilities in the input)
# ---------------------------------------------------------------------------

def _mp_radii(D: np.ndarray, client_rows: np.ndarray | None = None) -> np.ndarray:
    """Per-candidate radius r solving sum_clients max(0, r - d) = opening cost."""
    rows = D if client_rows is None else D[:, client_rows]
    s = rows.shape[1]
    order = np.sort(rows, axis=1)
    csum = np.cumsum(order, axis=1)
    j = np.arange(1, s + 1)
    r_cand = (OPENING_COST + csum) / j
    nxt = np.concatenate([order[:, 1:], np.full((len(rows), 1), np.inf)], axis=1)
    valid = r_cand <= nxt * (1 + 1e-12) + 1e-15
    jstar = valid.argmax(axis=1)
    return r_cand[np.arange(len(rows)), jstar]


def _mp_select(D_cand: np.ndarray, radii: np.ndarray) -> list[int]:
    """Process candidates by increasing radius; keep one unless an already
    kept candidate lies within twice its radius."""
    order = np.lexsort((np.arange(len(radii)), radii))
    selected: list[int] = []
    for y in order:
        if all(D_cand[y, z] > 2.0 * radii[y] for z in selected):
            selected.append(int(y))
    return selected


def approx_ufl(X: PointSet, cfg: SolverConfig = DEFAULT_SOLVER) -> UflSolution:
    """Deterministic constant-factor UFL approximation with facilities drawn
    from the input (ball-growing; 3-approximate against the best such
    solution, hence at most alpha_target=6 against the continuous optimum)."""
    D = X.distance_matrix()
    facilities = _mp_select(D, _mp_radii(D))
    ids = np.asarray(facilities, dtype=int)
    return ufl_cost(X, X.coords[ids], facility_ids=ids)


def mp_ufl_value(D: np.ndarray, members: np.ndarray) -> tuple[float, np.ndarray]:
    """Ball-growing UFL cost of a subset of a distance matrix.
    Returns (cost, facility ids within members)."""
    members = np.asarray(members, dtype=int)
    sub = D[np.ix_(members, members)]
    sel = _mp_select(sub, _mp_radii(sub))
    conn = sub[:, sel].min(axis=1).sum()
    return float(OPENING_COST * len(sel) + conn), members[sel]


def restricted_ufl_value(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray,
                         exact_cap: int = _MAX_DISCRETE) -> tuple[float, float, np.ndarray]:
    """UFL cost of clients with facilities restricted to candidate ids.

    Exact enumeration when feasible (certified factor 1), else ball growing
    over the candidate set (certified factor 3 against the restricted
    optimum). Returns (cost, certified factor, facility ids)."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    sub = D[np.ix_(candidates, clients)]
    if len(candidates) <= exact_cap and _subset_enumerable(len(candidates), len(clients)):
        cost, size = _subset_table(sub.T)
        totals = OPENING_COST * size[1:] + cost[1:]
        best = int(np.argmin(totals)) + 1
        return float(totals[best - 1]), 1.0, candidates[_mask_ids(best, len(candidates))]
    radii = _mp_radii(sub)
    sel = _mp_select(D[np.ix_(candidates, candidates)], radii)
    conn = sub[sel].min(axis=0).sum()
    return float(OPENING_COST * len(sel) + conn), 3.0, candidates[sel]
