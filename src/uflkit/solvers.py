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
_MAX_DIST_CELLS = 4_000_000     # cap on the distance block a 1-median holds at once
_RADII_CELLS = 8192             # distances per _mp_radii chunk: 64 KB per float temporary


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
    """Knobs for the solver stack."""

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
    """(n, d) coordinates of a non-empty point list; a flat list is one point."""
    P = points.coords if isinstance(points, PointSet) else np.asarray(points, dtype=np.float64)
    if P.ndim > 0 and len(P) == 0:
        raise ValueError("empty point set")
    return np.atleast_2d(P)


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
    """Geometric median: a data-point certificate, else Weiszfeld iteration
    from the centroid.

    The certificate is Kuhn's optimality test at x = P[j], j the first point
    of least distance sum: with eta the number of points equal to x and g
    the sum of unit vectors from x toward the others, x is a median iff
    |g| <= eta. A median minimises the distance sum over all of space, so if
    any data point is a median, P[j] is one. A certified P[j] is returned
    with its distance sum and no iteration, where Weiszfeld would approach
    it only sublinearly.

    The test is strict, |g| < eta * (1 - 1e-9): two points, or an even
    number on a line, have |g| = eta exactly, because a whole segment of
    medians joins the middle two, and there the iteration keeps its midpoint
    answer. Only exact copies of x count toward eta; a point merely within
    the iteration's 1e-12 of x still pulls, or a vertex of a tiny triangle
    would pass although its centroid costs less.

    Every input that fails the test gets the plain iteration, unchanged:
    when an iterate lands on a data point, the subgradient test decides
    optimality and otherwise a blended step (Vardi-Zhang) escapes it.
    """
    P = _as_points(points)
    n = len(P)
    step = max(1, _MAX_DIST_CELLS // n)
    sums = np.concatenate([cdist(P[i:i + step], P).sum(axis=1) for i in range(0, n, step)])
    j = int(np.argmin(sums))
    d = np.linalg.norm(P - P[j], axis=1)
    same = d == 0.0
    g = ((P[~same] - P[j]) / d[~same, None]).sum(axis=0)
    if np.linalg.norm(g) < same.sum() * (1.0 - 1e-9):
        res = WeiszfeldResult(P[j].copy(), float(sums[j]), True)
        return (res, [res.cost]) if return_history else res

    y = P.mean(axis=0)
    d = np.linalg.norm(P - y, axis=1)
    obj = float(d.sum())
    history = [obj]
    converged = False
    for _ in range(cfg.weiszfeld_max_iter):
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
        d = np.linalg.norm(P - y_new, axis=1)
        new_obj = float(d.sum())
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

    All masks of three or more points iterate in lockstep from their
    centroids (weights clamped away from zero), far cheaper than per-mask
    runs. A mask stops once a step improves its objective by at most
    cfg.weiszfeld_tol relative; the arrays then drop its row, so every step
    works on the still active masks only, in mask order. Each value is
    additionally capped by the best data-point center, which is exact
    whenever the geometric median sits on a data point (where Weiszfeld
    converges slowly).
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
    final = np.empty(len(big))
    active = np.arange(len(big))
    M = bits[big].astype(np.float64)                # rows of the active masks
    Y = (M @ P) / sizes[big][:, None]
    dist = np.maximum(cdist(Y, P), 1e-15)
    obj = (dist * M).sum(axis=1)
    for _ in range(max_iter):
        np.divide(M, dist, out=dist)                # the weights, in the distances' place
        Y = (dist @ P) / dist.sum(axis=1, keepdims=True)
        dist = cdist(Y, P)
        np.maximum(dist, 1e-15, out=dist)
        new_obj = (dist * M).sum(axis=1)
        moved = (obj - new_obj) > cfg.weiszfeld_tol * np.maximum(new_obj, 1e-30)
        obj = np.minimum(obj, new_obj)
        if not moved.all():
            final[active] = obj
            active, obj = active[moved], obj[moved]
            M = M[moved]
            dist = dist[moved]
            if len(active) == 0:
                break
    final[active] = obj
    costs[big] = np.minimum(final, _best_data_center_costs(D, bits)[big])
    return costs


def _lowest_bit_pass(table: np.ndarray, rows: np.ndarray, op) -> np.ndarray:
    """Fill table[mask] = op(table[mask ^ low], rows[b]) in place for every
    mask >= 1 of a table indexed by bitmask, low = 1 << b its lowest set
    bit; table[0] is the seed. The masks whose lowest set bit is b are
    view[:, 1, 0] of a reshape of the table and their parents view[:, 0, 0],
    which hold larger lowest bits, so b runs downward."""
    nm = len(table)
    for b in reversed(range(nm.bit_length() - 1)):
        view = table.reshape(nm >> (b + 1), 2, 1 << b, *table.shape[1:])
        op(view[:, 0, 0], rows[b], out=view[:, 1, 0])
    return table


def _best_data_center_costs(D: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """min over data points j in each mask of sum_{i in mask} D[i, j]."""
    nm, s = bits.shape
    sums = _lowest_bit_pass(np.zeros((nm, s)), D, np.add)
    return np.where(bits, sums, np.inf).min(axis=1)


# ---------------------------------------------------------------------------
# Exact partition DPs (facilities anywhere in space)
# ---------------------------------------------------------------------------

_DP_PAIRS = 8192        # (mask, submask) pairs per DP step: 64 KB per float temporary


def _submask_layers(s: int):
    """The (mask, submask) pairs the partition DPs scan, one popcount layer
    at a time. For p = 1..s, yields row chunks (S, T) of at most _DP_PAIRS
    pairs (s <= 14): S the masks of {0..s-1} with p set bits, ascending, and
    T[i] the 2^(p-1) submasks of S[i] that contain its lowest set bit, in
    decreasing order; both int32. Every split S = T + (S ^ T) of a layer
    refers to smaller layers only."""
    masks = np.arange(1, 1 << s, dtype=np.int32)
    bits = (masks[:, None] >> np.arange(s, dtype=np.int32)) & 1
    pop = bits.sum(axis=1)
    for p in range(1, s + 1):
        layer = pop == p
        S = masks[layer]
        pos = np.nonzero(bits[layer])[1].astype(np.int32).reshape(len(S), p)
        # bit i of j selects S's i-th set bit: decreasing odd j gives the
        # submasks holding the lowest bit, in decreasing order
        j = np.arange((1 << p) - 1, 0, -2, dtype=np.int32)
        T = np.zeros((len(S), len(j)), dtype=np.int32)
        for i in range(p):
            T |= ((j >> i) & 1) << pos[:, i, None]
        rows = max(1, _DP_PAIRS >> (p - 1))
        for a in range(0, len(S), rows):
            yield S[a:a + rows], T[a:a + rows]


def _ufl_partition_dp(med1: np.ndarray, s: int):
    """Minimize  #blocks + sum of 1-median costs  over all partitions of
    {0..s-1}. Returns (value, blocks).

    dp[S] splits off the block T holding S's lowest bit, at value
    dp[S ^ T] + 1 + med1[T]. It takes the least such value; among the
    values within 1e-12 of that least one, the split with the fewest
    blocks; among those, the first T in decreasing order."""
    nm = 1 << s
    dp = np.zeros(nm)
    blocks = np.zeros(nm, dtype=np.int64)
    choice = np.zeros(nm, dtype=np.int64)
    for S, T in _submask_layers(s):
        rest = S[:, None] ^ T
        v = dp[rest] + OPENING_COST
        v += med1[T]
        b = blocks[rest] + 1
        near = v <= v.min(axis=1, keepdims=True) + 1e-12
        i = np.where(near, b, nm).argmin(axis=1)
        r = np.arange(len(S))
        dp[S], blocks[S], choice[S] = v[r, i], b[r, i], T[r, i]
    parts = []
    S = nm - 1
    while S:
        T = int(choice[S])
        parts.append(_mask_ids(T, s))
        S ^= T
    return float(dp[nm - 1]), parts


def _kmedian_exact_dp(med1: np.ndarray, s: int, k: int):
    """Minimum sum of 1-median costs over partitions into exactly k blocks.
    Returns (value, blocks).

    value[j, S] is the least cost of S in j blocks, splitting off the block
    T holding S's lowest bit: the first least T in decreasing order. A mask
    of p points has no split into more than p blocks and keeps inf there."""
    nm = 1 << s
    value = np.full((k + 1, nm), np.inf)
    value[0, 0] = 0.0
    choice = np.zeros((k + 1, nm), dtype=np.int32)
    for S, T in _submask_layers(s):
        p = T.shape[1].bit_length()                 # T has 2^(p-1) columns
        rest = S[:, None] ^ T
        med = med1[T]
        r = np.arange(len(S))
        for j in range(1, min(k, p) + 1):
            v = value[j - 1][rest]
            v += med
            i = v.argmin(axis=1)
            value[j, S], choice[j, S] = v[r, i], T[r, i]
    parts = []
    S = nm - 1
    for j in range(k, 0, -1):
        T = int(choice[j, S])
        parts.append(_mask_ids(T, s))
        S ^= T
    return float(value[k, nm - 1]), parts


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
    _lowest_bit_pass(dmin, sub.T, np.minimum)
    size = _lowest_bit_pass(np.zeros(nm, dtype=np.int64), np.ones(m, dtype=np.int64), np.add)
    return dmin.sum(axis=1), size


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
    greedy + swap local search. Returns (facility ids, cost, certified).

    Local search scans candidates in position order and scores all of them
    at once. The greedy step adds the candidate of least total cost, the
    lowest position among equal costs. A swap round tries the chosen
    positions in order and, for each, replaces it by the lowest-position
    unchosen candidate that lowers the cost by a relative 1e-12; the first
    such swap restarts the round, and at most cfg.local_search_swaps rounds
    run. Returned ids are in chosen-position order."""
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

    # candidates x clients, C-contiguous: every row sum is a contiguous
    # reduction, rounded exactly like the sum of one client-cost vector
    subT = np.ascontiguousarray(sub.T)
    chosen: list[int] = []
    dcur = np.full(len(clients), np.inf)
    for _ in range(k):
        totals = np.minimum(dcur, subT).sum(axis=1)
        totals[chosen] = np.inf
        jbest = int(np.argmin(totals))
        chosen.append(jbest)
        dcur = np.minimum(dcur, subT[jbest])
    cost = float(dcur.sum())
    for _ in range(cfg.local_search_swaps):
        improved = False
        for out_pos in range(k):
            others = chosen[:out_pos] + chosen[out_pos + 1:]
            base = subT[others].min(axis=0) if others else np.full(len(clients), np.inf)
            trials = np.minimum(base, subT).sum(axis=1)
            trials[chosen] = np.inf
            better = np.flatnonzero(trials < cost * (1 - 1e-12))
            if len(better):
                chosen[out_pos] = int(better[0])
                cost = float(trials[better[0]])
                improved = True
                break
        if not improved:
            break
    return candidates[np.asarray(chosen)], cost, False


# ---------------------------------------------------------------------------
# k-median with ambient centers
# ---------------------------------------------------------------------------

def kmedian(points, k: int, cfg: SolverConfig = DEFAULT_SOLVER,
            medians: dict | None = None) -> KMedianResult:
    """k-median clustering with centers anywhere in space.

    Small inputs are solved exactly over all k-partitions with geometric
    median centers; larger ones fall back to local search over data-point
    centers followed by Weiszfeld refinement (certified=False).

    medians, if given, caches the 1-median of every block this call
    recenters: it maps the block's index array (block.tobytes()) to its
    WeiszfeldResult, and a block already in it is not solved again. Keys
    name rows of these points, so share one dict only across calls on the
    same points and cfg, as over a window of k.
    """
    P = _as_points(points)
    s = len(P)
    if not 1 <= k <= s:
        raise ValueError("k must lie in [1, |S|]")
    if k == s:
        return KMedianResult([np.array([i]) for i in range(s)], P.copy(), 0.0, True)
    if k == 1:
        blocks = [np.arange(s)]
        centers, cost = _recenter(P, blocks, cfg, medians)
        return KMedianResult(blocks, centers, cost, True)

    if s <= cfg.enum_threshold:
        med1 = _med1_costs(_affine_reduce(P), cfg)
        _, blocks = _kmedian_exact_dp(med1, s, k)
        centers, cost = _recenter(P, blocks, cfg, medians)
        return KMedianResult(blocks, centers, cost, True)

    D = squareform(pdist(P))
    ids, _, _ = kmedian_restricted(D, np.arange(s), np.arange(s), k, cfg)
    centers = P[ids]
    assign = np.argmin(cdist(P, centers), axis=1)
    blocks = [np.flatnonzero(assign == j) for j in range(k)]
    blocks = [b for b in blocks if len(b)]
    centers, cost = _recenter(P, blocks, cfg, medians)
    return KMedianResult(blocks, centers, cost, False)


def _recenter(P: np.ndarray, blocks, cfg: SolverConfig, medians: dict | None):
    medians = {} if medians is None else medians
    centers = []
    cost = 0.0
    for b in blocks:
        key = b.tobytes()
        if key not in medians:
            medians[key] = weiszfeld_1median(P[b], cfg)
        res = medians[key]
        centers.append(res.center)
        cost += res.cost
    return np.asarray(centers), float(cost)


# ---------------------------------------------------------------------------
# Constant-factor UFL approximation (ball growing, facilities in the input)
# ---------------------------------------------------------------------------

def _mp_radii(rows: np.ndarray) -> np.ndarray:
    """Per-candidate radius r solving sum_clients max(0, r - d) = opening cost,
    for rows of candidate-to-client distances.

    With the row sorted, r_j = (1 + d_1 + ... + d_j) / j, and r is the first
    r_j at most the next distance (1 + 1e-12 relative, 1e-15 absolute slack);
    the last r_j always qualifies. Rows are taken _RADII_CELLS distances at
    a time, so the temporaries stay small whatever the input's size and are
    reused from the heap instead of being mapped afresh on every call: per
    chunk, the sorted rows, scaled in place to the slackened bounds once
    their sums are taken, and the candidate radii."""
    n, s = rows.shape
    radii = np.empty(n)
    j = np.arange(1, s + 1)
    step = max(1, _RADII_CELLS // max(s, 1))
    for a in range(0, n, step):
        order = np.sort(rows[a:a + step], axis=1)
        r_cand = np.cumsum(order, axis=1)
        r_cand += OPENING_COST
        r_cand /= j
        order *= 1 + 1e-12
        order += 1e-15
        valid = np.ones(order.shape, dtype=bool)
        np.less_equal(r_cand[:, :-1], order[:, 1:], out=valid[:, :-1])
        radii[a:a + step] = r_cand[np.arange(len(order)), valid.argmax(axis=1)]
    return radii


def _mp_select(D: np.ndarray, ids: np.ndarray, radii: np.ndarray) -> list[int]:
    """Process candidates ids by increasing radius, ties by position; keep
    one unless an already kept candidate lies within twice its radius.
    Reads one column of D, restricted to ids, per kept candidate; returns
    positions into ids."""
    order = np.lexsort((np.arange(len(radii)), radii))
    reach = 2.0 * radii
    blocked = np.zeros(len(radii), dtype=bool)   # within reach of a kept candidate
    selected: list[int] = []
    for y in order:
        if not blocked[y]:
            selected.append(int(y))
            blocked |= D[:, ids[y]][ids] <= reach
    return selected


def approx_ufl(X: PointSet, cfg: SolverConfig = DEFAULT_SOLVER) -> UflSolution:
    """Deterministic constant-factor UFL approximation with facilities drawn
    from the input (ball-growing; 3-approximate against the best such
    solution, hence at most 6 against the continuous optimum, since moving
    optimal ambient facilities onto the input loses at most a factor 2)."""
    D = X.distance_matrix()
    facilities = _mp_select(D, np.arange(X.n), _mp_radii(D))
    ids = np.asarray(facilities, dtype=int)
    return ufl_cost(X, X.coords[ids], facility_ids=ids)


def mp_ufl_value(D: np.ndarray, members: np.ndarray) -> tuple[float, np.ndarray]:
    """Ball-growing UFL cost of a subset of a distance matrix.
    Returns (cost, facility ids within members)."""
    members = np.asarray(members, dtype=int)
    sub = D[np.ix_(members, members)]
    sel = _mp_select(D, members, _mp_radii(sub))
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
    sel = _mp_select(D, candidates, radii)
    conn = sub[sel].min(axis=0).sum()
    return float(OPENING_COST * len(sel) + conn), 3.0, candidates[sel]
