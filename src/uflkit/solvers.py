"""UFL and k-median subroutines: a deterministic O(n^2) ball-growing
constant-factor UFL approximation, a certified 1-median iteration, exact
k-median by dynamic programming over subsets, a local-search fallback for
larger inputs, and exhaustive oracles used for validation.

Both pipelines run these solvers with fixed settings, the module constants
below: a 1-median stops once its distance sum is within _WEISZFELD_TOL
(relative) of Kuhn's lower bound, which proves it within that of the
optimum, or after _WEISZFELD_MAX_ITER steps; k-median and the continuous
oracle enumerate up to _ENUM_THRESHOLD points; and local search makes at
most _LOCAL_SEARCH_SWAPS swap rounds per k.

Exhaustive paths reduce coordinates to the affine span of the input first;
this is an exact isometry on the points and on any geometric median (which
lies in their convex hull), so oracle values are unaffected while the cost
no longer depends on the ambient dimension.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .geometry import OPENING_COST, OracleScaleError, PointSet, UflSolution, distances, ufl_cost

_WEISZFELD_TOL = 1e-10
_WEISZFELD_MAX_ITER = 10000
_ENUM_THRESHOLD = 12    # at most 14, the partition DPs' scale; read at call time
_LOCAL_SEARCH_SWAPS = 40
_MAX_DISCRETE = 15      # hard cap on facility-subset enumeration
_MAX_SUBSET_CELLS = 4_000_000   # cap on (facility subset, client) table cells
_PAIR_CELLS = 65536             # (row, coordinate, member, member) cells per _member_sums chunk
_RADII_CELLS = 8192             # distances per _mp_radii chunk: 64 KB per float temporary


def _subset_enumerable(facilities: int, clients: int) -> bool:
    """True iff the facility-subset table of _subset_table is small enough
    to enumerate: at most _MAX_DISCRETE facilities and _MAX_SUBSET_CELLS
    (subset, client) cells."""
    return facilities <= _MAX_DISCRETE and (1 << facilities) * clients <= _MAX_SUBSET_CELLS


def _mask_ids(mask: int, s: int) -> np.ndarray:
    """Positions 0..s-1 of the set bits of mask, ascending."""
    return np.flatnonzero((int(mask) >> np.arange(s)) & 1)


class WeiszfeldResult(NamedTuple):
    center: np.ndarray
    cost: float                  # distance sum at center
    converged: bool              # cost - lower <= _WEISZFELD_TOL * cost
    lower: float                 # at most the distance sum anywhere


class KMedianResult(NamedTuple):
    clusters: list[np.ndarray]   # index lists into the input point list
    centers: np.ndarray          # (k, dim)
    cost: float                  # total connection cost
    certified: bool              # exact: k = 1, k = s, or at most _ENUM_THRESHOLD points


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

def weiszfeld_1median(points, *, blocks=None):
    """Geometric medians of blocks of points: the data-point certificate of
    _certify, else the certified iteration of _median_lockstep from the
    centroid.

    blocks is a list of non-empty index arrays into points, and the result
    a list of WeiszfeldResult, one per block in block order; without it all
    points form one block and the result is its WeiszfeldResult.

    Each block works on its own members only. _width_class gathers them, in
    block order, into a row of width w, the least power of two at least the
    block's size, padded with its first member under a 0/1 mask. _certify,
    with the sums of _member_sums, and _median_lockstep then run once per
    width present. Every pass reduces row by row over the w members, so a
    block's bytes depend only on its members' coordinates in order: not on
    the other blocks of its call, and weiszfeld_1median(P, blocks=[b])[0]
    is weiszfeld_1median(P[b]). (Padding every block to the widest of its
    call would change each reduction's length, and with it the rounding.)

    A certified block returns its member p_j with its distance sum as both
    cost and lower bound, and no iteration. Otherwise cost is the distance
    sum at the center and lower a bound below every distance sum; converged
    means cost - lower <= _WEISZFELD_TOL * cost, which only a run cut at
    _WEISZFELD_MAX_ITER steps misses.
    """
    P = _as_points(points)
    one = blocks is None
    if one:
        blocks = [np.arange(len(P))]
    if not all(len(b) for b in blocks):
        raise ValueError("empty block")
    widths = np.array([1 << (len(b) - 1).bit_length() for b in blocks])
    cost, lower = np.empty(len(blocks)), np.empty(len(blocks))
    centers = np.empty((len(blocks), P.shape[1]))
    for w in np.unique(widths):
        rows = np.flatnonzero(widths == w)
        G, M = _width_class(P, [blocks[i] for i in rows], w)
        GT = np.ascontiguousarray(G.transpose(0, 2, 1))     # (row, coordinate, member)
        j, c, certified = _certify(GT, M, _member_sums(GT, M))
        cost[rows], lower[rows], centers[rows] = c, c, G[np.arange(len(rows)), j]
        rest = np.flatnonzero(~certified)
        if len(rest):
            cost[rows[rest]], lower[rows[rest]], centers[rows[rest]] = _median_lockstep(
                G[rest], M[rest])
    converged = cost - lower <= _WEISZFELD_TOL * cost
    out = [WeiszfeldResult(c, float(u), bool(ok), float(lo))
           for c, u, ok, lo in zip(centers, cost, converged, lower)]
    return out[0] if one else out


def _width_class(P: np.ndarray, blocks: list, w: int):
    """The blocks' members gathered into rows of width w: (G, M) with G[i]
    (w x k) the coordinates of blocks[i] in order, padded with its first
    member, and M[i] the 0/1 mask of its members."""
    sizes = np.array([len(b) for b in blocks])
    M = (np.arange(w) < sizes[:, None]).astype(np.float64)
    idx = np.repeat(np.array([b[0] for b in blocks]), w).reshape(len(blocks), w)
    idx[M > 0] = np.concatenate(blocks)
    return P[idx], M


def _member_sums(PT: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sums[i, a] = sum over b of M[i, b] |p_a - p_b|, p the points of row
    i: each member's distance sum to the members of its row, for per-row
    points PT (r x k x w) stored coordinate by coordinate. Coordinates run
    outermost, so the distances reduce along whole (a, b) planes, and
    chunks of rows and of the members a hold at most _PAIR_CELLS (row,
    coordinate, a, b) cells. Members a at or past the most any row has are
    padding in every row, whose sums no caller reads: they are skipped."""
    r, k, w = PT.shape
    sums = np.zeros((r, w))
    cols = min(w, max(1, _PAIR_CELLS // (w * k)))
    rows = max(1, _PAIR_CELLS // (w * w * k))
    for a in range(0, r, rows):
        Q, m = PT[a:a + rows], M[a:a + rows]
        for b in range(0, int(m.sum(axis=1).max()), cols):
            diff = Q[:, :, b:b + cols, None] - Q[:, :, None, :]
            d = np.einsum("rkab,rkab->rab", diff, diff)
            np.sqrt(d, out=d)
            sums[a:a + rows, b:b + cols] = np.einsum("rab,rb->ra", d, m)
    return sums


def _certify(PT: np.ndarray, M: np.ndarray, sums: np.ndarray):
    """Kuhn's data-point certificate for the rows of per-row points PT (r x
    k x w, coordinate by coordinate) whose members the 0/1 rows of M
    select. The caller passes sums (r x w), each member's distance sum to
    its row's members, which is overwritten: _member_sums for gathered
    blocks, or one product with a shared distance matrix. Returns (j, best,
    certified): j[i] the first member of least distance sum in row i,
    best[i] that sum, and certified[i] whether the test below proves member
    j[i] a median of row i.

    The test is Kuhn's optimality test at x, member j of its row: with eta
    the members equal to x and g the sum of unit vectors from x toward the
    others, x is a median iff |g| <= eta. A median minimises the distance
    sum over all of space, so if any member is a median, x is one. The test is
    strict, |g| < eta * (1 - 1e-9): two points, or an even number on a
    line, have |g| = eta exactly, because a whole segment of medians joins
    the middle two, and there the iteration keeps its midpoint answer. Only
    exact copies of x count toward eta; a point merely close to x still
    pulls, or a vertex of a tiny triangle would pass although its centroid
    costs less.

    The test takes _MEDIAN_CELLS (row, coordinate, member) cells at a
    time, reduced row by row along the members; PT may be a broadcast
    view."""
    r, k, w = PT.shape
    sums[M == 0.0] = np.inf
    j = sums.argmin(axis=1)
    best = sums[np.arange(r), j]
    certified = np.empty(r, dtype=bool)
    rows = max(1, _MEDIAN_CELLS // (w * k))
    for a in range(0, r, rows):
        m = M[a:a + rows]
        at = np.arange(a, a + len(m))
        B = PT[a:a + rows] - PT[at, :, j[at]][:, :, None]
        d = np.sqrt(np.einsum("rkn,rkn->rn", B, B))
        eta = np.einsum("rn,rn->r", m, d == 0.0)
        g = np.einsum("rkn,rn->rk", B, np.divide(m, d, out=np.zeros(d.shape), where=d > 0.0))
        certified[a:a + rows] = np.sqrt(np.einsum("rk,rk->r", g, g)) < eta * (1.0 - 1e-9)
    return j, best, certified


def _med1_costs(P: np.ndarray) -> np.ndarray:
    """1-median cost of every subset of P, indexed by bitmask, in P's affine span.

    Every mask first gets the data-point certificate of _certify. A mask
    that passes costs its least data-point sum, its optimum, and so does
    every mask of at most two points. The other masks run _median_lockstep
    together from their centroids, so each value is a distance sum attained
    at a real center and within _WEISZFELD_TOL (relative) of the optimum
    unless its row ran _WEISZFELD_MAX_ITER steps; the least data-point
    sum still caps it. Every row reads P through one broadcast view, and
    the certificate's sums come from P's one distance matrix.
    """
    P = _affine_reduce(P)
    s = len(P)
    M = ((np.arange(1, 1 << s)[:, None] >> np.arange(s)) & 1).astype(np.float64)
    PT = np.ascontiguousarray(P.T)          # (coordinate, point): B below runs along points
    _, costs, certified = _certify(np.broadcast_to(PT, (len(M),) + PT.shape), M,
                                   np.einsum("rn,cn->rc", M, distances(P)))
    rest = np.flatnonzero(~certified & (M.sum(axis=1) >= 3))
    M = M[rest]                             # drops the full table before the kernel
    upper, _, _ = _median_lockstep(np.broadcast_to(P, (len(M),) + P.shape), M)
    costs[rest] = np.minimum(upper, costs[rest])
    return np.concatenate(([0.0], costs))


_MEDIAN_CELLS = 16384   # (row, point, coordinate) cells per lockstep chunk: 128 KB per temporary
_BACKTRACK = 12         # halvings of a Newton step before a Weiszfeld step replaces it
_SLACK = 1.0 + 4.0 * np.finfo(np.float64).eps   # a step may raise the sum by 4 ulp
_ROUNDING = 16.0 * np.finfo(np.float64).eps     # Newton gains below this share are unmeasurable
_NEAR = 1e-3            # a member this close, relative to the distance sum, anchors its row


def _median_lockstep(P: np.ndarray, M: np.ndarray):
    """Certified geometric medians of the rows of per-row points P (r x w x
    k) whose members the 0/1 rows of M (r x w) select, iterated in lockstep
    from their centroids. P may be a broadcast view, as _med1_costs passes
    one point set for every row. Returns (upper, lower, centers): upper[i]
    is the distance sum of row i's members at centers[i], and lower[i] is
    at most their distance sum anywhere.

    A step tries, per row, the Newton step y - H^-1 g, with g = sum u_i the
    gradient, H = sum w_i (I - u_i u_i^T), w_i = 1/d_i and u_i the unit
    vector from p_i to y. The step stands if it does not raise the distance
    sum by more than 4 ulp, or if its predicted gain g . H^-1 g / 2 is below
    rounding. Otherwise, on a row with a member within _NEAR of its
    distance sum, Vardi and Zhang's step from that member (_escape_offsets)
    stands if it lowers the sum, as Newton's model misses the kink there;
    then the Newton step is halved up to _BACKTRACK times; then a Weiszfeld
    step replaces it, as it does for a singular H (a collinear span). A row
    on a data point skips Newton, and its Weiszfeld step is blended with y
    as Vardi and Zhang's is. Members within _WEISZFELD_TOL * f / (4 *
    size) of y, f the row's distance sum, count as copies of y: they add at
    most a quarter of the tolerance to the gap, and a cluster finer than
    that is not resolved point by point.

    The bound is Kuhn's dual: for vectors v_i of norm at most 1 that sum to
    zero, sum v_i . (y - p_i) is at most every distance sum. The v_i are
    the u_i shifted by -g / size (on a data point, the eta copies of y take
    -g / eta each and the others stay), divided by the largest norm that
    shift can give. A row keeps the best bound it reaches and stops once
    upper - lower <= _WEISZFELD_TOL * upper, or after
    _WEISZFELD_MAX_ITER steps; a stopped row leaves the arrays. Rows run
    _MEDIAN_CELLS (row, member, coordinate) cells at a time, which bounds
    every temporary.

    Per step, g is one einsum reduction over the w members, and sum w_i
    u_i u_i^T one batched matrix product (U W)^T U with a k x k result per
    row. Each reduces within its row, so a row's result depends only on its
    own points and mask, not on the rows beside it."""
    r, w, k = P.shape
    upper = np.empty(r)
    lower = np.empty(r)
    centers = np.empty((r, k))
    rows = max(1, _MEDIAN_CELLS // (w * k))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, r, rows):
            part = slice(a, a + rows)
            _median_rows(P[part], M[part], centers[part], upper[part], lower[part])
    return upper, lower, centers


def _sums_at(D: np.ndarray, M: np.ndarray):
    """Lengths (r x n) of the differences D (r x n x k) and the rows'
    distance sums over their members M."""
    d = np.einsum("rnk,rnk->rn", D, D)
    np.sqrt(d, out=d)
    return d, np.einsum("rn,rn->r", d, M)


def _escape_offsets(B: np.ndarray, M: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Vardi-Zhang's step from each row's anchor p_a, as an offset from p_a:
    with eta members within near * (their distance sum from p_a) of p_a
    and g the sum of the unit vectors from the other members to p_a, the
    others' Weiszfeld point blended with p_a by min(1, eta / |g|); zero if
    p_a is the median (|g| <= eta)."""
    nb = np.sqrt(np.einsum("rnk,rnk->rn", B, B))
    copies = nb <= (near * np.einsum("rn,rn->r", nb, M))[:, None]
    w = np.divide(M, nb, out=np.zeros(nb.shape), where=~copies)
    g = np.einsum("rnk,rn->rk", B, w)
    eta = np.einsum("rn,rn->r", M, copies)
    blend = np.minimum(1.0, eta / np.sqrt(np.einsum("rk,rk->r", g, g)))
    return g * ((blend - 1.0) / w.sum(axis=1))[:, None]


def _median_rows(P, M, y, upper, lower):
    """_median_lockstep on one chunk of rows, writing into the views y,
    upper and lower. P holds every row of the chunk; the active rows read
    theirs through pos, so rows that stop cost no copy of P.

    A row holds y as an anchor p_a and the offset delta = y - p_a, with B =
    p_a - P, so that y - p_i = B + delta. Once a member comes within _NEAR
    of the distance sum, it becomes the anchor: the differences then keep
    their full relative precision however close y comes to it, and a
    median can lie 1e-7 of its set's diameter away from a data point.

    U = (y - p_i) w_i holds the unit vectors, so g = einsum("rnk->rk", U)
    and the Hessian's sum is (U W)^T @ U, batched over rows. Stopped rows
    leave by one integer take per array; the rows a Newton step fails on
    are gathered once for the halvings and shrunk only when one passes."""
    keep_frac, last = 1.0 - _WEISZFELD_TOL, _WEISZFELD_MAX_ITER
    pos = np.arange(len(M))                     # active row -> chunk row
    member = M > 0
    size = M.sum(axis=1)
    copy = _WEISZFELD_TOL / (4.0 * size)        # copies of y: within copy * f
    # einsum, not M @ P: a matrix product rounds a row differently
    # depending on the rows beside it
    centroid = np.einsum("rn,rnk->rk", M, P) / size[:, None]
    eye = np.eye(P.shape[2])
    a = member.argmax(axis=1)
    Pa = P[pos, a]
    B = Pa[:, None, :] - P
    ac = Pa - centroid                          # y - centroid = ac + delta
    delta = -ac
    D = B + delta[:, None, :]
    d, f = _sums_at(D, M)
    lo = np.zeros(len(M))
    for it in range(last + 1):
        W = np.divide(M, d, out=np.zeros(d.shape), where=member)
        close = W.max(axis=1) * f >= 1.0 / _NEAR
        on = None
        if close.any():
            c = np.flatnonzero(close)
            near = W[c].argmax(axis=1)
            a[c], delta[c] = near, D[c, near]
            Pn = P[pos[c], near]
            B[c] = Pn[:, None, :] - P[pos[c]]
            ac[c] = Pn - centroid[c]
            hit = member[c] & (d[c] <= (copy[c] * f[c])[:, None])
            at = hit.any(axis=1)
            if at.any():
                h, hit = c[at], hit[at]
                on, share = np.zeros(len(M), dtype=bool), np.zeros(len(M))
                on[h] = True
                eta = share[h] = hit.sum(axis=1)
                W[h] = np.where(hit, 0.0, W[h])
        U = D                                   # D is rebuilt by the step
        U *= W[:, :, None]
        g = np.einsum("rnk->rk", U)
        gnorm = np.sqrt(np.einsum("rk,rk->r", g, g))
        # sum v_i . (y - p_i) is the others' distance sum minus g . (y - c),
        # c the mean of the shifted points
        yc, rest, scale = ac + delta, f, 1.0 + gnorm / size
        if on is not None:
            rest = f.copy()
            yc[h] += centroid[h] - np.einsum("rn,rnk->rk", hit, P[pos[h]]) / eta[:, None]
            rest[h] = np.einsum("rn,rn->r", np.where(hit, 0.0, d[h]), M[h])
            scale[h] = np.maximum(1.0, gnorm[h] / eta)
        np.maximum(lo, (rest - np.einsum("rk,rk->r", g, yc)) / scale, out=lo)
        stop = lo >= f * keep_frac
        if it == last or stop.all():
            y[pos] = P[pos, a] + delta
            upper[pos], lower[pos] = f, np.minimum(lo, f)
            return
        if stop.any():
            out = pos[stop]
            y[out] = P[out, a[stop]] + delta[stop]
            upper[out], lower[out] = f[stop], np.minimum(lo[stop], f[stop])
            # take, which gathers rows far faster than a boolean mask; the
            # large arrays one at a time, so that each old copy is freed
            # before the next is made (d is rebuilt by the step)
            keep = np.flatnonzero(~stop)
            B = B.take(keep, axis=0)
            U = U.take(keep, axis=0)
            W = W.take(keep, axis=0)
            M = M.take(keep, axis=0)
            member = member.take(keep, axis=0)
            pos, size, copy, centroid, a, ac, delta, f, lo, g, gnorm, close = (
                v.take(keep, axis=0) for v in
                (pos, size, copy, centroid, a, ac, delta, f, lo, g, gnorm, close))
            if on is not None:
                on, share = on.take(keep), share.take(keep)

        sw = W.sum(axis=1)
        H = sw[:, None, None] * eye
        H -= (U * W[:, :, None]).transpose(0, 2, 1) @ U
        try:
            s = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.det(H) == 0.0
            H[singular] = eye
            s = np.linalg.solve(H, g[:, :, None])[:, :, 0]
            s[singular] = np.nan
        if on is not None:
            s[on] = np.nan
        step = delta - s
        Dt = B + step[:, None, :]
        dt, ft = _sums_at(Dt, M)
        ok = ft <= f * _SLACK
        if not ok.all():
            # a step whose predicted gain g . s / 2 is below rounding stands;
            # one that does not descend is replaced
            slope = np.einsum("rk,rk->r", g, s)
            ok |= (slope >= 0.0) & (slope <= _ROUNDING * f)
            # near a data point Newton's model misses the kink there: try
            # Vardi-Zhang's step from that point
            e = np.flatnonzero(~ok & close)
            if len(e):
                Db = B[e]
                sb = _escape_offsets(Db, M[e], copy[e])
                Db += sb[:, None, :]
                db, fb = _sums_at(Db, M[e])
                good = fb < f[e]                # repeating it gains nothing
                done = e[good]
                step[done], Dt[done], dt[done], ft[done] = sb[good], Db[good], db[good], fb[good]
                ok[done] = True
            retry = np.flatnonzero(~ok & np.isfinite(ft) & (slope > 0.0))
            # the retried rows' arrays, gathered once and shrunk only when
            # a halving passes
            Br, Mr, dr, sr, fr = (v.take(retry, axis=0) for v in (B, M, delta, s, f))
            fr *= _SLACK
            t = 1.0
            for _ in range(_BACKTRACK):
                if len(retry) == 0:
                    break
                t *= 0.5
                sb = dr - t * sr
                Db = Br + sb[:, None, :]
                db, fb = _sums_at(Db, Mr)
                good = fb <= fr
                if good.any():
                    won = np.flatnonzero(good)
                    done = retry[won]
                    step[done], Dt[done], dt[done], ft[done] = sb[won], Db[won], db[won], fb[won]
                    ok[done] = True
                    left = np.flatnonzero(~good)
                    retry, Br, Mr, dr, sr, fr = (v.take(left, axis=0)
                                                 for v in (retry, Br, Mr, dr, sr, fr))
            e = np.flatnonzero(~ok)             # Weiszfeld, on a data point blended with y
            if len(e):
                keep_y = 0.0 if on is None else np.minimum(1.0, share[e] / gnorm[e]) * on[e]
                step[e] = delta[e] - g[e] * ((1.0 - keep_y) / sw[e])[:, None]
                Dt[e] = B[e] + step[e][:, None, :]
                dt[e], ft[e] = _sums_at(Dt[e], M[e])
        delta, D, d, f = step, Dt, dt, ft


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
    refers to smaller layers only.

    Each layer is built from the one before it. The masks of layer p + 1
    with highest bit h are h | R for the masks R of layer p below 1 << h,
    which are its first comb(h, p) rows; and T(h | R) = [T(R) | h, T(R)],
    since the submasks holding h come first in decreasing order. Only the
    current and the next layer are held: 4.1 MB of int32 at s = 14 (layers
    9 and 10, 1 025 024 submasks)."""
    S = 1 << np.arange(s, dtype=np.int32)
    T = S[:, None]
    for p in range(1, s + 1):
        rows = max(1, _DP_PAIRS >> (p - 1))
        for a in range(0, len(S), rows):
            yield S[a:a + rows], T[a:a + rows]
        if p == s:
            return
        half = T.shape[1]
        S_next = np.empty(math.comb(s, p + 1), dtype=np.int32)
        T_next = np.empty((len(S_next), 2 * half), dtype=np.int32)
        at = 0
        for h in range(p, s):
            c = math.comb(h, p)
            np.bitwise_or(S[:c], 1 << h, out=S_next[at:at + c])
            np.bitwise_or(T[:c], 1 << h, out=T_next[at:at + c, :half])
            T_next[at:at + c, half:] = T[:c]
            at += c
        S, T = S_next, T_next


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

    value[j, S] is the cost of S in j blocks, splitting off the block T
    holding S's lowest bit: among the splits within 1e-12 of the least, the
    first T in decreasing order, as _ufl_partition_dp breaks its ties, so
    that last-bit changes in med1 do not swap blocks of equal cost. A mask
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
            i = (v <= v.min(axis=1, keepdims=True) + 1e-12).argmax(axis=1)
            value[j, S], choice[j, S] = v[r, i], T[r, i]
    parts = []
    S = nm - 1
    for j in range(k, 0, -1):
        T = int(choice[j, S])
        parts.append(_mask_ids(T, s))
        S ^= T
    return float(value[k, nm - 1]), parts


def brute_force_ufl_continuous(points) -> float:
    """opt(S) with ambient facilities, by exhaustive partition DP with
    geometric-median block centers, each within _WEISZFELD_TOL of its
    optimum by Kuhn's bound unless cut at _WEISZFELD_MAX_ITER steps. Raises
    OracleScaleError, with the count and the cap, beyond _ENUM_THRESHOLD points."""
    P = _as_points(points)
    if len(P) > _ENUM_THRESHOLD:
        raise OracleScaleError(f"oracle scale exceeded: {len(P)} points, "
                               f"the continuous oracle takes at most {_ENUM_THRESHOLD}")
    value, _ = _ufl_partition_dp(_med1_costs(P), len(P))
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
        raise OracleScaleError(f"oracle scale exceeded: {m} facilities for {nc} clients, the "
                               f"discrete oracle takes at most {_MAX_DISCRETE} and "
                               f"{_MAX_SUBSET_CELLS} table cells")
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
    arr = _as_points(points_or_matrix)
    cost, size = _subset_table(arr if is_matrix else distances(arr))
    return float((OPENING_COST * size[1:] + cost[1:]).min())


def restricted_kmedians(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray):
    """k-median over D restricted to candidate ids for k = 1, ...,
    #candidates from one slice of D, yielding (facility ids, cost, certified)
    per k: the first least mask of each size in one subset table when the
    candidates are enumerable, else one chain of local optima. Each k adds
    to k - 1's local optimum the candidate that lowers the cost most (lowest
    position among ties) and improves that set by _swap_rounds; a
    single-swap local optimum is 5-approximate whatever its start (Arya et
    al., SICOMP 2004). Ids are in chosen order."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    m = len(candidates)
    if _subset_enumerable(m, len(clients)):
        cost, size = _subset_table(D[np.ix_(clients, candidates)])
        for k in range(1, m + 1):
            best = int(np.argmin(np.where(size == k, cost, np.inf)))   # first least mask
            yield candidates[_mask_ids(best, m)], float(cost[best]), True
        return

    # candidates x clients, C-contiguous: a row sum rounds as one client-cost vector's
    subT = D[np.ix_(clients, candidates)].T.copy()
    chosen, dcur = np.empty(0, dtype=int), np.full(len(clients), np.inf)
    for k in range(1, m + 1):
        totals = np.minimum(dcur, subT).sum(axis=1)
        totals[chosen] = np.inf
        j = np.argmin(totals)
        chosen, cost = _swap_rounds(subT, np.append(chosen, j), float(totals[j]))
        dcur = subT[chosen].min(axis=0)
        yield candidates[chosen], cost, False


def _swap_rounds(subT: np.ndarray, chosen: np.ndarray, cost: float):
    """Single-swap local search on subT's rows from chosen at its cost, at
    most _LOCAL_SEARCH_SWAPS rounds. A round makes the first swap that
    lowers the cost by a relative 1e-12 (chosen positions in order, each
    against the unchosen candidates in position order). It scores chunks of
    positions at once, each temporary at most subT's size, over the
    candidates R nearer than the chosen set to some client, or all rows if
    R has more than half. Dropping position o leaves the clients at base_o =
    where(near == o, d2, d1) >= d1 (d1, d2 the nearest and second-nearest
    chosen distances, d1 at near), so a j outside R, chosen ones included,
    scores >= sum(d1) = cost, rounding being monotone for a fixed reduction:
    it never passes, and scoring it changes nothing."""
    cols = np.arange(subT.shape[1])
    for _ in range(_LOCAL_SEARCH_SWAPS):
        threshold = cost * (1 - 1e-12)
        block = subT[chosen]
        near = block.argmin(axis=0)
        d1 = block[near, cols]
        block[near, cols] = np.inf
        base = d1[None].repeat(len(chosen), axis=0)             # row o is base_o
        base[near, cols] = block.min(axis=0)
        R = (subT < d1).any(axis=1).nonzero()[0]
        # gathering more than half the rows would cost more than it saves
        R, rows = (np.arange(len(subT)), subT) if 2 * len(R) > len(subT) else (R, subT[R])
        step = len(subT) // max(1, len(R))      # R is empty when no swap can pass
        for lo in range(0, len(chosen), step):
            trials = np.minimum(base[lo:lo + step, None], rows).sum(axis=2)
            if trials.min(initial=np.inf) < threshold:
                o, r = divmod(int((trials < threshold).argmax()), len(R))
                chosen[lo + o], cost = R[r], float(trials[o, r])
                break
        else:
            break
    return chosen, cost


def kmedian_restricted(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray, k: int):
    """The k-th yield of restricted_kmedians, the heuristic chain having
    walked k = 1..k - 1 to reach it."""
    if not 1 <= k <= len(candidates):
        raise ValueError("k must lie in [1, #candidates]")
    return next(itertools.islice(restricted_kmedians(D, clients, candidates), k - 1, None))


# ---------------------------------------------------------------------------
# k-median with ambient centers
# ---------------------------------------------------------------------------

def kmedian(points, k: int) -> KMedianResult:
    """k-median clustering with centers anywhere in space.

    k = 1 is one block and k = s singletons. Otherwise inputs of at most
    _ENUM_THRESHOLD points are solved exactly over all k-partitions with
    geometric median centers; larger ones (certified=False) group the points
    by _nearest_blocks around kmedian_restricted's k centers over their
    distance matrix, every point a candidate. The blocks are recentered in
    one weiszfeld_1median call."""
    P = _as_points(points)
    s = len(P)
    if not 1 <= k <= s:
        raise ValueError("k must lie in [1, |S|]")
    exact = s <= _ENUM_THRESHOLD
    if k == 1:
        blocks = [np.arange(s)]
    elif k == s:
        blocks = [np.array([i]) for i in range(s)]
    elif exact:
        _, blocks = _kmedian_exact_dp(_med1_costs(P), s, k)
    else:
        D, every = distances(P), np.arange(s)
        blocks = _nearest_blocks(D[:, kmedian_restricted(D, every, every, k)[0]])
    meds = weiszfeld_1median(P, blocks=blocks)
    return KMedianResult(blocks, np.array([m.center for m in meds]),
                         float(sum(m.cost for m in meds)), k in (1, s) or exact)


def _nearest_blocks(dist: np.ndarray) -> list[np.ndarray]:
    """For each column of dist (points x facilities), the positions of the
    points nearest it, the first column among ties; empty blocks dropped."""
    assign = np.argmin(dist, axis=1)
    blocks = [np.flatnonzero(assign == j) for j in range(dist.shape[1])]
    return [b for b in blocks if len(b)]


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


def approx_ufl(X: PointSet) -> UflSolution:
    """Deterministic constant-factor UFL approximation with facilities drawn
    from the input (ball-growing; 3-approximate against the best such
    solution, hence at most 6 against the continuous optimum, since moving
    optimal ambient facilities onto the input loses at most a factor 2)."""
    D = X.distance_matrix()
    facilities = _mp_select(D, np.arange(X.n), _mp_radii(D))
    ids = np.asarray(facilities, dtype=int)
    return ufl_cost(X, X.coords[ids], facility_ids=ids)


def mp_ufl_value(D: np.ndarray, members: np.ndarray) -> tuple[float, np.ndarray]:
    """Ball-growing UFL cost of a subset of a symmetric distance matrix,
    with the members as both clients and candidates.
    Returns (cost, facility ids within members)."""
    cost, _, ids = restricted_ufl_value(D, members, members)
    return cost, ids


def restricted_ufl_value(D: np.ndarray, clients: np.ndarray,
                         candidates: np.ndarray) -> tuple[float, float, np.ndarray]:
    """UFL cost of clients with facilities restricted to candidate ids, by
    ball growing over the candidate set, certified within factor 3 of the
    restricted optimum. Returns (cost, certified factor, facility ids)."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    sub = D[np.ix_(candidates, clients)]
    radii = _mp_radii(sub)
    sel = _mp_select(D, candidates, radii)
    conn = sub[sel].min(axis=0).sum()
    return float(OPENING_COST * len(sel) + conn), 3.0, candidates[sel]
