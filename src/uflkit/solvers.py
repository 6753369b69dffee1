"""UFL and k-median subroutines: a deterministic O(n^2) ball-growing
constant-factor UFL approximation, a certified 1-median iteration, exact
k-median by dynamic programming over subsets, add/drop/swap local search
for UFL over candidate facilities (the pipelines' per-part solver), and
exhaustive oracles used for validation.

Both pipelines run these solvers with fixed settings, the module constants
below: a 1-median stops once its distance sum is within _WEISZFELD_TOL
(relative) of Kuhn's lower bound, which proves it within that of the
optimum, or after _WEISZFELD_MAX_ITER steps; k-median and the continuous
oracle enumerate up to _ENUM_THRESHOLD points, and the UFL local search
runs to a local optimum.

Exact UFL with ambient facilities, the continuous oracle and the Euclidean
pipeline's exact sweep alike, goes through _ufl_exact: a partition DP over
subset 1-median costs, which iterates only the subsets that Kuhn's bound
at their centroids leaves able to enter a near-optimal partition, and
whose final DP (_live_partition_dp) visits only those blocks and the rows
they can reach. Exact k-median reads the full subset table, _med1_costs,
with a DP over every (mask, submask) pair.

Every 1-median runs in coordinates of its block's affine span, of
dimension at most one less than the block's size: an isometry on the points
and on their geometric medians (which lie in their convex hull), which
leaves Kuhn's certificate and the Vardi-Zhang step unchanged, so that a
step's cost no longer grows with the ambient dimension. The exhaustive
paths reduce the whole input once, and weiszfeld_1median each block it
iterates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (OPENING_COST, OracleScaleError, PointSet, UflSolution, checked_coords,
                       distances, ufl_cost)

_WEISZFELD_TOL = 1e-10
_WEISZFELD_MAX_ITER = 10000
_ENUM_THRESHOLD = 12    # at most 14, _submask_layers' scale; read at call time
_MAX_DISCRETE = 15      # hard cap on facility-subset enumeration
_MAX_SUBSET_CELLS = 4_000_000   # cap on (facility subset, client) table cells
_PAIR_CELLS = 65536             # (row, coordinate, member, member) cells per _member_sums chunk
_RADII_CELLS = 8192             # distances per _mp_radii chunk: 64 KB per float temporary
_SHORT_ROW = 64                 # _mp_radii sorts rows of at most this many clients whole


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


def _as_points(points) -> np.ndarray:
    """(n, d) coordinates of a non-empty point list, with PointSet's checks;
    a flat list is one point."""
    if isinstance(points, PointSet):
        return points.coords
    P = np.asarray(points, dtype=np.float64)
    if P.ndim > 0 and len(P) == 0:
        raise ValueError("empty point set")
    return checked_coords(P[None] if P.ndim == 1 else P)


def _span(C: np.ndarray, k: int):
    """Coordinates of centred rows C (r x w x d) in orthonormal bases of
    their spans, from one batched SVD: (Y, V) with Y (r x w x k) and V (r x
    k x d), so that C[i] is Y[i] @ V[i] up to rounding when row i has rank
    at most k. Singular values at most 1e-12 of their row's largest count
    as zero, and their columns of Y are exact zeros."""
    U, s, V = np.linalg.svd(C, full_matrices=False)
    s = s[:, :k]
    s = np.where(s > s[:, :1] * 1e-12, s, 0.0)
    return U[:, :, :k] * s[:, None, :], V[:, :k]


def _affine_reduce(P: np.ndarray) -> np.ndarray:
    """Coordinates of P in an orthonormal basis of its affine span: _span's
    one-set case, cut to its rank (one zero column at rank 0)."""
    Y = _span((P - P.mean(axis=0))[None], min(P.shape))[0][0]
    return Y[:, :max(1, int(Y.any(axis=0).sum()))]


# ---------------------------------------------------------------------------
# 1-median
# ---------------------------------------------------------------------------

def weiszfeld_1median(points, *, blocks=None):
    """Geometric medians of blocks of points: the data-point certificate of
    _certify, else the certified iteration of _median_lockstep from the
    centroid, floored at the block's least data-point sum.

    blocks is a list of non-empty index arrays into points, and the result
    a list of WeiszfeldResult, one per block in block order; without it all
    points form one block and the result is its WeiszfeldResult.

    Each block works on its own members only. _width_class gathers them, in
    block order, into a row of width w, the least power of two at least the
    block's size, padded with its first member under a 0/1 mask. _certify,
    with the sums of _member_sums, then runs once per width present, in the
    ambient coordinates, so a certified block returns its exact member.
    The class's other rows are centred on their members' mean and go to
    _median_lockstep in k = min(w - 1, d) coordinates, d the ambient
    dimension: the centred coordinates themselves when d <= w - 1, else
    their coordinates in the row's own span from one batched SVD (_span),
    which a block of at most w members centred on its mean never exceeds.
    Each center maps back as mean + y V, so a step costs O(w k^2 + k^3) per
    row whatever d is. Every pass reduces row by row over the w members, and
    k depends on w and d only, so a block's bytes depend only on its
    members' coordinates in order: not on the other blocks of its call, and
    weiszfeld_1median(P, blocks=[b])[0] is weiszfeld_1median(P[b]).
    (Padding every block to the widest of its call would change each
    reduction's length, and with it the rounding.)

    A certified block returns its member p_j with its distance sum as both
    cost and lower bound, and no iteration. Otherwise lower is the
    iteration's bound below every distance sum, and cost the distance sum at
    the center: the iteration's, or member p_j's when its sum is lower by
    more than rounding (the iteration may stop up to _WEISZFELD_TOL above a
    data point's sum). converged means cost - lower <= _WEISZFELD_TOL *
    cost, which only a run cut at _WEISZFELD_MAX_ITER steps misses.
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
        GT = np.ascontiguousarray(G.transpose(2, 0, 1))     # (coordinate, row, member)
        j, c, certified = _certify(GT, M, _member_sums(GT, M))
        cost[rows], lower[rows], centers[rows] = c, c, G[np.arange(len(rows)), j]
        rest = np.flatnonzero(~certified)
        if len(rest):
            G, M, c, rows = G[rest], M[rest], c[rest], rows[rest]
            mean = np.einsum("rn,rnd->rd", M, G) / M.sum(axis=1)[:, None]
            Y = G - mean[:, None, :]
            reduce = P.shape[1] > w - 1
            if reduce:
                Y, V = _span(Y, w - 1)
            upper, lo, y = _median_lockstep(np.ascontiguousarray(Y.transpose(2, 0, 1)), M)
            if reduce:
                y = np.einsum("rk,rkd->rd", y, V)
            # a data point lower by less than rounding is a tie, which keeps
            # the iteration's center (a segment's midpoint, say)
            iterated = c >= upper * (1.0 - _ROUNDING)
            cost[rows] = np.where(iterated, upper, c)
            # at an optimal data point its sum, rounded its own way, can sit
            # an ulp below the iteration's bound
            lower[rows] = np.minimum(lo, cost[rows])
            centers[rows[iterated]] = (mean + y)[iterated]
    converged = cost - lower <= _WEISZFELD_TOL * cost
    out = [WeiszfeldResult(c, float(u), bool(ok), float(lo))
           for c, u, ok, lo in zip(centers, cost, converged, lower)]
    return out[0] if one else out


def _width_class(P: np.ndarray, blocks: list, w: int):
    """The blocks' members gathered into rows of width w: (G, M) with G[i]
    (w x d) the coordinates of blocks[i] in order, padded with its first
    member, and M[i] the 0/1 mask of its members."""
    sizes = np.array([len(b) for b in blocks])
    M = (np.arange(w) < sizes[:, None]).astype(np.float64)
    idx = np.repeat(np.array([b[0] for b in blocks]), w).reshape(len(blocks), w)
    idx[M > 0] = np.concatenate(blocks)
    return P[idx], M


def _member_sums(PT: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sums[i, a] = sum over b of M[i, b] |p_a - p_b|, p the points of row
    i: each member's distance sum to the members of its row, for points PT
    (k x r x w) stored coordinate-major. Coordinates run outermost, so the
    distances reduce along whole (row, a, b) planes, and chunks of rows and
    of the members a hold at most _PAIR_CELLS (coordinate, row, a, b)
    cells. Members a at or past the most any row has are padding in every
    row, whose sums no caller reads: they are skipped."""
    k, r, w = PT.shape
    sums = np.zeros((r, w))
    cols = min(w, max(1, _PAIR_CELLS // (w * k)))
    rows = max(1, _PAIR_CELLS // (w * w * k))
    for a in range(0, r, rows):
        Q, m = PT[:, a:a + rows], M[a:a + rows]
        for b in range(0, int(m.sum(axis=1).max()), cols):
            diff = Q[:, :, b:b + cols, None] - Q[:, :, None, :]
            d = np.einsum("krab,krab->rab", diff, diff)
            np.sqrt(d, out=d)
            sums[a:a + rows, b:b + cols] = np.einsum("rab,rb->ra", d, m)
    return sums


def _certify(PT: np.ndarray, M: np.ndarray, sums: np.ndarray):
    """Kuhn's data-point certificate for the rows of points PT (k x r x w,
    coordinate-major) whose members the 0/1 rows of M select. The caller
    passes sums (r x w), each member's distance sum to its row's members,
    which is overwritten: _member_sums for gathered blocks, or one product
    with a shared distance matrix. Returns (j, best, certified): j[i] the
    first member of least distance sum in row i, best[i] that sum, and
    certified[i] whether the test below proves member j[i] a median of
    row i.

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

    The test takes _MEDIAN_CELLS (coordinate, row, member) cells at a
    time, reduced row by row along the members; PT may be a broadcast
    view."""
    k, r, w = PT.shape
    sums[M == 0.0] = np.inf
    j = sums.argmin(axis=1)
    best = sums[np.arange(r), j]
    certified = np.empty(r, dtype=bool)
    rows = max(1, _MEDIAN_CELLS // (w * k))
    for a in range(0, r, rows):
        m = M[a:a + rows]
        at = np.arange(a, a + len(m))
        B = PT[:, a:a + rows] - PT[:, at, j[at]][:, :, None]
        d = np.sqrt(np.einsum("krn,krn->rn", B, B))
        eta = np.einsum("rn,rn->r", m, d == 0.0)
        g = np.einsum("krn,rn->kr", B, m / np.where(d > 0.0, d, np.inf))
        certified[a:a + rows] = np.sqrt(_dot_k(g, g)) < eta * (1.0 - 1e-9)
    return j, best, certified


def _certified_subsets(P: np.ndarray):
    """The subset table's start, for P in its affine span: (PT, M, costs,
    rest). PT (coordinate x 1 x point) is P coordinate-major, costs[mask -
    1] every mask's least data-point sum, and rest the positions in costs
    of the masks that _certify leaves open and that hold at least three
    points, with M their 0/1 member rows. Every other mask's least
    data-point sum is its optimum. The certificate's sums come from P's one
    distance matrix."""
    P = _affine_reduce(P)
    s = len(P)
    M = ((np.arange(1, 1 << s)[:, None] >> np.arange(s)) & 1).astype(np.float64)
    PT = np.ascontiguousarray(P.T)[:, None, :]
    _, costs, certified = _certify(_rows_view(PT, len(M)), M,
                                   np.einsum("rn,cn->rc", M, distances(P)))
    rest = np.flatnonzero(~certified & (M.sum(axis=1) >= 3))
    return PT, M[rest], costs, rest         # drops the full table before the kernel


def _rows_view(PT: np.ndarray, r: int) -> np.ndarray:
    """One point set PT (coordinate x 1 x point) as r rows: a broadcast
    (coordinate, row, point) view."""
    return np.broadcast_to(PT, (PT.shape[0], r, PT.shape[2]))


def _med1_costs(P: np.ndarray) -> np.ndarray:
    """1-median cost of every subset of P, indexed by bitmask, in P's affine
    span: the full table, which kmedian's k-block DP reads. The UFL paths
    read _ufl_exact instead, which iterates only the masks a near-optimal
    partition can use.

    Every mask first gets the data-point certificate (_certified_subsets).
    A mask that passes costs its least data-point sum, its optimum, and so
    does every mask of at most two points. The other masks run
    _median_lockstep together from their centroids, so each value is a
    distance sum attained at a real center and within _WEISZFELD_TOL
    (relative) of the optimum unless its row ran _WEISZFELD_MAX_ITER steps;
    the least data-point sum still caps it. Every row reads P through one
    broadcast (coordinate, row, point) view.
    """
    PT, M, costs, rest = _certified_subsets(P)
    upper, _, _ = _median_lockstep(_rows_view(PT, len(M)), M)
    costs[rest] = np.minimum(upper, costs[rest])
    return np.concatenate(([0.0], costs))


_MEDIAN_CELLS = 16384   # (coordinate, row, member) cells per lockstep chunk: 128 KB per temporary
_BACKTRACK = 12         # halvings of a Newton step before a Weiszfeld step replaces it
_SLACK = 1.0 + 4.0 * np.finfo(np.float64).eps   # a step may raise the sum by 4 ulp
_ROUNDING = 16.0 * np.finfo(np.float64).eps     # Newton gains below this share are unmeasurable
_NEAR = 1e-3            # a member this close, relative to the distance sum, anchors its row


def _median_lockstep(P: np.ndarray, M: np.ndarray, steps: int | None = None):
    """Certified geometric medians of the rows of points P (k x r x w,
    coordinate-major) whose members the 0/1 rows of M (r x w) select,
    iterated in lockstep from their centroids. P may be a broadcast view,
    as _med1_costs and _ufl_exact pass one point set for every row.
    Returns (upper, lower, centers): upper[i] is the distance sum of row
    i's members at centers[i] (a k-vector), and lower[i] is at most their
    distance sum anywhere.

    The coordinates run outermost and the members innermost: a per-member
    weight (r x w) broadcasts over whole (row, member) planes, a per-row
    vector (k x r) along the members, and every reduction over the members
    runs along its row's contiguous member axis. The callers keep k small:
    weiszfeld_1median passes each row in at most w - 1 coordinates of its
    own span, and the subset tables their input's span.

    A step tries, per row, the Newton step y - H^-1 g, with g = sum u_i the
    gradient, H = sum w_i (I - u_i u_i^T), w_i = 1/d_i and u_i the unit
    vector from p_i to y. The step stands if it does not raise the distance
    sum by more than 4 ulp, or if its predicted gain g . H^-1 g / 2 is below
    rounding. Otherwise, on a row with a member within _NEAR of its
    distance sum, Vardi and Zhang's step from that member (_escape_offsets)
    stands if it lowers the sum, as Newton's model misses the kink there;
    then the first of the halvings t = 1/2 .. 1/2^_BACKTRACK of the Newton
    step that passes the same test stands; then a Weiszfeld step replaces
    it, as it does for a singular H (a collinear span). A row on a data
    point skips Newton, and its Weiszfeld step is blended with y as Vardi
    and Zhang's is. Members within _WEISZFELD_TOL * f / (4 *
    size) of y, f the row's distance sum, count as copies of y: they add at
    most a quarter of the tolerance to the gap, and a cluster finer than
    that is not resolved point by point.

    The bound is Kuhn's dual: for vectors v_i of norm at most 1 that sum to
    zero, sum v_i . (y - p_i) is at most every distance sum. The v_i are
    the u_i shifted by -g / size (on a data point, the eta copies of y take
    -g / eta each and the others stay), divided by the largest norm that
    shift can give. A row keeps the best bound it reaches and stops once
    upper - lower <= _WEISZFELD_TOL * upper, or after steps steps
    (_WEISZFELD_MAX_ITER, read at call time, unless the caller caps it: at
    steps = 0, lower is the bound at the centroid and upper the centroid's
    distance sum); a stopped row leaves the arrays. Rows run _MEDIAN_CELLS
    (coordinate, row, member) cells at a time, and the halvings at most
    that many (coordinate, row, halving, member) cells, which bounds every
    temporary.

    Per step, g is one einsum reduction over the w members, sum w_i u_i
    u_i^T one batched matrix product with a k x k result per row, and the
    products of k-vectors _dot_k. Each reduces within its row, so a row's
    result depends only on its own points and mask, not on the rows beside
    it."""
    k, r, w = P.shape
    upper = np.empty(r)
    lower = np.empty(r)
    centers = np.empty((k, r))
    rows = max(1, _MEDIAN_CELLS // (w * k))
    last = _WEISZFELD_MAX_ITER if steps is None else steps
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, r, rows):
            part = slice(a, a + rows)
            _median_rows(P[:, part], M[part], centers[:, part], upper[part], lower[part], last)
    return upper, lower, centers.T


def _sums_at(D: np.ndarray, M: np.ndarray):
    """Lengths (r x ... x w) of the differences D (k x r x ... x w) and the
    rows' distance sums over their members M, which broadcasts against
    them."""
    d = np.einsum("k...,k...->...", D, D)
    np.sqrt(d, out=d)
    return d, np.einsum("...n,...n->...", d, M)


def _dot_k(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum over k of a[k] * b[k], for a and b (k x r), added in order of k.
    einsum("kr,kr->r") takes another order once one row is left, so a row's
    sum would depend on the rows beside it."""
    out = a[0] * b[0]
    for i in range(1, len(a)):
        out += a[i] * b[i]
    return out


def _escape_offsets(B: np.ndarray, M: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Vardi-Zhang's step from each row's anchor p_a, as an offset (k x r)
    from p_a, for B = p_a - P (k x r x w): with eta members within near *
    (their distance sum from p_a) of p_a and g the sum of the unit vectors
    from the other members to p_a, the others' Weiszfeld point blended with
    p_a by min(1, eta / |g|); zero if p_a is the median (|g| <= eta)."""
    nb = np.sqrt(np.einsum("krn,krn->rn", B, B))
    copies = nb <= (near * np.einsum("rn,rn->r", nb, M))[:, None]
    w = M / np.where(copies, np.inf, nb)
    g = np.einsum("krn,rn->kr", B, w)
    eta = np.einsum("rn,rn->r", M, copies)
    blend = np.minimum(1.0, eta / np.sqrt(_dot_k(g, g)))
    return g * ((blend - 1.0) / w.sum(axis=1))


def _median_rows(P, M, y, upper, lower, last):
    """_median_lockstep on one chunk of rows for at most last steps,
    writing into the views y (k x r), upper and lower. P holds every row of
    the chunk; the active rows read theirs through pos, so rows that stop
    cost no copy of P.

    A row holds y as an anchor p_a and the offset delta = y - p_a, with B =
    p_a - P, so that y - p_i = B + delta. Once a member comes within _NEAR
    of the distance sum, it becomes the anchor: the differences then keep
    their full relative precision however close y comes to it, and a
    median can lie 1e-7 of its set's diameter away from a data point.

    A row whose nearest member is already its anchor keeps B and its
    anchor's offset from the centroid; delta is re-read from D all the
    same, as D[:, row, a] is 0 + delta, which differs from delta at most in
    the sign of a zero. U = (y - p_i) w_i holds the unit
    vectors, so g = einsum("krn->kr", U) and the Hessian's sum is (U W)^T @
    U, batched over rows. Stopped rows leave by one integer take per array,
    after the step's Hessian is formed: its k x k rows leave, not U and W.

    The rows a Newton step fails on are gathered once and try the halvings
    in (k x r x t x w) batches: as many t as keep a batch within
    _MEDIAN_CELLS cells (one if a single t exceeds it), all _BACKTRACK when
    few rows fail. Each row takes its first t that passes, and only the
    rows no t passed go on to the next batch. The t are exact powers of two
    and every reduction keeps its length and order, so a row's bytes are
    those of halving one t at a time: the batches trade a numpy round per
    halving for the work of halvings a row does not need."""
    keep_frac = 1.0 - _WEISZFELD_TOL
    k, _, w = P.shape
    pos = np.arange(len(M))                     # active row -> chunk row
    member = M > 0
    size = M.sum(axis=1)
    copy = _WEISZFELD_TOL / (4.0 * size)        # copies of y: within copy * f
    # einsum, not a matrix product, which rounds a row differently
    # depending on the rows beside it
    centroid = np.einsum("rn,krn->kr", M, P) / size
    eye = np.eye(len(P))
    halves = np.ldexp(1.0, -np.arange(1, _BACKTRACK + 1))     # t = 1/2 .. 1/2^_BACKTRACK
    a = member.argmax(axis=1)
    Pa = P[:, pos, a]
    B = Pa[:, :, None] - P
    ac = Pa - centroid                          # y - centroid = ac + delta
    delta = -ac
    D = B + delta[:, :, None]
    d, f = _sums_at(D, M)
    lo = np.zeros(len(M))
    for it in range(last + 1):
        # the weights 1/d_i, 0 off the members: a divide by where()'s
        # output runs several times faster than one masked by where=
        W = M / np.where(member, d, 1.0)
        top = W.argmax(axis=1)                  # each row's nearest member
        close = W[np.arange(len(W)), top] * f >= 1.0 / _NEAR
        on = None
        if close.any():
            c = np.flatnonzero(close)
            near = top[c]
            moved = near != a[c]
            a[c], delta[:, c] = near, D[:, c, near]
            if moved.any():                     # a kept anchor keeps its B and ac
                m, near = c[moved], near[moved]
                Pn = P[:, pos[m], near]
                B[:, m] = Pn[:, :, None] - P[:, pos[m]]
                ac[:, m] = Pn - centroid[:, m]
            hit = member[c] & (d[c] <= (copy[c] * f[c])[:, None])
            at = hit.any(axis=1)
            if at.any():
                h, hit = c[at], hit[at]
                on, share = np.zeros(len(M), dtype=bool), np.zeros(len(M))
                on[h] = True
                eta = share[h] = hit.sum(axis=1)
                W[h] = np.where(hit, 0.0, W[h])
        U = D                                   # D is rebuilt by the step
        U *= W
        g = np.einsum("krn->kr", U)
        gnorm = np.sqrt(_dot_k(g, g))
        # sum v_i . (y - p_i) is the others' distance sum minus g . (y - c),
        # c the mean of the shifted points
        yc, rest, scale = ac + delta, f, 1.0 + gnorm / size
        if on is not None:
            rest = f.copy()
            yc[:, h] += centroid[:, h] - np.einsum("rn,krn->kr", hit, P[:, pos[h]]) / eta
            rest[h] = np.einsum("rn,rn->r", np.where(hit, 0.0, d[h]), M[h])
            scale[h] = np.maximum(1.0, gnorm[h] / eta)
        np.maximum(lo, (rest - _dot_k(g, yc)) / scale, out=lo)
        stop = lo >= f * keep_frac
        if it == last or stop.all():
            y[:, pos] = P[:, pos, a] + delta
            upper[pos], lower[pos] = f, np.minimum(lo, f)
            return
        # the Hessian before the stopped rows leave: its k x k rows, not U
        # and W, are then taken
        sw = W.sum(axis=1)
        H = sw[:, None, None] * eye
        H -= (U * W).transpose(1, 0, 2) @ U.transpose(1, 2, 0)
        if stop.any():
            out = pos[stop]
            y[:, out] = P[:, out, a[stop]] + delta[:, stop]
            upper[out], lower[out] = f[stop], np.minimum(lo[stop], f[stop])
            # take, which gathers rows far faster than a boolean mask; the
            # large arrays one at a time, so that each old copy is freed
            # before the next is made (d is rebuilt by the step)
            keep = np.flatnonzero(~stop)
            B = B.take(keep, axis=1)
            M = M.take(keep, axis=0)
            member = member.take(keep, axis=0)
            H = H.take(keep, axis=0)
            pos, size, copy, a, f, lo, gnorm, close, sw = (
                v.take(keep) for v in (pos, size, copy, a, f, lo, gnorm, close, sw))
            centroid, ac, delta, g = (v.take(keep, axis=1) for v in (centroid, ac, delta, g))
            if on is not None:
                on, share = on.take(keep), share.take(keep)

        gr = g.T[:, :, None]
        try:
            s = np.linalg.solve(H, gr)[:, :, 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.det(H) == 0.0
            H[singular] = eye
            s = np.linalg.solve(H, gr)[:, :, 0]
            s[singular] = np.nan
        s = s.T
        if on is not None:
            s[:, on] = np.nan
        step = delta - s
        Dt = B + step[:, :, None]
        dt, ft = _sums_at(Dt, M)
        ok = ft <= f * _SLACK
        if not ok.all():
            # a step whose predicted gain g . s / 2 is below rounding stands;
            # one that does not descend is replaced
            slope = _dot_k(g, s)
            ok |= (slope >= 0.0) & (slope <= _ROUNDING * f)
            # near a data point Newton's model misses the kink there: try
            # Vardi-Zhang's step from that point
            e = np.flatnonzero(~ok & close)
            if len(e):
                Db = B[:, e]
                sb = _escape_offsets(Db, M[e], copy[e])
                Db += sb[:, :, None]
                db, fb = _sums_at(Db, M[e])
                good = fb < f[e]                # repeating it gains nothing
                done = e[good]
                step[:, done], Dt[:, done] = sb[:, good], Db[:, good]
                dt[done], ft[done] = db[good], fb[good]
                ok[done] = True
            retry = np.flatnonzero(~ok & np.isfinite(ft) & (slope > 0.0))
            if len(retry):
                # the retried rows' arrays, gathered once and shrunk only
                # when a halving passes
                Br, dr, sr = (v.take(retry, axis=1) for v in (B, delta, s))
                Mr, fr = M.take(retry, axis=0), f.take(retry) * _SLACK
            j = 0                               # halvings tried
            while len(retry) and j < _BACKTRACK:
                nt = min(_BACKTRACK - j, max(1, _MEDIAN_CELLS // (len(retry) * w * k)))
                t = halves[j:j + nt]
                j += nt
                sb = dr[:, :, None] - sr[:, :, None] * t
                Db = Br[:, :, None, :] + sb[:, :, :, None]
                db, fb = _sums_at(Db, Mr[:, None, :])
                good = fb <= fr[:, None]
                passed = good.any(axis=1)
                if passed.any():
                    won = np.flatnonzero(passed)
                    first = good[won].argmax(axis=1)
                    done = retry[won]
                    step[:, done], Dt[:, done] = sb[:, won, first], Db[:, won, first]
                    dt[done], ft[done] = db[won, first], fb[won, first]
                    ok[done] = True
                    if passed.all():
                        break
                    left = np.flatnonzero(~passed)
                    Br, dr, sr = (v.take(left, axis=1) for v in (Br, dr, sr))
                    retry, Mr, fr = (v.take(left, axis=0) for v in (retry, Mr, fr))
            e = np.flatnonzero(~ok)             # Weiszfeld, on a data point blended with y
            if len(e):
                keep_y = 0.0 if on is None else np.minimum(1.0, share[e] / gnorm[e]) * on[e]
                step[:, e] = delta[:, e] - g[:, e] * ((1.0 - keep_y) / sw[e])
                Dt[:, e] = B[:, e] + step[:, e][:, :, None]
                dt[e], ft[e] = _sums_at(Dt[:, e], M[e])
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

_DP_PAIRS = 8192        # (row, block) pairs per DP step: 64 KB per float temporary


def _submask_layers(s: int):
    """The (mask, submask) pairs that _least_partitions and
    _kmedian_exact_dp scan, one popcount layer at a time. For p = 1..s,
    yields row chunks (S, T) of at most _DP_PAIRS pairs (s <= 14): S the
    masks of {0..s-1} with p set bits, ascending, and T[i] the 2^(p-1)
    submasks of S[i] that contain its lowest set bit, in decreasing order;
    both int32. Every split S = T + (S ^ T) of a layer
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


def _live_partition_dp(costs: np.ndarray, s: int, masks: np.ndarray, rows: np.ndarray):
    """Minimize  #blocks + sum of costs  over the partitions of {0..s-1}
    into live masks that split off, one block at a time, the lowest bit of
    what remains, which must be a live row: for costs indexed by bitmask,
    and masks and rows boolean tables of 2^s entries. Returns (value,
    blocks).

    dp[S], for a live row S, splits off a block T holding S's lowest bit,
    at value dp[S ^ T] + 1 + costs[T]. Its candidates are the live masks, in
    decreasing order, that are subsets of S and hold its lowest bit; every
    row that is not live stays at inf. S takes the least value; among the
    values within 1e-12 of that least one, the split with the fewest
    blocks; among those, the first T. The first least split decides a row
    whose runner-up is further than 1e-12 from it, so only the other rows
    gather their splits' block counts. With every row and mask live this is
    the DP over all 3^s / 2 (mask, submask) pairs.

    The rows run one popcount layer at a time, as a split refers to smaller
    layers only, each layer in chunks of at most _DP_PAIRS // (live masks)
    rows: one vectorised pass per chunk, and every temporary within
    _DP_PAIRS cells."""
    nm = 1 << s
    dp = np.full(nm, np.inf)
    dp[0] = 0.0
    blocks = np.zeros(nm, dtype=np.int64)
    choice = np.zeros(nm, dtype=np.int64)
    L = np.flatnonzero(masks)[::-1]
    cost = costs[L]
    R = np.flatnonzero(rows)
    size = np.zeros(len(R), dtype=np.int64)     # popcounts
    for b in range(s):
        size += (R >> b) & 1
    step = max(1, _DP_PAIRS // len(L))
    for p in range(1, s + 1):
        layer = R[size == p]
        for a in range(0, len(layer), step):
            S = layer[a:a + step]
            rest = S[:, None] ^ L
            v = dp[rest] + OPENING_COST
            v += cost
            # T outside S, or T without S's lowest bit, leaves a bit of
            # T | low in the rest
            v[rest & (L | (S & -S)[:, None]) != 0] = np.inf
            r = np.arange(len(S))
            i = v.argmin(axis=1)
            best = v[r, i]
            # a row needs the blocks only if its runner-up is within 1e-12
            v[r, i] = np.inf
            tie = np.flatnonzero(v.min(axis=1) <= best + 1e-12)
            v[r, i] = best
            if len(tie):
                near = v[tie] <= (best[tie] + 1e-12)[:, None]
                i[tie] = np.where(near, blocks[rest[tie]], nm).argmin(axis=1)
            t = L[i]
            dp[S], blocks[S], choice[S] = v[r, i], blocks[S ^ t] + 1, t
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
    first T in decreasing order, as _live_partition_dp breaks its ties, so
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


def _ufl_exact(P: np.ndarray):
    """Least  #blocks + sum of 1-median costs  over the partitions of the
    s = len(P) points: the DP over every (mask, submask) pair of the full
    table _med1_costs(P), byte for byte, with the 1-median lockstep run on
    only the masks a near-optimal partition can use, and the DP on only the
    rows and blocks it can reach. Returns (value, blocks).

    1. _certified_subsets gives every mask's least data-point sum and the
       open masks (uncertified, at least three points).
    2. Each open mask T gets lb(T), Kuhn's bound at its centroid: the
       lockstep's bound before its first step. Every other mask's lb is
       its cost, which is exact.
    3. One partition DP over lb (_least_partitions) gives dp_lb[R], the
       least lb-price of a partition of R, and one partition of the whole
       set attaining it; UB prices that partition at its masks' data-point
       sums.
    4. A mask T is live if lb(T) + 1 + dp_lb[full ^ T] <= tau = UB (1 +
       1e-9). An open mask that is not live keeps its data-point sum.
    5. The live open masks run _median_lockstep as in _med1_costs.
    6. A row R is live if dp_lb[R] + dp_lb[full ^ R] <= tau, and
       _live_partition_dp takes the table, the live masks and the live
       rows.

    Why the bytes are those of the full table. Let c be _med1_costs's table
    and run c the DP over it with every row and mask live; run c' is step
    6, over this table c'. c' = c on a live mask, as a lockstep row's bytes
    depend only on its own points and mask, not on the rows run beside it.
    On an open mask that is not live c' >= c, as c is at most the
    data-point sum c' holds. Both are distance sums, so at least lb. Let
    m(X) be the least c-price of a partition of X, and call X live with
    margin e if dp_lb[full ^ X] + m(X) <= tau - e. UB is at least the
    c-price of a partition and at least 1 (a block), so the whole set is
    live with margin 1e-9. Each DP value at X is the price of a partition
    of X, in its table, or inf on a row that is not live, so at least m(X);
    and in run c at most m(X) + |X| 1e-12: the 1e-12 tie window costs at
    most that per block.

    Claim: a mask X live with margin e > |X| 1e-12 gets the same row
    (value, block count, choice) in both runs. It is a live row, as dp_lb[X]
    <= m(X) (lb <= c). Take any split X = T + R whose value v, in either
    run, is at most m(X) + |X| 1e-12. Then v >= m(R) + 1 + lb(T), and dp_lb
    is subadditive, so
    - dp_lb[full ^ R] + m(R) <= dp_lb[full ^ X] + v <= tau - e + |X|
      1e-12: R is live with margin e - |X| 1e-12;
    - lb(T) + 1 + dp_lb[full ^ T] <= dp_lb[full ^ X] + v < tau: T is a
      live mask, a candidate in run c'.
    By induction R's row is the same in both runs, and c'[T] = c[T], so the
    split has value v in both. Run c's least split and every split in its
    tie window lie in that range, so they are the same in run c' with the
    same block counts, and no run-c' split below them exists (it would lie
    in the range too). Down any chain of such splits the margin falls by at
    most (s + 1) s / 2 1e-12 <= 1.05e-10 at s = 14, well within 1e-9; the
    rounding of the prices and of lb is a few ulp of UB.
    """
    s = len(P)
    PT, M, costs, rest = _certified_subsets(P)
    _, lb, _ = _median_lockstep(_rows_view(PT, len(M)), M, steps=0)
    bound = np.concatenate(([0.0], costs))
    bound[rest + 1] = lb
    dp_lb, choice = _least_partitions(bound, s)
    ub, S = 0.0, (1 << s) - 1
    while S:
        T = int(choice[S])
        ub += OPENING_COST + costs[T - 1]
        S ^= T
    tau = ub * (1.0 + 1e-9)
    other = dp_lb[::-1]                         # dp_lb[full ^ X] at X
    live = bound + OPENING_COST + other <= tau
    live[0] = False
    kept = live[rest + 1]
    rest, M = rest[kept], M[kept]
    upper, _, _ = _median_lockstep(_rows_view(PT, len(M)), M)
    costs[rest] = np.minimum(upper, costs[rest])
    return _live_partition_dp(np.concatenate(([0.0], costs)), s, live, dp_lb + other <= tau)


def _least_partitions(costs: np.ndarray, s: int):
    """Least  #blocks + sum of costs  over the partitions of every mask of
    {0..s-1}, for costs indexed by bitmask: (dp, choice), choice[S] the
    block holding S's lowest bit in the first least split."""
    dp = np.zeros(1 << s)
    choice = np.zeros(1 << s, dtype=np.int64)
    for S, T in _submask_layers(s):
        v = dp[S[:, None] ^ T] + OPENING_COST
        v += costs[T]
        i = v.argmin(axis=1)
        r = np.arange(len(S))
        dp[S], choice[S] = v[r, i], T[r, i]
    return dp, choice


def brute_force_ufl_continuous(points) -> float:
    """opt(S) with ambient facilities, by exhaustive partition DP with
    geometric-median block centers (_ufl_exact), each within _WEISZFELD_TOL
    of its optimum by Kuhn's bound unless cut at _WEISZFELD_MAX_ITER steps.
    The value is that of the DP over every split of the full subset
    table; only the subsets a near-optimal partition can use are iterated,
    and only they and the rows they reach enter the DP. Raises
    OracleScaleError, with the count and the cap, beyond _ENUM_THRESHOLD points."""
    P = _as_points(points)
    if len(P) > _ENUM_THRESHOLD:
        raise OracleScaleError(f"oracle scale exceeded: {len(P)} points, "
                               f"the continuous oracle takes at most {_ENUM_THRESHOLD}")
    value, _ = _ufl_exact(P)
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


def ufl_local_search(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray):
    """UFL over D with facilities restricted to candidate ids and opening
    cost 1, read from one candidates x clients slice D[candidates, clients].
    Returns (k, v, ids): ids the open candidates, k = len(ids) and v their
    connection cost.

    Enumerable candidates take the first least mask of size + cost in one
    _subset_table, as brute_force_ufl_discrete does, which is exact. Others
    start from ball growing over the candidates, as restricted_ufl_value
    does, and make the best add, drop or swap while it lowers k + sum(d1)
    by a relative 1e-12, d1 and d2 being each client's nearest and
    second-nearest open distances; a local optimum of these moves is
    3-approximate (Arya et al., SICOMP 2004). With near the open position
    nearest each client, base_o = where(near == o, d2, d1) the clients'
    distances once o closes, and R the candidates nearer than the open set
    to some client, an add of j in R scores sum(min(d1, row_j)) + k + 1, a
    drop of o sum(base_o) + k - 1, and a swap of o for j in R
    sum(min(base_o, row_j)) + k; a j outside R scores at least the current
    cost either way. base_o differs from d1 only on the clients N(o) whose
    nearest is o, so a swap scores as j's add, less 1, plus the sum over
    N(o) of min(d2, row_j) - min(d1, row_j). With the clients grouped by
    their nearest, one pass over the R x clients rows scores every swap,
    not one pass per open position. Among equal scores the first move
    wins: the adds, then per open position its swaps in R's order and its
    drop."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    m = len(candidates)
    subT = D[np.ix_(candidates, clients)]
    if _subset_enumerable(m, len(clients)):
        cost, size = _subset_table(subT.T)
        best = 1 + int(np.argmin(OPENING_COST * size[1:] + cost[1:]))
        return int(size[best]), float(cost[best]), candidates[_mask_ids(best, m)]

    chosen = np.array(_mp_select(D, candidates, _mp_radii(subT)))
    cols = np.arange(subT.shape[1])
    while True:
        k = len(chosen)
        block = subT[chosen]
        near = block.argmin(axis=0)
        d1 = block[near, cols]
        block[near, cols] = np.inf
        d2 = block.min(axis=0)
        v = float(d1.sum())
        cost = k + v
        order = np.argsort(near, kind="stable")     # clients grouped by their nearest
        served, starts = np.unique(near[order], return_index=True)
        R = (subT < d1).any(axis=1).nonzero()[0]
        rows = subT[np.ix_(R, order)]
        near1 = np.minimum(rows, d1[order])
        add = near1.sum(axis=1)                 # sum(min(d1, row_j)) per j in R
        gain = np.minimum(rows, d2[order], out=rows)
        gain -= near1
        scores = np.empty((k + 1, len(R) + 1))  # last column: the drops, none in row 0
        scores[0, :-1] = add + (k + 1)
        scores[0, -1] = np.inf
        scores[1:, :-1] = add + k
        scores[1 + served, :-1] += np.add.reduceat(gain, starts, axis=1).T
        scores[1:, -1] = np.bincount(near, d2 - d1, minlength=k) + (cost - 1)
        o, r = divmod(int(scores.argmin()), len(R) + 1)
        if not scores[o, r] < cost * (1 - 1e-12):
            return k, v, candidates[chosen]
        if o == 0:
            chosen = np.append(chosen, R[r])
        elif r == len(R):
            chosen = np.delete(chosen, o - 1)
        else:
            chosen[o - 1] = R[r]


def kmedian_restricted(D: np.ndarray, clients: np.ndarray, candidates: np.ndarray, k: int):
    """k-median over D with facilities restricted to candidate ids, exactly:
    the first least mask of size k in one _subset_table, which raises
    OracleScaleError beyond its caps. Returns (facility ids, cost, True)."""
    if not 1 <= k <= len(candidates):
        raise ValueError("k must lie in [1, #candidates]")
    candidates = np.asarray(candidates, dtype=int)
    cost, size = _subset_table(D[np.ix_(np.asarray(clients, dtype=int), candidates)])
    best = int(np.argmin(np.where(size == k, cost, np.inf)))   # first least mask
    return candidates[_mask_ids(best, len(candidates))], float(cost[best]), True


# ---------------------------------------------------------------------------
# k-median with ambient centers
# ---------------------------------------------------------------------------

def kmedian(points, k: int) -> KMedianResult:
    """Exact k-median clustering with centers anywhere in space: k = 1 is
    one block, k = s singletons, and other k the least of all k-partitions
    with geometric median centers, recentered in one weiszfeld_1median
    call. Raises OracleScaleError, with the count and the cap, beyond
    _ENUM_THRESHOLD points."""
    P = _as_points(points)
    s = len(P)
    if not 1 <= k <= s:
        raise ValueError("k must lie in [1, |S|]")
    if s > _ENUM_THRESHOLD:
        raise OracleScaleError(f"oracle scale exceeded: {s} points, "
                               f"k-median takes at most {_ENUM_THRESHOLD}")
    if k == 1:
        blocks = [np.arange(s)]
    elif k == s:
        blocks = [np.array([i]) for i in range(s)]
    else:
        _, blocks = _kmedian_exact_dp(_med1_costs(P), s, k)
    meds = weiszfeld_1median(P, blocks=blocks)
    return KMedianResult(blocks, np.array([m.center for m in meds]),
                         float(sum(m.cost for m in meds)))


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
    the last r_j always qualifies.

    While r_j exceeds the next distance, r_(j+1) is a mean of r_j and that
    distance, so every r_j up to the first that qualifies is at most r_1 =
    d_1 + 1. A row of more than _SHORT_ROW clients therefore sorts only its
    entries up to (d_1 + 1)(1 + 1e-9), a bound the rounding of the sums
    cannot cross: they are a prefix of the sorted row, so their r_j are
    those of the whole row, and the first qualifying r_j lies among them.
    They go into an inf-padded block as wide as the most any of its rows
    keeps; in a row that keeps fewer, the inf after its entries stands in
    for the next distance, and in one that keeps that many, its last r_j
    qualifies as a last one does. Rows of at most _SHORT_ROW clients sort
    whole, as the mask costs more calls than it saves them.

    Rows are taken _RADII_CELLS distances at a time (the mask 8 times as
    many), so the temporaries stay small whatever the input's size and are
    reused from the heap instead of being mapped afresh on every call."""
    n, s = rows.shape
    radii = np.empty(n)
    if s <= _SHORT_ROW:
        step = max(1, _RADII_CELLS // max(s, 1))
        for a in range(0, n, step):
            radii[a:a + step] = _first_valid_radii(np.sort(rows[a:a + step], axis=1))
        return radii
    step = max(1, 8 * _RADII_CELLS // s)
    for a in range(0, n, step):
        chunk = rows[a:a + step]
        bound = chunk.min(axis=1)
        bound += OPENING_COST
        bound *= 1 + 1e-9
        kept = chunk <= bound[:, None]
        counts = np.count_nonzero(kept, axis=1)
        w = int(counts.max())
        sub = max(1, _RADII_CELLS // w)
        for b in range(0, len(chunk), sub):
            c = counts[b:b + sub]
            block = np.full((len(c), w), np.inf)
            block[np.arange(w) < c[:, None]] = chunk[b:b + sub][kept[b:b + sub]]
            block.sort(axis=1)
            radii[a + b:a + b + len(c)] = _first_valid_radii(block)
    return radii


def _first_valid_radii(order: np.ndarray) -> np.ndarray:
    """_mp_radii's first qualifying r_j of each sorted row of order, which it
    overwrites: scaled in place to the slackened bounds once its sums are
    taken."""
    r_cand = np.cumsum(order, axis=1)
    r_cand += OPENING_COST
    r_cand /= np.arange(1, order.shape[1] + 1)
    order *= 1 + 1e-12
    order += 1e-15
    valid = np.ones(order.shape, dtype=bool)
    np.less_equal(r_cand[:, :-1], order[:, 1:], out=valid[:, :-1])
    return r_cand[np.arange(len(order)), valid.argmax(axis=1)]


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
    restricted optimum. Returns (cost, certified factor, facility ids).

    When clients and candidates are both every id of D in order, as for the
    guiding solution, D is read in place: no candidates x clients copy is
    made, and the connection cost reads the kept rows only."""
    clients = np.asarray(clients, dtype=int)
    candidates = np.asarray(candidates, dtype=int)
    ids = np.arange(len(D))
    whole = np.array_equal(clients, ids) and np.array_equal(candidates, ids)
    sub = D if whole else D[np.ix_(candidates, clients)]
    sel = _mp_select(D, candidates, _mp_radii(sub))
    conn = sub[sel].min(axis=0).sum()
    return float(OPENING_COST * len(sel) + conn), 3.0, candidates[sel]
