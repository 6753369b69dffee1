import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from uflkit import ptas, solvers
from uflkit.datasets import generate_dataset
from uflkit.experiments import blob_instance
from uflkit.geometry import OPENING_COST, OracleScaleError, PointSet
from uflkit.partition import MatrixApproxHandle
from uflkit.ptas import (DistanceOracle, PtasConfig, RestrictedApproxHandle,
                         _exact_projected_sweep, ptas_discrete, ptas_euclidean, trace_to_jsonl)
from uflkit.solvers import (WeiszfeldResult, _affine_reduce,
                            _kmedian_exact_dp, _mask_ids, _med1_costs, _mp_radii, _mp_select,
                            _live_partition_dp, _nearest_blocks, _submask_layers, _subset_table,
                            approx_ufl, brute_force_ufl_continuous, brute_force_ufl_discrete,
                            kmedian, kmedian_restricted, mp_ufl_value, restricted_ufl_value,
                            weiszfeld_1median)

from conftest import line, random_points


def grid_1median_oracle(P, step=1e-3, refine=1e-5):
    """Dense-grid minimum of the 1-median objective: a coarse pass over the
    bounding box, then a fine pass around the best coarse cell."""
    P = np.asarray(P)

    def scan(lo, hi, h):
        axes = np.meshgrid(*[np.arange(lo[k], hi[k] + h, h) for k in range(P.shape[1])],
                           indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)
        best = (math.inf, None)
        for chunk in np.array_split(pts, max(1, len(pts) // 200_000)):
            costs = np.linalg.norm(chunk[:, None, :] - P[None, :, :], axis=2).sum(axis=1)
            j = int(np.argmin(costs))
            if costs[j] < best[0]:
                best = (float(costs[j]), chunk[j])
        return best

    lo, hi = P.min(axis=0), P.max(axis=0)
    scale = max(1.0, (hi - lo).max())
    v, c = scan(lo, hi, step * scale)
    pad = 2 * step * scale
    v2, _ = scan(c - pad, c + pad, refine * scale)
    return min(v, v2)


class TestWeiszfeld:
    def test_single_point(self):
        res = weiszfeld_1median(np.array([[2.0, 3.0]]))
        assert res.cost == 0.0
        assert np.array_equal(res.center, [2.0, 3.0])

    def test_unit_square_corners(self):
        P = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        res = weiszfeld_1median(P)
        np.testing.assert_allclose(res.center, [0.5, 0.5], atol=1e-8)
        assert res.cost == pytest.approx(2 * math.sqrt(2))

    def test_collinear_median_is_data_point(self):
        res = weiszfeld_1median(np.array([[0.0], [1.0], [5.0]]))
        assert res.center[0] == 1.0
        assert res.cost == 5.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty point set"):
            weiszfeld_1median(np.zeros((0, 2)))

    def test_objective_monotone(self, rng):
        for _ in range(8):
            P = rng.random((9, 3))
            sums = steps(P)
            assert len(sums) > 1
            assert (np.diff(sums) <= 1e-12 * max(sums)).all()

    def test_against_grid_oracle(self, rng):
        for _ in range(20):
            P = rng.random((7, 2))
            res = weiszfeld_1median(P)
            oracle = grid_1median_oracle(P)
            assert abs(res.cost - oracle) <= 1e-3 * oracle

    def test_nonconvergence_flag(self, rng, monkeypatch):
        # one step cannot close the gap to 1e-16 on an input whose median is
        # no data point (the certificate rejects it)
        monkeypatch.setattr(solvers, "_WEISZFELD_MAX_ITER", 1)
        monkeypatch.setattr(solvers, "_WEISZFELD_TOL", 1e-16)
        P = rng.random((20, 2))
        assert certified_index(P) is None
        res = weiszfeld_1median(P)
        assert res.cost > 0.0   # still a usable iterate
        assert not res.converged
        assert res.lower <= res.cost
        assert res.converged == (res.cost - res.lower <= 1e-16 * res.cost)

    def test_one_large_block_peak_memory(self, rng):
        # the certificate's distance sums take _PAIR_CELLS cells at a time:
        # a 5000 x 5000 block would hold 200 MB, and this bound is 35.2 MB
        P = rng.random((5000, 2))
        weiszfeld_1median(P[:10])
        tracemalloc.start()
        try:
            weiszfeld_1median(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 4_000_000 * 8

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError, match="empty block"):
            weiszfeld_1median(np.zeros((3, 2)), blocks=[np.arange(2), np.arange(0)])


class TestKMedian:
    def test_k_equals_n(self, rng):
        P = rng.random((6, 2))
        res = kmedian(P, 6)
        assert res.cost == 0.0
        assert len(res.clusters) == 6

    def test_k_one_matches_weiszfeld(self, rng):
        P = rng.random((7, 2))
        assert kmedian(P, 1).cost == pytest.approx(weiszfeld_1median(P).cost)

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            kmedian(rng.random((4, 2)), 5)

    def test_cost_non_increasing_in_k(self, rng):
        for _ in range(5):
            P = rng.random((8, 2))
            costs = [kmedian(P, k).cost for k in range(1, 9)]
            for a, b in zip(costs, costs[1:]):
                assert b <= a * (1 + 1e-9) + 1e-12

    def test_nearest_blocks_ties_go_to_the_earlier_column(self):
        # point 1 is equidistant from facilities 0 and 2 and joins 0's block;
        # facility 1 is nearest no point, so its block is dropped
        dist = np.array([[0.0, 5.0, 2.0],
                         [1.0, 3.0, 1.0],
                         [4.0, 6.0, 0.0],
                         [0.5, 9.0, 0.5]])
        blocks = _nearest_blocks(dist)
        assert [b.tolist() for b in blocks] == [[0, 1, 3], [2]]

    def test_clusters_partition_input(self, rng):
        P = rng.random((9, 2))
        res = kmedian(P, 3)
        ids = np.sort(np.concatenate(res.clusters))
        assert np.array_equal(ids, np.arange(9))


_point_list_solvers = pytest.mark.parametrize(
    "solve", [weiszfeld_1median, lambda P: kmedian(P, 1), brute_force_ufl_continuous,
              brute_force_ufl_discrete],
    ids=["weiszfeld_1median", "kmedian", "brute_force_ufl_continuous", "brute_force_ufl_discrete"])


@_point_list_solvers
def test_empty_point_list_rejected(solve):
    # an empty list is no points, not one point in zero dimensions
    for empty in ([], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="empty point set"):
            solve(empty)


@_point_list_solvers
def test_malformed_point_lists_rejected(solve):
    # PointSet's checks: a NaN or infinite coordinate once gave nan or an SVD
    # failure, zero coordinates a ZeroDivisionError
    P = np.random.default_rng(34).random((5, 2))
    bad = [np.zeros((3, 0)), np.zeros((2, 2, 2))]
    for value in (np.nan, np.inf):
        Q = P.copy()
        Q[2, 1] = value
        bad.append(Q)
    for Q in bad:
        with pytest.raises(ValueError, match="coords must be"):
            solve(Q)


def test_flat_list_is_one_point():
    assert weiszfeld_1median([3.0, 1.0]).center.tolist() == [3.0, 1.0]
    assert brute_force_ufl_continuous([3.0, 1.0]) == brute_force_ufl_discrete([3.0, 1.0]) == 1.0


class TestContinuousOracle:
    def test_single_point(self):
        assert brute_force_ufl_continuous(np.array([[3.0, 1.0]])) == 1.0

    def test_two_far_points(self):
        assert brute_force_ufl_continuous(np.array([[0.0], [10.0]])) == pytest.approx(2.0)

    def test_two_close_points(self):
        assert brute_force_ufl_continuous(np.array([[0.0], [0.5]])) == pytest.approx(1.5)

    def test_scale_cap(self, rng):
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            brute_force_ufl_continuous(rng.random((13, 2)))

    def test_dominated_by_discrete(self, rng):
        # a square point set whose coordinates look like a distance matrix
        square = np.array([[0.0, 0.1, 0.1], [0.1, 0.0, 0.1], [0.1, 0.1, 0.0]])
        randoms = (rng.random((int(rng.integers(2, 9)), 2)) for _ in range(100))
        for P in (square, *randoms):
            cont = brute_force_ufl_continuous(P)
            disc = brute_force_ufl_discrete(P)
            assert cont <= disc * (1 + 1e-9)

    def test_matches_min_over_k(self, rng):
        P = rng.random((7, 2))
        by_k = min(k + kmedian(P, k).cost for k in range(1, 8))
        assert brute_force_ufl_continuous(P) == pytest.approx(by_k, rel=1e-8)


class TestDiscreteOracle:
    def test_single_point(self):
        assert brute_force_ufl_discrete(np.array([[5.0]])) == 1.0

    def test_two_far_points(self):
        assert brute_force_ufl_discrete(np.array([[0.0], [10.0]])) == pytest.approx(2.0)

    def test_three_on_line(self):
        assert brute_force_ufl_discrete(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(3.0)

    def test_matrix_input(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        assert brute_force_ufl_discrete(D, is_matrix=True) == pytest.approx(3.0)

    def test_scale_cap(self, rng):
        with pytest.raises(OracleScaleError):
            brute_force_ufl_discrete(rng.random((16, 2)))


class TestApproxUfl:
    def test_single_point(self):
        sol = approx_ufl(line(4.0))
        assert sol.total == 1.0
        assert list(sol.facility_ids) == [0]

    def test_two_far_points_open_both(self):
        sol = approx_ufl(line(0.0, 1e6))
        assert sol.total == pytest.approx(2.0)
        assert sol.num_facilities == 2

    def test_within_certified_factor_of_continuous(self, rng):
        for _ in range(20):
            X = random_points(rng, 10, 2)
            sol = approx_ufl(X)
            oracle = brute_force_ufl_continuous(X.coords)
            assert oracle * (1 - 1e-9) <= sol.total <= 6.0 * oracle

    def test_within_three_of_discrete(self, rng):
        for _ in range(20):
            X = random_points(rng, 9, 2)
            sol = approx_ufl(X)
            assert sol.total <= 3.0 * brute_force_ufl_discrete(X.coords) * (1 + 1e-9)

    def test_deterministic(self, rng):
        X = random_points(rng, 15, 3)
        assert approx_ufl(X).total == approx_ufl(X).total

    def test_facilities_are_dataset_points(self, rng):
        X = random_points(rng, 12, 2)
        sol = approx_ufl(X)
        assert np.array_equal(sol.facilities, X.coords[sol.facility_ids])


def exhaustive_restricted_ufl(D, cands):
    """min over nonempty facility subsets F of cands of |F| plus every row's
    distance to its nearest facility in F, by a direct scan of all subsets."""
    bits = ((np.arange(1, 1 << len(cands))[:, None] >> np.arange(len(cands))) & 1) == 1
    conn = sum(np.where(bits, row[cands], np.inf).min(axis=1) for row in D)
    return float((bits.sum(axis=1) + conn).min())


# Enumeration caps: at most 15 candidate facilities and 2^m * clients <= 4e6
# table cells; 12 candidates allow 976 clients but not 977. Each case below
# is (clients n, candidates m): the first is the original input, the rest
# sit on either side of a cap.
class TestRestricted:
    def test_kmedian_restricted_exact_matches_bruteforce(self, rng):
        for n, m in [(8, 8), (15, 15), (976, 12)]:
            X = random_points(rng, n, 2)
            D = X.distance_matrix()
            ids, v, certified = kmedian_restricted(D, np.arange(n), np.arange(m), 2)
            assert certified
            best = min(np.minimum(D[:, i], D[:, j]).sum()
                       for i in range(m) for j in range(i + 1, m))
            assert v == pytest.approx(best)

    def test_ball_growing_mode_within_factor(self, rng):
        # ball growing at every size, enumerable candidate sets included
        for n, m, trials in [(10, 10, 15), (16, 16, 15), (977, 12, 2)]:
            for _ in range(trials):
                X = random_points(rng, n, 2)
                D = X.distance_matrix()
                cost, factor, _ = restricted_ufl_value(D, np.arange(n), np.arange(m))
                assert factor == 3.0
                exact = exhaustive_restricted_ufl(D, np.arange(m))
                assert exact * (1 - 1e-9) <= cost <= 3.0 * exact * (1 + 1e-9)

    def test_beyond_the_caps(self, rng):
        for n, m in [(16, 16), (977, 12)]:
            D = random_points(rng, n, 2).distance_matrix()
            with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
                kmedian_restricted(D, np.arange(n), np.arange(m), 3)


class TestEnumThreshold:
    def test_read_at_call_time(self, monkeypatch):
        # one constant sets kmedian's exact path, the continuous oracle's cap
        # and the Euclidean pipeline's choice of sweep
        monkeypatch.setattr(solvers, "_ENUM_THRESHOLD", 4)
        P = np.random.default_rng(3).random((8, 2))
        with pytest.raises(OracleScaleError, match="8 points, k-median takes at most 4"):
            kmedian(P, 2)
        with pytest.raises(OracleScaleError):
            brute_force_ufl_continuous(P[:5])

        sizes = {}
        heuristic, exact = ptas._heuristic_projected_sweep, ptas._exact_projected_sweep

        def heuristic_part(proj_members):
            sizes.setdefault("_heuristic_projected_sweep", []).append(len(proj_members))
            return heuristic(proj_members)

        def exact_part(proj_members):
            sizes.setdefault("_exact_projected_sweep", []).append(len(proj_members))
            return exact(proj_members)

        monkeypatch.setattr(ptas, "_heuristic_projected_sweep", heuristic_part)
        monkeypatch.setattr(ptas, "_exact_projected_sweep", exact_part)
        # parts of 1-10 points, all within the default threshold
        monkeypatch.setattr(MatrixApproxHandle, "alpha", 1.0)
        ptas_euclidean(blob_instance(3, 10), PtasConfig(eps=0.3, ddim=2.0, kappa_cap=2.0,
                                                        seed=0))
        assert sorted(sizes["_heuristic_projected_sweep"]) == [6, 10]
        assert max(sizes["_exact_projected_sweep"]) == 4


# ---------------------------------------------------------------------------
# Scalar reference loops for the vectorised candidate scans
# ---------------------------------------------------------------------------

def reference_mp_select(D_cand, radii):
    """Ball-growing selection, one kept candidate at a time."""
    order = np.lexsort((np.arange(len(radii)), radii))
    selected = []
    for y in order:
        if all(D_cand[y, z] > 2.0 * radii[y] for z in selected):
            selected.append(int(y))
    return selected


def _distances(rng, shape, ties):
    """Random nonnegative distances; small integers when ties are wanted."""
    return rng.integers(0, 4, size=shape).astype(float) if ties else rng.random(shape)


class TestCandidateScans:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30), ties=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mp_select_equals_reference(self, seed, m, ties):
        rng = np.random.default_rng(seed)
        D = _distances(rng, (m, m), ties)
        radii = _distances(rng, m, ties) / 2.0
        assert _mp_select(D, np.arange(m), radii) == reference_mp_select(D, radii)

    @given(seed=st.integers(0, 2**32 - 1), nc=st.integers(1, 30), m=st.integers(1, 24),
           far=st.integers(0, 6), ties=st.booleans(), dup=st.booleans())
    @settings(max_examples=40, deadline=None)
    @example(seed=0, nc=1, m=24, far=0, ties=False, dup=False)   # one client, k up to m
    @example(seed=1, nc=1, m=12, far=6, ties=True, dup=True)
    @example(seed=2, nc=30, m=24, far=6, ties=True, dup=True)
    def test_sweep_equals_the_per_k_references(self, seed, nc, m, far, ties, dup):
        # kmedian_restricted at every k: the first least mask of its size
        # when the candidates are enumerable, OracleScaleError otherwise
        rng = np.random.default_rng(seed)
        D = _distances(rng, (nc, m), ties)
        if dup:                                   # copy some candidate columns
            D[:, rng.integers(0, m, 4)] = D[:, rng.integers(0, m, 4)]
        D = np.hstack([D, 1000.0 + _distances(rng, (nc, far), ties)])    # far candidates
        clients, candidates = np.arange(nc), np.arange(m + far)
        if m + far > 15:
            for k in range(1, m + far + 1):
                with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
                    kmedian_restricted(D, clients, candidates, k)
            return
        ref_cost, ref_size = reference_subset_table(D)
        for k in range(1, m + far + 1):
            ids, cost, certified = kmedian_restricted(D, clients, candidates, k)
            mask = min(np.flatnonzero(ref_size == k), key=lambda x: (ref_cost[x], x))
            assert ids.tobytes() + _f8(cost, certified) == (_mask_ids(mask, m + far).tobytes()
                                                            + _f8(ref_cost[mask], True))

    def test_kmedian_restricted_rejects_k_outside_the_candidates(self, rng):
        D = rng.random((5, 4))
        for k in (0, 5):
            with pytest.raises(ValueError, match=r"k must lie in \[1, #candidates\]"):
                kmedian_restricted(D, np.arange(5), np.arange(4), k)

    def test_mp_select_equal_radii_keep_index_order(self):
        D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
        assert _mp_select(D, np.arange(3), np.ones(3)) == [0, 2]
        assert _mp_select(D, np.arange(3), np.full(3, 3.0)) == [0]
        assert _mp_select(D, np.arange(3), np.array([2.0, 1.0, 1.0])) == [1, 2]


def _search_input(rng, nc, m, ties, dup):
    """A square matrix over m candidates (ids 0..m-1) and nc clients (ids
    m..m+nc-1), not symmetric, ball growing reading the candidate block:
    random distances, small integers when ties are wanted, with some
    candidate rows copied when dup. ufl_local_search reads the slice
    D[candidates, clients]."""
    D = _distances(rng, (m + nc, m + nc), ties)
    if dup:
        D[rng.integers(0, m, 4)] = D[rng.integers(0, m, 4)]
    return D, m + np.arange(nc), np.arange(m)


class TestUflLocalSearch:
    @given(seed=st.integers(0, 2**32 - 1), nc=st.integers(1, 40), m=st.integers(16, 24),
           ties=st.booleans(), dup=st.booleans())
    @settings(max_examples=60, deadline=None)
    @example(seed=3, nc=1, m=16, ties=True, dup=True)       # one client
    def test_returns_a_local_optimum(self, seed, nc, m, ties, dup):
        # above the enumeration cap: no add, drop or swap lowers k + v by a
        # relative 1e-12, and v is the open set's connection cost
        rng = np.random.default_rng(seed)
        D, clients, candidates = _search_input(rng, nc, m, ties, dup)
        k, v, ids = solvers.ufl_local_search(D, clients, candidates)
        sub = D[np.ix_(candidates, clients)].T
        assert k == len(ids) == len(set(ids.tolist())) >= 1
        assert v == sub[:, ids].min(axis=1).sum()

        def total(S):
            return len(S) + sub[:, S].min(axis=1).sum() if len(S) else np.inf

        floor = (k + v) * (1 - 1e-12)
        closed = np.setdiff1d(candidates, ids)
        moves = [np.append(ids, j) for j in closed]
        moves += [np.delete(ids, o) for o in range(k)]
        moves += [np.append(np.delete(ids, o), j) for o in range(k) for j in closed]
        assert all(total(S) >= floor for S in moves)

    @given(seed=st.integers(0, 2**32 - 1), nc=st.integers(1, 30), m=st.integers(1, 15),
           ties=st.booleans(), dup=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_enumerable_candidates_are_exact(self, seed, nc, m, ties, dup):
        # one _subset_table: k + v is the discrete oracle's optimum on the
        # slice, and ties go to the first least mask of size + cost
        rng = np.random.default_rng(seed)
        D, clients, candidates = _search_input(rng, nc, m, ties, dup)
        sub = D[np.ix_(candidates, clients)].T
        tables = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_subset_table",
                       lambda s: tables.append(s.shape) or _subset_table(s))
            k, v, ids = solvers.ufl_local_search(D, clients, candidates)
        assert tables == [(nc, m)]
        assert k + v == brute_force_ufl_discrete(sub, is_matrix=True)
        cost, size = reference_subset_table(sub)
        mask = min(range(1, 1 << m), key=lambda x: (OPENING_COST * size[x] + cost[x], x))
        assert ids.tobytes() == _mask_ids(mask, m).tobytes() and k == size[mask]

    def test_first_least_mask_among_tied_sets(self):
        # clients at 0 and 10, candidates 0, 10, 10 and 5: {0, 10} at
        # positions 0 and 1 (mask 3) and {0, 10'} (mask 5) both cost 2,
        # and {5} costs 11
        xs, cs = np.array([0.0, 10.0]), np.array([0.0, 10.0, 10.0, 5.0])
        pts = np.concatenate([cs, xs])
        D = np.abs(pts[:, None] - pts[None, :])
        k, v, ids = solvers.ufl_local_search(D, [4, 5], np.arange(4))
        assert (k, v, ids.tolist()) == (2, 0.0, [0, 1])


# ---------------------------------------------------------------------------
# Data-point certificate of the 1-median
# ---------------------------------------------------------------------------

def reference_weiszfeld(points):
    """weiszfeld_1median without the data-point certificate: Weiszfeld
    iteration from the centroid with the Vardi-Zhang escape step."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(P) == 1:
        return WeiszfeldResult(P[0].copy(), 0.0, True, 0.0)

    y = P.mean(axis=0)
    d = np.linalg.norm(P - y, axis=1)
    obj = float(d.sum())
    converged = False
    for _ in range(solvers._WEISZFELD_MAX_ITER):
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
            if rnorm <= eta:
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
        improvement = obj - new_obj
        y, obj = y_new, min(obj, new_obj)
        if improvement <= solvers._WEISZFELD_TOL * max(obj, 1e-30):
            converged = True
            break
    return WeiszfeldResult(y, obj, converged, 0.0)


def certified_index(P):
    """j*, the first point of least distance sum, if it passes the strict
    Kuhn test, else None."""
    j = int(np.argmin(cdist(P, P).sum(axis=1)))
    d = np.linalg.norm(P - P[j], axis=1)
    same = d == 0.0
    g = ((P[~same] - P[j]) / d[~same, None]).sum(axis=0)
    return j if np.linalg.norm(g) < same.sum() * (1.0 - 1e-9) else None


def assert_at_most_reference(P):
    """weiszfeld_1median on P costs at most what the reference iteration
    reaches (1e-12 relative), its bound is at most its cost, and a
    converged result is within the tolerance of that bound."""
    res = weiszfeld_1median(P)
    ref = reference_weiszfeld(P)
    assert res.cost <= ref.cost * (1 + 1e-12)
    assert res.lower <= res.cost
    assert not res.converged or res.cost - res.lower <= solvers._WEISZFELD_TOL * res.cost
    return res


def steps(P):
    """The distance sums of weiszfeld_1median(P) at the start and after
    every step: its cost with _WEISZFELD_MAX_ITER capped at t = 0, 1, ...,
    up to the first cap whose result is byte-equal to the uncapped one."""
    full = _result_bytes(weiszfeld_1median(P))
    sums = []
    with pytest.MonkeyPatch.context() as mp:
        for t in itertools.count():
            mp.setattr(solvers, "_WEISZFELD_MAX_ITER", t)
            res = weiszfeld_1median(P)
            sums.append(res.cost)
            if _result_bytes(res) == full:
                return sums


# its centroid is the data point (0, 0), which is not the median, so the
# iteration starts on a data point and the escape step runs
ESCAPE_INPUT = np.array([[0, 0], [1, 0], [1, 0.01], [1, -0.01], [-3, 0]], dtype=float)


@st.composite
def point_sets(draw, max_dim=4):
    """1..12 rows in 1..max_dim dimensions, drawn with repetition from up to
    12 distinct rows of floats or of small integers."""
    dim = draw(st.integers(1, max_dim))
    coord = (st.integers(-3, 3).map(float) if draw(st.booleans())
             else st.floats(-100.0, 100.0, allow_nan=False))
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))
    return np.array([rows[i] for i in picks], dtype=np.float64)


@st.composite
def blocked_point_sets(draw):
    """(P, blocks, order): P from point_sets in up to 12 dimensions, past
    the 11 that 12 points can span, at times made collinear or given
    near-duplicates 1e-12 apart; 1..6 blocks of P, repeats allowed; and a
    permutation of the blocks."""
    P = draw(point_sets(max_dim=12))
    if draw(st.booleans()):
        P[:, 1:] = 0.0
    if draw(st.booleans()):
        near = P[:draw(st.integers(1, len(P)))].copy()
        near[:, 0] += 1e-12
        P = np.vstack([P, near])
    block = st.lists(st.integers(0, len(P) - 1), min_size=1, max_size=len(P), unique=True)
    blocks = draw(st.lists(block, min_size=1, max_size=6))
    order = draw(st.permutations(range(len(blocks))))
    return P, [np.array(b) for b in blocks], order


def _result_bytes(res):
    return res.center.tobytes() + _f8(res.cost, res.converged, res.lower)


class TestWeiszfeldCertificate:
    @given(case=blocked_point_sets())
    @settings(max_examples=200, deadline=None)
    @example(case=(np.array([[0, 0], [1, 0], [1, 0], [2, 0], [0, 1], [5, 5], [5, 5 + 1e-12],
                             [3, 3]], dtype=float),
                   # a singleton, a pair, copies, a collinear block with a
                   # data-point median, near-duplicates, and all points
                   [np.array(b) for b in ([0], [0, 4], [1, 2], [0, 1, 3], [5, 6], [5, 6, 7],
                                          range(8))],
                   [6, 5, 4, 3, 2, 1, 0]))
    # exact_n12's final recentering: 12 points in 64 dimensions
    @example(case=(generate_dataset("subspace", 12, 64, 2, 12).coords,
                   [np.array(b) for b in (range(12), [0, 3, 5, 7, 11], [1, 2, 4], [6, 8, 9, 10],
                                          [2, 9])],
                   [3, 0, 4, 1, 2]))
    # two rows, then one once the pair's first stops: a k-vector product
    # summed in another order on one row than on two moved the lower bound
    @example(case=(np.array([[0, 39, 2], [7, 0, 0], [1e-12, 39, 2]], dtype=float),
                   [np.array([0, 1, 2]), np.array([0, 1, 2])], [1, 0]))
    def test_blocks_match_solo_calls(self, case):
        # a block works on its own members, gathered in order, and rows
        # reduce row by row: its bytes do not depend on the other blocks of
        # its call or their order, and equal those of a call on P[b] alone
        P, blocks, order = case
        batch = weiszfeld_1median(P, blocks=blocks)
        shuffled = weiszfeld_1median(P, blocks=[blocks[i] for i in order])
        assert len(batch) == len(blocks)
        for i, b in enumerate(blocks):
            res = batch[i]
            solo = _result_bytes(weiszfeld_1median(P, blocks=[b])[0])
            assert _result_bytes(res) == solo == _result_bytes(shuffled[order.index(i)])
            assert _result_bytes(res) == _result_bytes(weiszfeld_1median(P[b]))
            assert res.lower <= res.cost

    @given(P=point_sets())
    @settings(max_examples=300, deadline=None)
    # an even count on a line: the segment of medians between 0 and 1.4e-75
    # holds data points, whose sum 162.000000001 is the optimum; the
    # iteration stops at 162.00000000166665, within its tolerance but above
    # the reference's 162.00000000120068, so the data-point floor decides
    @example(P=np.array([38, 38, 38, 38, 0, 0, -1, 1e-9, -3, -3, -3, 1.41933678e-75])[:, None])
    def test_at_most_the_reference_or_certified_data_point(self, P):
        res = assert_at_most_reference(P)
        j = certified_index(P)
        if j is not None:
            assert res.center.tobytes() == P[j].tobytes()
            assert res.converged and res.lower == res.cost

    @given(P=point_sets(max_dim=2))
    @settings(max_examples=60, deadline=None)
    def test_lower_bound_at_most_the_grid_oracle(self, P):
        # the grid's best distance sum, rounded, is attained, so at least opt
        oracle = grid_1median_oracle(P, step=1e-2, refine=1e-4)
        assert weiszfeld_1median(P).lower <= oracle * (1 + 1e-12)

    def test_obtuse_triangle_returns_the_vertex(self):
        # the angle at (0, 0) is about 153 degrees
        res = weiszfeld_1median(np.array([[0.0, 0.0], [3.0, 0.0], [-2.0, 1.0]]))
        assert res.center.tolist() == [0.0, 0.0]
        assert res.cost == pytest.approx(3.0 + math.sqrt(5.0), rel=1e-15)

    def test_majority_point_is_returned(self):
        P = np.array([[4.0, 1.0], [1.0, 1.0], [5.0, 1.0], [5.0, 1.0], [5.0, 1.0]])
        res = weiszfeld_1median(P)
        assert res.center.tolist() == [5.0, 1.0] and res.cost == 5.0

    def test_segments_of_medians_keep_the_iteration(self):
        # two points and four on a line have |g| = eta at the first point of
        # least sum, a segment of medians: the strict test keeps the
        # midpoint answers, as it does for the square's corners (|g| > eta),
        # where the bound proves the centroid optimal before any step
        for P in (np.array([[0.0, 0.0], [1.0, 2.0]]),
                  np.array([[0.0], [1.0], [3.0], [7.0]]),
                  np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)):
            assert certified_index(P) is None
            res = assert_at_most_reference(P)
            assert res.converged and len(steps(P)) == 1
            np.testing.assert_allclose(res.center, P.mean(axis=0), rtol=0, atol=1e-14)

    def test_points_near_but_not_on_the_vertex_count_as_others(self):
        # every point lies within 1e-12 of (0, 0), and the centroid costs
        # less than that vertex: the certificate must not return it
        P = np.array([[0.0, 0.0], [1e-13, 0.0], [0.0, 1e-13]])
        assert certified_index(P) is None
        res = assert_at_most_reference(P)
        assert res.cost < 2e-13

    def test_escape_step_still_runs(self):
        assert certified_index(ESCAPE_INPUT) is None
        res = assert_at_most_reference(ESCAPE_INPUT)
        assert len(steps(ESCAPE_INPUT)) > 1
        # on the axis, the slope 1 - 2t / sqrt(t^2 + 1e-4) at x = 1 - t
        # vanishes at t = 0.01 / sqrt(3)
        np.testing.assert_allclose(res.center, [1.0 - 0.01 / math.sqrt(3.0), 0.0], atol=1e-8)


def rotated_planar_groups(seed):
    """(P2, X, basis, blocks): 10 planar groups of 8 points P2, X = P2 @
    basis.T their rotation into R^1024 by orthonormal columns basis (the
    first two columns of a random orthogonal matrix), and the groups as
    blocks."""
    rng = np.random.default_rng(seed)
    P2 = (rng.uniform(-1.5, 1.5, (10, 8, 2)) + 10.0 * np.arange(10)[:, None, None]).reshape(80, 2)
    basis = np.linalg.qr(rng.standard_normal((1024, 2)))[0]
    return P2, P2 @ basis.T, basis, [np.arange(8 * i, 8 * i + 8) for i in range(10)]


class TestSpanCoordinates:
    # a block's median lies in its members' affine span, and the kernel
    # runs in at most w - 1 coordinates of it: a planar set rotated into
    # R^1024 gives its R^2 answers, at a cost that does not grow with d
    def test_rotated_planar_groups_match_the_plane(self):
        P2, X, basis, blocks = rotated_planar_groups(0)
        plane = weiszfeld_1median(P2, blocks=blocks)
        batch = weiszfeld_1median(X, blocks=blocks)
        for b, ref, res in zip(blocks, plane, batch):
            diam = cdist(P2[b], P2[b]).max()
            for got in (res, weiszfeld_1median(X[b])):
                assert abs(got.cost - ref.cost) <= solvers._WEISZFELD_TOL * ref.cost
                assert (np.linalg.norm(got.center - ref.center @ basis.T)
                        <= solvers._WEISZFELD_TOL * diam)
                assert got.converged == ref.converged

    def test_rotated_planar_groups_peak_memory(self):
        # below one 1024 x 1024 float matrix: a d x d Hessian per row,
        # which an ambient-coordinate kernel forms, would exceed it
        _, X, _, blocks = rotated_planar_groups(0)
        weiszfeld_1median(X[:8])
        tracemalloc.start()
        try:
            weiszfeld_1median(X, blocks=blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8


class TestBallGrowingCostBound:
    @given(P=point_sets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cost_at_most_two_c_minus_one(self, P, data):
        # a client at distance 0 pays any radius, so every radius is at most
        # 1; a blocked client lies within 2 of a kept one, and one opens
        keep = data.draw(st.lists(st.booleans(), min_size=len(P), max_size=len(P)))
        ids = np.flatnonzero(keep) if any(keep) else np.arange(len(P))
        D = PointSet(P).distance_matrix()
        bound = MatrixApproxHandle.cost_bound(len(ids))
        assert bound == 2 * len(ids) - 1
        assert mp_ufl_value(D, ids)[0] <= bound * (1 + 1e-9)
        cost, fids = mp_ufl_value(D, ids[:1])
        assert cost == 1.0 and fids.tolist() == ids[:1].tolist()

    @given(P=point_sets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_candidate_sets_holding_the_members_cost_at_most_three_c(self, P, data):
        # members are candidates of radius at most 1, so every client lies
        # within 2 of a kept candidate; kept candidates' balls hold distinct
        # clients, so at most c open. Non-members are candidates too, some
        # of them near members, in an order that interleaves the two.
        dim = P.shape[1]
        offsets = st.lists(st.floats(-1.5, 1.5), min_size=dim, max_size=dim)
        near = [P[data.draw(st.integers(0, len(P) - 1))] + data.draw(offsets)
                for _ in range(data.draw(st.integers(0, 6)))]
        far = data.draw(st.lists(st.lists(st.floats(-100.0, 100.0), min_size=dim,
                                          max_size=dim), max_size=6))
        pts = np.concatenate([P, np.reshape(near, (-1, dim)), np.reshape(far, (-1, dim))])
        pts = pts[data.draw(st.permutations(range(len(pts))))]
        flags = st.lists(st.booleans(), min_size=len(pts), max_size=len(pts))
        member = np.array(data.draw(flags))
        member[data.draw(st.integers(0, len(pts) - 1))] = True
        members = np.flatnonzero(member)
        cand = np.flatnonzero(member | np.array(data.draw(flags)))
        D = PointSet(pts).distance_matrix()
        bound = RestrictedApproxHandle.cost_bound(len(members))
        assert bound == 3 * len(members)
        assert restricted_ufl_value(D, members, cand)[0] <= bound * (1 + 1e-9)
        assert restricted_ufl_value(D, members[:1], cand)[0] == 1.0

    def test_whole_instance_peak_memory(self):
        # the guiding solution's call reads D in place: chunks of
        # _RADII_CELLS distances, one column per kept candidate and the kept
        # rows for the connection cost, about 0.14 matrices
        D = blob_instance(20, 50, seed=1).distance_matrix()
        tracemalloc.start()
        try:
            mp_ufl_value(D, np.arange(len(D)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(D) == 1000 and peak <= 0.25 * D.nbytes


def reference_restricted_ufl_value(D, clients, candidates):
    """restricted_ufl_value from the gathered candidates x clients block and
    the candidates' square block, with the reference radii and selection."""
    sub = D[np.ix_(candidates, clients)]
    sel = reference_mp_select(D[np.ix_(candidates, candidates)], reference_mp_radii(sub))
    return float(OPENING_COST * len(sel) + sub[sel].min(axis=0).sum()), 3.0, candidates[sel]


class TestBallGrowingEqualsTheReference:
    # euclid_split's shape, n = 400: rows of more than _SHORT_ROW clients,
    # of which each candidate keeps at most a few dozen within least + 1
    X = blob_instance(8, 50, seed=1)
    D = X.distance_matrix()
    ids = np.arange(len(D))

    def test_whole_instance(self):
        D, ids = self.D, self.ids
        assert (D <= D.min(axis=1, keepdims=True) + 1.0).sum(axis=1).max() < len(D) // 10
        cost, factor, fids = reference_restricted_ufl_value(D, ids, ids)
        got = restricted_ufl_value(D, ids, ids)
        assert _f8(*got[:2]) + _i8(got[2]) == _f8(cost, factor) + _i8(fids)
        value, mp_ids = mp_ufl_value(D, ids)
        assert _f8(value) + _i8(mp_ids) == _f8(cost) + _i8(fids)
        assert _i8(approx_ufl(self.X).facility_ids) == _i8(fids)
        assert _i8(ptas.guiding_assignment(D)) == _i8(fids[np.argmin(D[:, fids], axis=1)])

    def test_candidates_differ_from_clients(self):
        # as RestrictedApproxHandle's candidate_set: the ids within a radius
        # of some client, here two blobs' clients and a third blob besides
        D = self.D
        clients = np.sort(np.argsort(D[0], kind="stable")[:100])
        candidates = np.flatnonzero((D[clients] <= 80.0).any(axis=0))
        assert len(clients) < len(candidates) < len(D)
        got = restricted_ufl_value(D, clients, candidates)
        want = reference_restricted_ufl_value(D, clients, candidates)
        assert _f8(*got[:2]) + _i8(got[2]) == _f8(*want[:2]) + _i8(want[2])


# ---------------------------------------------------------------------------
# Sequential reference loops for the exact subset kernels
# ---------------------------------------------------------------------------

def full_table_partition_dp(med1, s):
    """The UFL partition DP over every (mask, submask) pair, one
    _submask_layers chunk at a time: _live_partition_dp's splits, float
    operations and tie rule, with every row and mask live. _ufl_exact must
    return its bytes on _med1_costs's full table."""
    nm = 1 << s
    dp = np.zeros(nm)
    blocks = np.zeros(nm, dtype=np.int64)
    choice = np.zeros(nm, dtype=np.int64)
    for S, T in _submask_layers(s):
        rest = S[:, None] ^ T
        v = dp[rest] + OPENING_COST
        v += med1[T]
        r = np.arange(len(S))
        i = v.argmin(axis=1)
        best = v[r, i]
        v[r, i] = np.inf
        tie = np.flatnonzero(v.min(axis=1) <= best + 1e-12)
        v[r, i] = best
        if len(tie):
            near = v[tie] <= (best[tie] + 1e-12)[:, None]
            i[tie] = np.where(near, blocks[rest[tie]], nm).argmin(axis=1)
        t = T[r, i]
        dp[S], blocks[S], choice[S] = v[r, i], blocks[S ^ t] + 1, t
    parts = []
    S = nm - 1
    while S:
        T = int(choice[S])
        parts.append(_mask_ids(T, s))
        S ^= T
    return float(dp[nm - 1]), parts


def reference_ufl_partition_dp(med1, s):
    """The UFL partition DP one (mask, submask) pair at a time: the least
    split, the fewest blocks within 1e-12 of it, then the first T in
    decreasing order."""
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


def reference_least_partitions(costs, s):
    """_least_partitions one (mask, submask) pair at a time: each mask's
    least split, the first in decreasing order of T."""
    nm = 1 << s
    dp = [0.0] * nm
    choice = [0] * nm
    cost = costs.tolist()
    for S in range(1, nm):
        low = S & (-S)
        best, T = float("inf"), S
        while T:
            if T & low:
                v = dp[S ^ T] + OPENING_COST + cost[T]
                if v < best:
                    best, choice[S] = v, T
            T = (T - 1) & S
        dp[S] = best
    return np.array(dp), np.array(choice, dtype=np.int64)


def reference_kmedian_exact_dp(med1, s, k):
    """_kmedian_exact_dp one mask at a time: its splits in decreasing
    order of T, then the first within 1e-12 of the least."""
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
            splits = []
            T = S
            while T:
                if T & low:
                    splits.append((prev[S ^ T] + med[T], T))
                T = (T - 1) & S
            least = min(v for v, _ in splits)
            cur[S], ch[S] = next((v, T) for v, T in splits if v <= least + 1e-12)
        choices.append(ch)
        prev = cur
    parts = []
    S = nm - 1
    for j in range(k - 1, -1, -1):
        T = choices[j][S]
        parts.append(_mask_ids(T, s))
        S ^= T
    return prev[nm - 1], parts


def reference_subset_table(sub):
    """_subset_table one mask at a time."""
    nc, m = sub.shape
    nm = 1 << m
    dmin = np.empty((nm, nc))
    dmin[0] = np.inf
    size = [0] * nm
    for mask in range(1, nm):
        low = mask & (-mask)
        np.minimum(dmin[mask ^ low], sub[:, low.bit_length() - 1], out=dmin[mask])
        size[mask] = size[mask ^ low] + 1
    return dmin.sum(axis=1), np.asarray(size)


def reference_mp_radii(rows):
    """_mp_radii with the shifted copy of the sorted rows."""
    s = rows.shape[1]
    order = np.sort(rows, axis=1)
    csum = np.cumsum(order, axis=1)
    r_cand = (OPENING_COST + csum) / np.arange(1, s + 1)
    nxt = np.concatenate([order[:, 1:], np.full((len(rows), 1), np.inf)], axis=1)
    valid = r_cand <= nxt * (1 + 1e-12) + 1e-15
    return r_cand[np.arange(len(rows)), valid.argmax(axis=1)]


def _exact_input(rng, kind, s):
    """s points in 3-d: random floats, collinear, a small integer grid (many
    tied distances) or copies of at most four distinct points."""
    if kind == "random":
        return rng.random((s, 3)) * 3.0
    if kind == "collinear":
        return rng.random((s, 1)) * 4.0 * rng.normal(size=3) + rng.random(3)
    if kind == "grid":
        return rng.integers(0, 3, (s, 3)).astype(float)
    return (rng.random((4, 3)) * 3.0)[rng.integers(0, 4, s)]


EXACT_KINDS = ("random", "collinear", "grid", "coincident")


def _blocks_bytes(value, blocks) -> bytes:
    return _f8(value) + b"".join(_i8(b) for b in blocks)


@st.composite
def exact_inputs(draw, max_size=14):
    """1..max_size points of one of the EXACT_KINDS, from a drawn seed."""
    s = draw(st.integers(1, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _exact_input(rng, draw(st.sampled_from(EXACT_KINDS)), s)


class TestExactKernelsEqualTheLoops:
    @given(P=exact_inputs(max_size=10))
    @settings(max_examples=30, deadline=None)
    @example(P=_exact_input(np.random.default_rng(0), "grid", 10))    # ties the fewest blocks break
    def test_ufl_partition_dp(self, P):
        # every row and every mask live: each row sees all 2^s masks, so
        # the draws stop at 10 points
        s = len(P)
        med1 = _med1_costs(P)
        every = np.ones(1 << s, dtype=bool)
        want = _blocks_bytes(*reference_ufl_partition_dp(med1, s))
        assert _blocks_bytes(*_live_partition_dp(med1, s, every, every)) == want
        assert _blocks_bytes(*full_table_partition_dp(med1, s)) == want

    @given(P=exact_inputs(max_size=10))
    @settings(max_examples=30, deadline=None)
    @example(P=_exact_input(np.random.default_rng(0), "grid", 12))    # many tied splits
    def test_least_partitions(self, P):
        s = len(P)
        med1 = _med1_costs(P)
        dp, choice = solvers._least_partitions(med1, s)
        want_dp, want_choice = reference_least_partitions(med1, s)
        assert dp.tobytes() == want_dp.tobytes()
        assert np.array_equal(choice, want_choice)

    @given(P=exact_inputs(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_kmedian_exact_dp(self, P, data):
        # the loop takes k * 3^s / 2 steps: above 11 points, k stays small
        s = len(P)
        k = data.draw(st.integers(1, s if s <= 11 else 2))
        med1 = _med1_costs(P)
        assert (_blocks_bytes(*_kmedian_exact_dp(med1, s, k))
                == _blocks_bytes(*reference_kmedian_exact_dp(med1, s, k)))

    @given(seed=st.integers(0, 2**32 - 1), nc=st.integers(1, 30), m=st.integers(1, 14),
           ties=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_subset_table(self, seed, nc, m, ties):
        sub = _distances(np.random.default_rng(seed), (nc, m), ties)
        cost, size = _subset_table(sub)
        ref_cost, ref_size = reference_subset_table(sub)
        assert cost.tobytes() == ref_cost.tobytes()
        assert size.dtype == ref_size.dtype and np.array_equal(size, ref_size)

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), cols=st.integers(1, 30),
           ties=st.booleans())
    @settings(max_examples=100, deadline=None)
    @example(seed=1, rows=1, cols=9000, ties=True)      # several chunks: see _RADII_CELLS
    @example(seed=2, rows=300, cols=30, ties=True)
    @example(seed=3, rows=700, cols=41, ties=False)
    @example(seed=4, rows=8193, cols=1, ties=True)
    def test_mp_radii(self, seed, rows, cols, ties):
        R = _distances(np.random.default_rng(seed), (rows, cols), ties)
        assert _mp_radii(R).tobytes() == reference_mp_radii(R).tobytes()

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30), cols=st.integers(1, 150),
           scale=st.sampled_from([1e-6, 1e-3, 1.0, 30.0, 1e3, 1e8, 1e15, 1e16]),
           ulps=st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    @example(seed=5, rows=30, cols=64, scale=1.0, ulps=4)       # either side of _SHORT_ROW
    @example(seed=5, rows=30, cols=65, scale=1.0, ulps=4)
    @example(seed=6, rows=700, cols=100, scale=1.0, ulps=2)     # several mask chunks
    @example(seed=7, rows=100, cols=1000, scale=1e-3, ulps=1)   # every entry kept
    @example(seed=8, rows=3, cols=9000, scale=1e16, ulps=3)     # one row per chunk
    def test_mp_radii_of_cut_rows(self, seed, rows, cols, scale, ulps):
        # rows spread over 20 times their scale, so most entries lie past
        # least + 1 (or, at 1e16, where + 1 rounds away, past the bound's
        # 1e-9). A fifth of a row's entries sit, up to ulps ulp either side,
        # at one edge: least + 1, the bound, or just below least + 1, where
        # a second-least entry makes r_1 fail the 1e-12 slack. Cut at the
        # default _SHORT_ROW, and at 0, where every row is cut
        rng = np.random.default_rng(seed)
        R = rng.random((rows, cols)) * (20.0 * scale)
        edge = R.min(axis=1) + OPENING_COST
        edge = (edge * rng.choice([1.0, 1 + 1e-9, 1 - 1e-11, 1 - 1e-6], rows))[:, None]
        shifted = (np.broadcast_to(edge, R.shape).view(np.int64)
                   + rng.integers(-ulps, ulps + 1, R.shape)).view(np.float64)
        R = np.where(rng.random(R.shape) < 0.2, shifted, R)
        want = reference_mp_radii(R).tobytes()
        assert _mp_radii(R).tobytes() == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_SHORT_ROW", 0)
            assert _mp_radii(R).tobytes() == want

    def test_submask_layers_cover_every_split_once(self):
        for s in (1, 2, 5, 12):
            seen, last_p = [], 0
            for S, T in _submask_layers(s):
                assert S.dtype == T.dtype == np.int32 and T.size <= 8192
                p = int(T.shape[1]).bit_length()
                assert p >= last_p and all(bin(x).count("1") == p for x in S.tolist())
                assert np.all(np.diff(T, axis=1) < 0) and np.all(T & ~S[:, None] == 0)
                assert np.all(T & (S & -S)[:, None])
                seen += [(int(a), int(b)) for a, row in zip(S, T) for b in row]
                last_p = p
            assert len(seen) == len(set(seen)) == (3 ** s - 1) // 2


class TestExactKMedianTies:
    def test_ulp_changes_in_med1_keep_the_blocks(self):
        # the 12-point integer grid of the exact_oracles digest at seed 2:
        # kmedian(P, 7) has partitions of equal cost, and the first least
        # split by exact argmin swapped them when med1 moved by an ulp
        P = np.array([[0, 2, 1], [0, 1, 1], [1, 1, 1], [2, 1, 0], [2, 1, 2], [1, 1, 1],
                      [1, 2, 0], [2, 2, 0], [2, 0, 2], [1, 1, 1], [0, 2, 2], [2, 0, 2]],
                     dtype=float)
        med1 = _med1_costs(P)
        blocks = [b.tolist() for b in _kmedian_exact_dp(med1, 12, 7)[1]]
        ulp = np.finfo(np.float64).eps
        rng = np.random.default_rng(0)
        for sign in (1.0, -1.0):
            for _ in range(5):
                scaled = med1 * (1.0 + sign * 4.0 * ulp * rng.integers(0, 2, len(med1)))
                assert [b.tolist() for b in _kmedian_exact_dp(scaled, 12, 7)[1]] == blocks


class TestPrunedUflExact:
    @given(P=exact_inputs(), scale=st.sampled_from([0.05, 1.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    @example(P=_exact_input(np.random.default_rng(14), "random", 14), scale=1.0)
    @example(P=_exact_input(np.random.default_rng(14), "grid", 14), scale=1.0)   # many ties
    def test_equals_the_full_table(self, P, scale):
        P = P * scale
        assert (_blocks_bytes(*solvers._ufl_exact(P))
                == _blocks_bytes(*full_table_partition_dp(_med1_costs(P), len(P))))

    @given(P=exact_inputs(), scale=st.sampled_from([0.05, 1.0, 10.0]))
    @settings(max_examples=30, deadline=None)
    def test_centroid_bounds_are_lower_bounds(self, P, scale):
        # at most every distance sum: the least data-point sum and the
        # lockstep's converged one, up to rounding
        P = P * scale
        PT, M, costs, rest = solvers._certified_subsets(P)
        lb = solvers._centroid_bounds(solvers._rows_view(PT, len(M)), M)
        assert np.all(lb >= 0.0)
        assert np.all(lb <= costs[rest] * (1.0 + 1e-12))
        assert np.all(lb <= _med1_costs(P)[rest + 1] * (1.0 + 1e-12))

    def test_prunes_most_open_masks(self, monkeypatch):
        # the lockstep sees under a tenth of the masks the certificate
        # leaves open
        calls, lockstep = [], solvers._median_lockstep

        def counted(P, M):
            calls.append(len(M))
            return lockstep(P, M)

        monkeypatch.setattr(solvers, "_median_lockstep", counted)
        for s in range(4):
            P = generate_dataset("subspace", 12, 64, 2, s).coords
            calls.clear()
            _med1_costs(P)
            (opened,) = calls
            calls.clear()
            brute_force_ufl_continuous(P)
            (iterated,) = calls
            assert iterated < 0.1 * opened, s

    def test_dp_sees_few_rows_and_masks(self, monkeypatch):
        # at most 7.0% of the 4 095 rows and 6.3% of the masks on these
        # inputs; the full-table DP sees them all
        seen, dp = [], solvers._live_partition_dp

        def counted(costs, s, masks, rows):
            seen.append((int(masks[1:].sum()), int(rows[1:].sum())))
            return dp(costs, s, masks, rows)

        monkeypatch.setattr(solvers, "_live_partition_dp", counted)
        for s in range(4):
            brute_force_ufl_continuous(generate_dataset("subspace", 12, 64, 2, s).coords)
            masks, rows = seen.pop()
            assert 0 < masks < 0.1 * 4095 and 0 < rows < 0.1 * 4095, s

    def test_dp_temporaries_stay_within_their_budget(self, monkeypatch):
        # 4 992 live rows and 88 live masks: layers of up to 840 rows make
        # 73 920 (row, mask) cells, so the DP must chunk them. Its peak is
        # its three 2^14 tables and a few _DP_PAIRS-cell temporaries
        # (6.4 of them), where one unchunked layer's would alone take 9
        P = _exact_input(np.random.default_rng(0), "random", 14)
        calls, dp = [], solvers._live_partition_dp

        def kept(*args):
            calls.append(args)
            return dp(*args)

        monkeypatch.setattr(solvers, "_live_partition_dp", kept)
        want = solvers._ufl_exact(P)
        (args,) = calls
        _, s, masks, rows = args
        assert int(masks.sum()) * int(rows.sum()) > solvers._DP_PAIRS
        tracemalloc.start()
        try:
            got = dp(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _blocks_bytes(*got) == _blocks_bytes(*want)
        assert peak <= 3 * 8 * (1 << s) + 8 * 8 * solvers._DP_PAIRS


class TestCertifiedSubsetMedians:
    def test_mask_reaches_its_optimum(self):
        # mask 2070 (points 1, 2, 4 and 11) of this instance once stopped
        # 6.3e-6 above its optimum, where one step improved by too little;
        # the reference is BFGS on the distance sum, an independent method
        P = generate_dataset("subspace", 12, 64, 2, 12).coords
        Q = _affine_reduce(P)[_mask_ids(2070, 12)]
        ref = minimize(lambda y: np.linalg.norm(Q - y, axis=1).sum(), Q.mean(axis=0),
                       jac=lambda y: ((y - Q) / np.linalg.norm(Q - y, axis=1)[:, None]).sum(axis=0),
                       method="BFGS", options={"gtol": 1e-13}).fun
        assert abs(_med1_costs(P)[2070] - ref) <= 1e-9 * ref

    @given(P=exact_inputs(max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_every_mask_matches_the_one_row_call(self, P):
        # both are distance sums within the tolerance of the same optimum
        R = _affine_reduce(P)
        med1 = _med1_costs(P)
        for mask in range(1, 1 << len(P)):
            one = weiszfeld_1median(R[_mask_ids(mask, len(P))]).cost
            assert abs(med1[mask] - one) <= solvers._WEISZFELD_TOL * max(med1[mask], one) + 1e-12


class TestExactKernelsRetainNothing:
    # the n = 12 oracle and the exact sweep keep no state between calls: a
    # second call returns the same bytes, and nothing the first call made
    # outlives it beyond its result
    def test_repeated_calls(self):
        P = generate_dataset("subspace", 12, 64, 2, 7).coords

        def sweep(Q):
            k, v, blocks = _exact_projected_sweep(Q)
            return _f8(k) + _blocks_bytes(v, blocks)

        for call in (sweep, lambda Q: _f8(brute_force_ufl_continuous(Q))):
            call(P[:4])                                   # lazy imports and set-up
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                first = call(P)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert retained <= 8192
            assert call(P) == first

    def test_oracle_peak_memory(self):
        # 1.70-1.89 MB over these seeds: the lockstep holds the active masks'
        # rows only, and a batch of halvings past _MEDIAN_CELLS, or full-size
        # copies next to the rows, would exceed the bound
        brute_force_ufl_continuous(generate_dataset("subspace", 12, 64, 2, 7).coords[:4])
        for seed in range(8):
            P = generate_dataset("subspace", 12, 64, 2, seed).coords
            tracemalloc.start()
            try:
                brute_force_ufl_continuous(P)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2.5e6, seed


class _Rows(int):
    """A _MEDIAN_CELLS that gives every chunk the same number of rows,
    whatever a width class's w and k: cells // (w * k) is that number. It
    also sets how many halvings of failed Newton steps go in each batch,
    cells // (retried rows * w * k), up to all _BACKTRACK of them."""

    def __floordiv__(self, cells):
        return int(self)


class TestChunkInvariance:
    # rows reduce along their own members only, and a row takes its first
    # passing halving whichever batch holds it, so the chunks that
    # _MEDIAN_CELLS cuts the rows into, and the batches it cuts the
    # halvings into, change no byte of the results: 1, 7 and all halvings
    # per batch, the last with every row in one chunk
    def _chunked(self, call, monkeypatch):
        outputs = [call()]
        for rows in (1, 7, 1 << 20):
            monkeypatch.setattr(solvers, "_MEDIAN_CELLS", _Rows(rows))
            outputs.append(call())
        return outputs

    def test_subset_costs(self, monkeypatch):
        # Newton steps fail on this input and are halved: counted once, 538
        # retried rows, whose first passing halving runs from t = 1/2 (281
        # rows) to t = 1/2^9 (1 row), so batches of 7 split some of them
        P = generate_dataset("subspace", 12, 64, 2, 7).coords
        whole, one, seven, every = self._chunked(lambda: _med1_costs(P).tobytes(), monkeypatch)
        assert whole == one == seven == every

    def test_a_row_alone_in_a_subset_and_in_the_full_table(self, monkeypatch):
        # _ufl_exact runs the lockstep on a subset of _med1_costs's rows, so
        # a row's (upper, lower, center) bytes must not depend on which rows
        # share its call: the Hessian's batched matmul and np.linalg.solve
        # see the full table's stacks, a tenth of them, and one row. On this
        # input Newton steps fail, so the halvings run, some on a row alone
        P = generate_dataset("subspace", 12, 64, 2, 7).coords
        PT, M, _, _ = solvers._certified_subsets(P)

        def lockstep(rows):
            upper, lower, centers = solvers._median_lockstep(
                solvers._rows_view(PT, len(rows)), M[rows])
            return [(u.tobytes(), lo.tobytes(), c.tobytes())
                    for u, lo, c in zip(upper, lower, centers)]

        full = lockstep(np.arange(len(M)))
        subset = np.sort(np.random.default_rng(3).choice(len(M), len(M) // 10, replace=False))
        assert lockstep(subset) == [full[i] for i in subset]
        halved, sums_at = [], solvers._sums_at

        def counted(D, mask):
            halved.append(D.ndim == 4)          # a (k, row, t, member) batch of halvings
            return sums_at(D, mask)

        monkeypatch.setattr(solvers, "_sums_at", counted)
        alone = 0
        for i in subset[:60]:
            halved.clear()
            assert lockstep(np.array([i])) == [full[i]]
            alone += any(halved)
        assert alone >= 3

    def test_blocks_of_mixed_widths(self, rng, monkeypatch):
        P = rng.random((40, 3))
        blocks = [rng.choice(40, size, replace=False) for size in rng.integers(2, 18, 30)]
        whole, one, seven, every = self._chunked(
            lambda: b"".join(_result_bytes(r) for r in weiszfeld_1median(P, blocks=blocks)),
            monkeypatch)
        assert whole == one == seven == every


# ---------------------------------------------------------------------------
# Golden solver outputs
# ---------------------------------------------------------------------------

def _f8(*values) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes() + b"|"


def _i8(ids) -> bytes:
    return np.asarray(ids, dtype="<i8").tobytes() + b"|"


def _golden_restricted_value(rng):
    D = random_points(rng, 60, 2, scale=4.0).distance_matrix()
    for clients, candidates in [(np.arange(60), np.arange(60)),
                                (np.arange(10, 60), np.arange(0, 25))]:
        cost, factor, ids = restricted_ufl_value(D, clients, candidates)
        yield _i8(ids) + _f8(cost, factor)


def _golden_approx_ufl(rng):
    yield _i8(approx_ufl(random_points(rng, 80, 2, scale=4.0)).facility_ids)


def _golden_weiszfeld(rng):
    # hit's median is a data point, which the certificate returns; the
    # escape input keeps the escape step under the digest
    start = rng.integers(-5, 5, 2).astype(float)
    hit = start + np.array([[0, 0], [-3, 0], [1, 0], [1, 0], [1, 0]], dtype=float)
    for P in (rng.random((25, 3)), rng.random((7, 2)) * 10.0, hit, ESCAPE_INPUT):
        res = weiszfeld_1median(P)
        yield res.center.astype("<f8").tobytes() + _f8(res.cost, res.converged)


def _golden_exact_oracles(seed):
    # every kind at s = 1, 2, 3, 7; one kind per seed at s = 12 and s = 14
    rng = np.random.default_rng(seed)
    inputs = [_exact_input(rng, kind, s) for s in (1, 2, 3, 7) for kind in EXACT_KINDS]
    inputs.append(_exact_input(rng, EXACT_KINDS[seed % 4], 12))
    inputs.append(_exact_input(rng, EXACT_KINDS[(seed + 1) % 4], 14))
    for P in inputs:
        s = len(P)
        med1 = _med1_costs(P)
        # the continuous oracle's body without its cap at s = 14
        value = brute_force_ufl_continuous(P) if s <= 12 else solvers._ufl_exact(P)[0]
        yield med1.astype("<f8").tobytes() + _f8(value, brute_force_ufl_discrete(P))
        for k in range(1, s + 1 if s <= 12 else 1):
            yield _kmedian_chunk(kmedian(P, k))


def _kmedian_chunk(res):
    return (b"".join(_i8(b) for b in res.clusters)
            + res.centers.astype("<f8").tobytes() + _f8(res.cost))


def _golden_ptas(seed):
    yield from _ptas_chunks(blob_instance(4, 25),
                            PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed))


def _golden_ptas_small(seed):
    # n = 15: the discrete qualification grows balls (alpha = 3) as at any
    # n, so no cluster below the root qualifies and the one part's sweep
    # enumerates its candidates; the Euclidean parts take the exact sweep,
    # with ball growing's alpha set to 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MatrixApproxHandle, "alpha", 1.0)
        yield from _ptas_chunks(blob_instance(3, 5),
                                PtasConfig(eps=0.3, ddim=2.0, kappa_cap=2.0, seed=seed))


def _golden_ptas_discrete_split(seed):
    # discrete_split's shape: n = 150, where the sweeps run local search
    yield _discrete_chunk(blob_instance(6, 25),
                          PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed))


def _golden_ptas_euclid_split(seed):
    # euclid_split's shape: n = 400, where the heuristic local search runs
    yield _euclidean_chunk(*ptas_euclidean(blob_instance(8, 50),
                                           PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0,
                                                      seed=seed)))


def _golden_ptas_fallback(seed):
    # _C4 = 1e-6 mixes adopted medians and fallbacks; at _C4 = 1e-9 every
    # part falls back to its facilities' nearest-member clusters
    cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed)
    for c4 in (1e-6, 1e-9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ptas, "_C4", c4)
            yield _euclidean_chunk(*ptas_euclidean(blob_instance(4, 25, seed=1), cfg))


def _discrete_chunk(X, cfg):
    sol, traces = ptas_discrete(DistanceOracle.from_points(X), cfg)
    return (_i8(sol.facility_ids) + _i8(sol.assignment)
            + _f8(sol.opening_cost, sol.connection_cost, sol.total)
            + trace_to_jsonl(traces).encode())


def _ptas_chunks(X, cfg):
    yield _discrete_chunk(X, cfg)
    yield _euclidean_chunk(*ptas_euclidean(X, cfg))


def _euclidean_chunk(sol, traces):
    return (sol.facilities.astype("<f8").tobytes() + _i8(sol.assignment)
            + _f8(sol.opening_cost, sol.connection_cost, sol.total)
            + trace_to_jsonl(traces).encode())


GOLDEN_SOLVER_SOURCES = {
    "restricted_ufl_value": lambda s: _golden_restricted_value(np.random.default_rng(s)),
    "approx_ufl": lambda s: _golden_approx_ufl(np.random.default_rng(s)),
    "weiszfeld_1median": lambda s: _golden_weiszfeld(np.random.default_rng(s)),
    "exact_oracles": _golden_exact_oracles,
    "ptas": _golden_ptas,
    "ptas_small": _golden_ptas_small,
    "ptas_discrete_split": _golden_ptas_discrete_split,
    "ptas_euclid_split": _golden_ptas_euclid_split,
    "ptas_fallback": _golden_ptas_fallback,
}

# sha256 over seeds 0..3 of the outputs above: any change to a chosen
# facility, its position, a cost's last bit or a trace changes the digest.
GOLDEN_SOLVER_DIGESTS = {
    "approx_ufl": "bf36ee77b064c76e4c13926cededa2b35072702b9bf1d516ca2d6df80af7b91a",
    "exact_oracles": "1c865ff085b070f5b9f1a291396e99e065bffe449ef9fcbcceb7564b110bb7cd",
    "ptas": "233e0efdf6e4c699e3bda18ebd709f9c9e8bd9cc5ddb7060c853a8b761045554",
    "ptas_discrete_split": "c3edc187c7dc6a1477ad8ecc25db2af4116d5328af1e4030a41c1e72577121ce",
    "ptas_euclid_split": "6b63d295fa720df46379aca0c67838b48ba4cd3075d54a99e97894193496fc4e",
    "ptas_fallback": "e08f0f2015ef061d91126f18de749a4359835bae7efbe61b1f344b6b5d3cf67c",
    "ptas_small": "fef193657a3c16a250caf0dd60f6830bb00bde245c06f2da46ca6394c1fd37fb",
    "restricted_ufl_value": "3843dbd3d090b687da672b90d0c48a14d3f9dd606a218661d2ab50a34bcf0640",
    "weiszfeld_1median": "be8eb2e81fdc7a9b83b1d7d0a38f012f981ada7680a1d7e46c1242c28ff372a3",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SOLVER_SOURCES))
def test_golden_solver_outputs(name):
    h = hashlib.sha256()
    for seed in range(4):
        for chunk in GOLDEN_SOLVER_SOURCES[name](seed):
            h.update(chunk)
    assert h.hexdigest() == GOLDEN_SOLVER_DIGESTS[name]
