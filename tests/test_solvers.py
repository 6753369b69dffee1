import math

import numpy as np
import pytest

from uflkit.geometry import OracleScaleError, PointSet
from uflkit.solvers import (SolverConfig, approx_ufl, brute_force_ufl_continuous,
                            brute_force_ufl_discrete, kmedian, kmedian_restricted,
                            restricted_ufl_value, weiszfeld_1median)

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
        assert res.center[0] == pytest.approx(1.0, abs=1e-6)
        assert res.cost == pytest.approx(5.0, rel=1e-9)

    def test_objective_monotone(self, rng):
        for _ in range(8):
            P = rng.random((9, 3))
            _, history = weiszfeld_1median(P, return_history=True)
            drops = np.diff(history)
            assert (drops <= 1e-12 * max(history)).all()

    def test_against_grid_oracle(self, rng):
        for _ in range(20):
            P = rng.random((7, 2))
            res = weiszfeld_1median(P)
            oracle = grid_1median_oracle(P)
            assert abs(res.cost - oracle) <= 1e-3 * oracle

    def test_nonconvergence_flag(self, rng):
        cfg = SolverConfig(weiszfeld_max_iter=1, weiszfeld_tol=1e-16)
        res = weiszfeld_1median(rng.random((20, 2)), cfg)
        assert res.cost > 0.0   # still a usable iterate
        assert res.converged in (False, True)


class TestKMedian:
    def test_k_equals_n(self, rng):
        P = rng.random((6, 2))
        res = kmedian(P, 6)
        assert res.cost == 0.0
        assert len(res.clusters) == 6
        assert res.certified

    def test_k_one_matches_weiszfeld(self, rng):
        P = rng.random((7, 2))
        assert kmedian(P, 1).cost == pytest.approx(weiszfeld_1median(P).cost)

    def test_k_too_large(self, rng):
        with pytest.raises(ValueError):
            kmedian(rng.random((4, 2)), 5)

    def test_enumeration_beats_local_search(self, rng):
        small = SolverConfig(enum_threshold=4)   # forces the heuristic path
        for _ in range(5):
            P = rng.random((8, 2))
            exact = kmedian(P, 2)
            heur = kmedian(P, 2, cfg=small)
            assert exact.certified and not heur.certified
            assert exact.cost <= heur.cost + 1e-9
            assert exact.cost >= 0.0

    def test_cost_non_increasing_in_k(self, rng):
        for _ in range(5):
            P = rng.random((8, 2))
            costs = [kmedian(P, k).cost for k in range(1, 9)]
            for a, b in zip(costs, costs[1:]):
                assert b <= a * (1 + 1e-9) + 1e-12

    def test_clusters_partition_input(self, rng):
        P = rng.random((9, 2))
        res = kmedian(P, 3)
        ids = np.sort(np.concatenate(res.clusters))
        assert np.array_equal(ids, np.arange(9))


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
        cfg = SolverConfig()
        for _ in range(20):
            X = random_points(rng, 10, 2)
            sol = approx_ufl(X)
            oracle = brute_force_ufl_continuous(X.coords)
            assert oracle * (1 - 1e-9) <= sol.total <= cfg.alpha_target * oracle

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

    def test_restricted_value_full_candidates_matches_discrete_oracle(self, rng):
        for n in (8, 15):
            X = random_points(rng, n, 2)
            D = X.distance_matrix()
            cost, factor, _ = restricted_ufl_value(D, np.arange(n), np.arange(n))
            assert factor == 1.0
            assert cost == pytest.approx(brute_force_ufl_discrete(X.coords))

    def test_ball_growing_mode_within_factor(self, rng):
        cases = [(10, 10, {"exact_cap": 0}, 15), (16, 16, {}, 15), (977, 12, {}, 2)]
        for n, m, cap, trials in cases:
            for _ in range(trials):
                X = random_points(rng, n, 2)
                D = X.distance_matrix()
                cost, factor, _ = restricted_ufl_value(D, np.arange(n), np.arange(m),
                                                       **cap)
                assert factor == 3.0
                exact = exhaustive_restricted_ufl(D, np.arange(m))
                assert exact * (1 - 1e-9) <= cost <= 3.0 * exact * (1 + 1e-9)

    def test_local_search_path(self, rng):
        for n, m in [(30, 30), (16, 16), (977, 12)]:
            X = random_points(rng, n, 2)
            D = X.distance_matrix()
            ids, v, certified = kmedian_restricted(D, np.arange(n), np.arange(m), 3)
            assert not certified
            assert len(ids) == 3
            assert v >= D[:, ids].min(axis=1).sum() * (1 - 1e-9)


class TestSolverConfig:
    def test_enum_threshold_cap(self):
        with pytest.raises(ValueError):
            SolverConfig(enum_threshold=15)

    def test_positive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(weiszfeld_tol=0.0)
