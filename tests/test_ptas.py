import json
import math
from dataclasses import fields

import numpy as np
import pytest

from uflkit import projection, ptas, solvers
from uflkit.datasets import generate_dataset
from uflkit.experiments import blob_instance, groups_instance
from uflkit.geometry import PointSet, distances
from uflkit.hierarchy import build_hierarchy, check_diameters, check_nesting
from uflkit.partition import (MatrixApproxHandle, check_partition_invariants,
                              partition_properties_check)
from uflkit.projection import target_dim
from uflkit.refine import check_guided_pairs_uncut, consistency_check
from uflkit.ptas import (DistanceOracle, PtasConfig, RestrictedApproxHandle,
                         _heuristic_projected_sweep, build_stages,
                         candidate_set, ptas_discrete, ptas_euclidean, trace_to_jsonl)
from uflkit.solvers import (_nearest_blocks, approx_ufl, brute_force_ufl_continuous,
                            brute_force_ufl_discrete)
from uflkit.util import COST_RTOL, spawn_seeds

from conftest import line, random_points


class TestConfig:
    def test_derived_values(self):
        cfg = PtasConfig(eps=0.2, ddim=2.0, kappa_cap=32.0)
        assert [f.name for f in fields(PtasConfig)] == ["eps", "ddim", "kappa_cap", "seed"]
        assert cfg.kappa == 32.0                       # (2/0.2)^2 = 100 clamps to the cap
        assert cfg.tau == pytest.approx(2.0 ** 20 * 6.0 * 32.0)
        assert cfg.m == target_dim(0.2, cfg.tau)
        assert cfg.tau >= cfg.kappa and cfg.m >= 1

    def test_kappa_floor(self, monkeypatch):
        monkeypatch.setattr(ptas, "_C2", 0.01)
        assert PtasConfig(eps=0.9, ddim=1.0).kappa == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PtasConfig(eps=0.0)
        with pytest.raises(ValueError):
            PtasConfig(ddim=0.5)
        with pytest.raises(ValueError):
            PtasConfig(kappa_cap=0.0)

    def test_constants_read_at_call_time(self, monkeypatch):
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1)
        X = blob_instance(4, 25, seed=1)
        monkeypatch.setattr(ptas, "_C1", 0.5)
        monkeypatch.setattr(ptas, "_C2", 0.5)
        monkeypatch.setattr(MatrixApproxHandle, "alpha", 3.0)
        monkeypatch.setattr(projection, "_C3", 1e-6)
        assert cfg.kappa == pytest.approx(0.5 * 2.0 / 0.3)
        assert cfg.tau == pytest.approx(2.0 ** 20 * 3.0 * cfg.kappa)
        assert cfg.m == 1
        P = build_stages(X, cfg).partition        # the scan threshold is alpha * kappa
        assert (P.alpha, P.kappa) == (3.0, cfg.kappa)
        monkeypatch.undo()
        _, traces = ptas_euclidean(X, cfg)
        assert [(t.event_H, t.adopted) for t in traces] == [(True, "median")] * 2
        monkeypatch.setattr(ptas, "_C4", 1e-9)
        _, traces = ptas_euclidean(X, cfg)
        assert [(t.event_G, t.event_H, t.adopted) for t in traces] == [
            (True, False, "fallback")] * 2


class TestEuclidean:
    def test_single_point(self):
        sol, traces = ptas_euclidean(line(3.0), PtasConfig(seed=1))
        assert sol.total == 1.0
        assert traces == []

    def test_tight_cluster_uses_last_part(self, rng):
        X = PointSet(rng.random((10, 2)) * 0.01)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=20.0, seed=4)
        sol, traces = ptas_euclidean(X, cfg)
        assert len(traces) == 1                        # kappa far above any local value
        oracle = brute_force_ufl_continuous(X.coords)
        assert sol.total <= approx_ufl(X).total * (1 + 1e-9)
        assert sol.total <= 6.0 * oracle

    def test_quality_on_small_instances(self):
        cfg_seed_pairs = spawn_seeds(42, 12)
        within = 0
        for s in cfg_seed_pairs:
            ds, run = spawn_seeds(s, 2)
            X = generate_dataset("subspace", 12, 64, 2, ds)
            sol, _ = ptas_euclidean(X, PtasConfig(eps=0.2, ddim=2.0, seed=run))
            ratio = sol.total / brute_force_ufl_continuous(X.coords)
            assert ratio <= 6.0 + 1e-9
            if ratio <= 1.5:
                within += 1
        assert within >= 11

    def test_solution_is_feasible_and_costed_correctly(self, rng):
        X = random_points(rng, 14, 3)
        sol, _ = ptas_euclidean(X, PtasConfig(eps=0.3, ddim=2.0, seed=9))
        assert sol.assignment.shape == (14,)
        recomputed = sum(np.linalg.norm(X.coords[i] - sol.facilities[sol.assignment[i]])
                         for i in range(14))
        assert sol.connection_cost == pytest.approx(recomputed, rel=1e-9)
        assert len(np.unique(sol.facilities, axis=0)) == sol.num_facilities

    def test_deterministic(self, rng):
        X = random_points(rng, 12, 4)
        cfg = PtasConfig(eps=0.25, ddim=2.0, seed=123)
        s1, t1 = ptas_euclidean(X, cfg)
        s2, t2 = ptas_euclidean(X, cfg)
        assert s1.total == s2.total
        assert trace_to_jsonl(t1) == trace_to_jsonl(t2)

    def test_fallback_fires_with_crushed_target_dimension(self, rng, monkeypatch):
        # two tight groups force a two-facility constant-factor solution;
        # _C3 tiny forces m = 1, so the facility pair contracts on roughly
        # half the seeds and the constant-factor clustering takes over
        X = PointSet(np.vstack([rng.random((6, 2)) * 0.2,
                                rng.random((6, 2)) * 0.2 + 5.0]))
        oracle = brute_force_ufl_continuous(X.coords)
        monkeypatch.setattr(projection, "_C3", 1e-6)
        assert PtasConfig(eps=0.2, ddim=2.0, seed=0).m == 1
        fallbacks = 0
        for seed in range(12):
            sol, traces = ptas_euclidean(X, PtasConfig(eps=0.2, ddim=2.0, seed=seed))
            fallbacks += sum(t.adopted == "fallback" for t in traces)
            assert sol.total <= 6.0 * oracle * (1 + 1e-9)
            assert all(t.event_H is None for t in traces if t.event_G is False)
        assert fallbacks >= 1

    def test_fallback_designated_within_approx_dumbbell(self, rng, monkeypatch):
        X = PointSet(np.vstack([rng.random((6, 2)) * 0.2,
                                rng.random((6, 2)) * 0.2 + 5.0]))
        monkeypatch.setattr(projection, "_C3", 1e-6)
        for seed in range(12):
            _, traces = ptas_euclidean(X, PtasConfig(eps=0.2, ddim=2.0, seed=seed))
            for t in traces:
                if t.adopted == "fallback":
                    assert t.designated_cost <= t.approx_cost * (1 + 1e-9)

    def test_trace_arithmetic_bounds_total(self, rng):
        # designated original-space costs from the trace dominate the final
        # nearest-assignment connection cost
        X = random_points(rng, 13, 3)
        sol, traces = ptas_euclidean(X, PtasConfig(eps=0.3, ddim=2.0, seed=17))
        designated = sum(t.designated_cost for t in traces)
        assert sol.connection_cost <= designated * (1 + 1e-9) + 1e-12
        assert sol.total <= designated + sol.num_facilities + 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            ptas_euclidean(PointSet(np.zeros((1, 0))), PtasConfig())

    def test_event_h_rejects_a_sweep_above_c4_tau(self, monkeypatch):
        # _C4 * tau = 25.2: part 0's k* + v = 24 + 20.8 exceeds it and falls
        # back, part 1's 11 + 6.2 does not
        monkeypatch.setattr(ptas, "_C4", 1e-6)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1)
        sol, traces = ptas_euclidean(blob_instance(4, 25, seed=1), cfg)
        assert [(t.event_H, t.adopted) for t in traces] == [
            (False, "fallback"), (True, "median")]
        assert traces[0].k_star + traces[0].v > ptas._C4 * cfg.tau
        assert sol.total == pytest.approx(70.52464723792123, rel=1e-12)

    def test_c4_tau_below_one_falls_back_instead_of_crashing(self, monkeypatch):
        # _C4 * tau = 0.025 once emptied the k window of the heuristic sweep
        monkeypatch.setattr(ptas, "_C4", 1e-9)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1)
        sol, traces = ptas_euclidean(blob_instance(4, 25, seed=1), cfg)
        assert [t.adopted for t in traces] == ["fallback", "fallback"]
        assert sol.total == pytest.approx(74.7426, abs=1e-4)

    @pytest.mark.parametrize("n_groups", [1, 3, 6],
                             ids=["one_group", "three_groups", "six_groups"])
    def test_heuristic_sweep_recenters_the_searchs_blocks(self, rng, n_groups):
        # two parts beyond the enumeration scale, their ids interleaved in
        # one point set: 30 points in n_groups separated groups, and two
        # groups of 10. Each part groups its points by _nearest_blocks
        # around ufl_local_search's open points over its distance matrix,
        # takes k as the number of blocks and the search's connection cost
        # as v, and recenters nothing: the pipeline's one weiszfeld_1median
        # call recenters the adopted blocks in the original space
        groups = [rng.random((30 // n_groups, 2)) + 4.5 * i for i in range(n_groups)]
        groups += [rng.random((10, 2)) + off for off in (40.0, 45.0)]
        order = rng.permutation(50)
        proj = np.empty((50, 2))
        proj[order] = np.vstack(groups)

        for members in (order[:30], order[30:]):
            D, every = distances(proj[members]), np.arange(len(members))
            k, v, ids = solvers.ufl_local_search(D, every, every)
            blocks = _nearest_blocks(D[:, ids])
            assert len(blocks) == k
            with pytest.MonkeyPatch.context() as mp:
                for owner in (ptas, solvers):
                    mp.setattr(owner, "weiszfeld_1median", None)    # a call raises
                found = _heuristic_projected_sweep(proj[members])
            assert (found[0], found[1]) == (k, v)
            assert [b.tobytes() for b in found[2]] == [b.tobytes() for b in blocks]
            # v prices a projected solution, so it is at least the blocks'
            # recentered sum and event H passes no part that the recentered
            # sum would fail; equal up to rounding when every block's median
            # is its open point
            medians = sum(solvers.weiszfeld_1median(proj[members[b]]).cost for b in blocks)
            assert v >= medians * (1 - COST_RTOL)

    def test_split_solve_makes_one_weiszfeld_call(self, monkeypatch):
        # euclid_split's shape: one call recenters every adopted block of
        # every part, in part order, as ids into the point set
        calls, adopted = [], []
        for owner in (ptas, solvers):
            weiszfeld = owner.weiszfeld_1median

            def counted(points, *args, weiszfeld=weiszfeld, **kwargs):
                calls.append([b.tobytes() for b in kwargs["blocks"]])
                return weiszfeld(points, *args, **kwargs)

            monkeypatch.setattr(owner, "weiszfeld_1median", counted)
        for name in ("_heuristic_projected_sweep", "_exact_projected_sweep"):
            sweep = getattr(ptas, name)

            def recorded(proj_members, sweep=sweep):
                k, v, blocks = sweep(proj_members)
                adopted.append(blocks)
                return k, v, blocks

            monkeypatch.setattr(ptas, name, recorded)
        X = blob_instance(8, 50)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1)
        _, traces = ptas_euclidean(X, cfg)
        parts = build_stages(X, cfg).partition.parts
        assert len(traces) == len(parts) > 2 and len(adopted) == len(parts)
        assert all(t.adopted == "median" for t in traces)
        assert calls == [[p.members[b].tobytes() for p, blocks in zip(parts, adopted)
                          for b in blocks]]


class TestProjectedWidth:
    @pytest.mark.parametrize("X, cfg, width", [
        (blob_instance(4, 25), PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=3), 2),
        (generate_dataset("subspace", 12, 64, 2, 5), PtasConfig(seed=5), 64),
    ], ids=["euclid_split", "subspace_d64"])
    def test_sweeps_get_min_m_d_columns(self, X, cfg, width, monkeypatch):
        # the sweeps read projected points in pi's range, never in R^m
        assert cfg.m > X.d
        widths = []
        for name in ("_heuristic_projected_sweep", "_exact_projected_sweep"):
            sweep = getattr(ptas, name)

            def recording(proj_members, sweep=sweep):
                widths.append(proj_members.shape[1])
                return sweep(proj_members)

            monkeypatch.setattr(ptas, name, recording)
        ptas_euclidean(X, cfg)
        assert widths and set(widths) == {width}


class TestKnownOptimum:
    """Separated groups whose optimum is the sum of the groups' exact
    optima: the Euclidean pipeline stays within 2% of it."""

    @pytest.mark.parametrize("cfg", [PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1),
                                     PtasConfig(seed=1)], ids=["split", "default"])
    @pytest.mark.parametrize("d", [2, 64])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_groups_within_two_percent(self, cfg, d, seed):
        X, opt = groups_instance(25, d, seed)
        sol, _ = ptas_euclidean(X, cfg)
        assert opt * (1 - 1e-9) <= sol.total <= 1.02 * opt

    @pytest.mark.parametrize("cfg", [PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1),
                                     PtasConfig(seed=1)], ids=["split", "default"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_discrete_groups_within_two_percent(self, cfg, seed):
        # with facilities on the input no facility serves two groups either,
        # so opt is the sum of the groups' discrete optima; the groups are
        # the points nearest each node of the spacing-50 grid
        X, _ = groups_instance(25, 2, seed)
        _, group = np.unique(np.round(X.coords / 50.0), axis=0, return_inverse=True)
        members = [np.flatnonzero(group.ravel() == g) for g in range(group.max() + 1)]
        assert len(members) == 25 and all(len(m) == 8 for m in members)
        opt = sum(brute_force_ufl_discrete(X.coords[m]) for m in members)
        sol, _ = ptas_discrete(DistanceOracle.from_points(X), cfg)
        assert opt * (1 - 1e-9) <= sol.total <= 1.02 * opt


class TestTrace:
    def test_jsonl_schema(self, rng):
        X = random_points(rng, 10, 2)
        _, traces = ptas_euclidean(X, PtasConfig(eps=0.3, ddim=2.0, seed=2))
        for entry in trace_to_jsonl(traces).strip().split("\n"):
            rec = json.loads(entry)
            assert set(rec) == {"part", "level", "event_G", "event_H", "k_star",
                                "v", "adopted", "approx_cost", "designated_cost"}
            assert rec["adopted"] in ("median", "fallback")


def reference_spot_check(D, triples=300, seed=0, tol=1e-9):
    """DistanceOracle.spot_check's triple tests one triple at a time: the
    kind of the first failing test, or None."""
    for i, j, k in np.random.default_rng(seed).integers(0, len(D), size=(triples, 3)):
        if abs(D[i, j] - D[j, i]) > tol * max(1.0, D[i, j]):
            return "symmetry"
        if D[i, k] > D[i, j] + D[j, k] + tol * max(1.0, D[i, k]):
            return "triangle"
    return None


class TestDiscrete:
    def test_single_point(self):
        sol, traces = ptas_discrete(DistanceOracle.from_points(line(5.0)),
                                    PtasConfig(seed=3))
        assert sol.total == 1.0

    def test_dominates_continuous_optimum(self, rng):
        X = random_points(rng, 10, 2)
        sol, _ = ptas_discrete(DistanceOracle.from_points(X),
                               PtasConfig(eps=0.3, ddim=2.0, seed=6))
        assert sol.total >= brute_force_ufl_continuous(X.coords) * (1 - 1e-9)

    def test_quality_on_small_instances(self):
        within = 0
        for s in spawn_seeds(7, 10):
            ds, run = spawn_seeds(s, 2)
            X = generate_dataset("subspace", 12, 16, 2, ds)
            sol, _ = ptas_discrete(DistanceOracle.from_points(X),
                                   PtasConfig(eps=0.2, ddim=2.0, seed=run))
            if sol.total <= 1.5 * brute_force_ufl_discrete(X.coords):
                within += 1
        assert within >= 9

    def test_solution_well_formed(self, rng):
        X = random_points(rng, 15, 2)
        sol, _ = ptas_discrete(DistanceOracle.from_points(X),
                               PtasConfig(eps=0.3, ddim=2.0, seed=8))
        D = X.distance_matrix()
        assert len(set(sol.facility_ids.tolist())) == len(sol.facility_ids)
        conn = D[:, sol.facility_ids].min(axis=1).sum()
        assert sol.connection_cost == pytest.approx(conn)
        assert sol.total == pytest.approx(len(sol.facility_ids) + conn)

    def test_small_input_still_splits(self):
        # n = 15 at the split config: every candidate set is enumerable, the
        # qualification still grows balls with alpha = 3, and the scan
        # emits two parts; the total stays at or above the discrete optimum
        X = generate_dataset("grid", 15, 4, 2, 2)
        oracle = DistanceOracle.from_points(X)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=2)
        P, _ = build_stages(oracle, cfg, lambda H: RestrictedApproxHandle(H, cfg.eps))
        assert len(P.parts) >= 2 and P.alpha == 3.0
        assert all(check_partition_invariants(P))
        sol, traces = ptas_discrete(oracle, cfg)
        assert len(traces) == len(P.parts)
        assert sol.total >= brute_force_ufl_discrete(X.coords) * (1 - 1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_distance_rejected(self, value):
        # one point at a non-finite distance from the others: the spot check
        # rejects the matrix before it samples, with no numpy warning on the
        # way (inf - inf in its symmetry test would warn)
        D = blob_instance(2, 5, seed=1).distance_matrix()
        D[-1, :-1] = D[:-1, -1] = value
        with pytest.raises(ValueError, match="non-finite"):
            ptas_discrete(DistanceOracle(D), PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0))

    def test_metric_violation_rejected(self):
        D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="triangle"):
            ptas_discrete(DistanceOracle(D), PtasConfig(seed=0))

    def test_tau_below_one_still_sweeps(self, monkeypatch):
        # tau = 0.41 once capped k below 1 and emptied the sweep
        X = blob_instance(2, 10, seed=1)
        monkeypatch.setattr(MatrixApproxHandle, "alpha", 1e-4)
        cfg = PtasConfig(eps=0.3, ddim=1.0, kappa_cap=4.0, seed=1)
        assert cfg.tau < 1.0
        sol, traces = ptas_discrete(DistanceOracle.from_points(X), cfg)
        assert [(t.k_star, t.adopted) for t in traces] == [(10, "median")]
        conn = X.distance_matrix()[:, sol.facility_ids].min(axis=1).sum()
        assert sol.total == pytest.approx(len(sol.facility_ids) + conn)

    def test_untested_events_are_traced_as_none(self, monkeypatch):
        # the discrete pipeline tests neither event: here k* + v = 14.24
        # exceeds _C4 * tau = 1.64, so a True event_H would be false
        X = blob_instance(2, 10, seed=1)
        monkeypatch.setattr(MatrixApproxHandle, "alpha", 1e-4)
        cfg = PtasConfig(eps=0.3, ddim=1.0, kappa_cap=4.0, seed=1)
        _, traces = ptas_discrete(DistanceOracle.from_points(X), cfg)
        assert traces[0].k_star + traces[0].v > ptas._C4 * cfg.tau
        assert [(t.event_G, t.event_H) for t in traces] == [(None, None)]
        rec = json.loads(trace_to_jsonl(traces))
        assert rec["event_G"] is None and rec["event_H"] is None

    @pytest.mark.parametrize("self_distance", [1e-10, -1e-12])
    def test_nonzero_self_distance_rejected(self, self_distance):
        # within COST_RTOL, but a positive one would be the least positive
        # distance, gamma, and leave each point outside its own level-0 ball
        D = blob_instance(2, 25, seed=1).distance_matrix()
        np.fill_diagonal(D, self_distance)
        with pytest.raises(ValueError, match="nonzero self-distance"):
            ptas_discrete(DistanceOracle(D), PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0))

    def test_asymmetry_rejected(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetry"):
            DistanceOracle(D).spot_check()

    def test_spot_check_reports_the_first_failing_triple(self):
        # violations planted at triples of spot_check's own sample whose id
        # pairs no other sampled triple shares, so each one fails only its
        # own triple; within a triple, symmetry is tested first
        n = 200
        x = np.arange(n, dtype=np.float64)
        D = np.abs(np.subtract.outer(x, x))
        idx = np.random.default_rng(0).integers(0, n, size=(300, 3))
        pairs = [{frozenset(p) for p in ((i, j), (j, k), (i, k))} for i, j, k in idx]
        lone = [t for t in range(300) if len(set(idx[t])) == 3
                and not any(pairs[t] & pairs[u] for u in range(300) if u != t)]
        assert len(lone) >= 3
        a, b, last = lone[0], lone[1], lone[-1]

        def planted(*plants):
            M = D.copy()
            for kind, t in plants:
                i, j, k = idx[t]
                if kind == "symmetry":
                    M[i, j] += 0.5
                else:
                    M[i, k] = M[k, i] = M[i, j] + M[j, k] + 1.0
            return DistanceOracle(M)

        DistanceOracle(D).spot_check()
        cases = [([("symmetry", a), ("triangle", b)], "symmetry"),
                 ([("triangle", a), ("symmetry", b)], "triangle"),
                 ([("triangle", a), ("symmetry", a)], "symmetry"),
                 ([("symmetry", last)], "symmetry"),
                 ([("triangle", last)], "triangle")]
        for plants, kind in cases:
            oracle = planted(*plants)
            assert reference_spot_check(oracle.matrix) == kind
            with pytest.raises(ValueError, match=kind):
                oracle.spot_check()

    def test_spot_check_agrees_with_the_triple_loop(self, rng, monkeypatch):
        monkeypatch.setattr(ptas, "_SPOT_TRIPLES", 40)
        for noise in (0.0, 1e-12, 1e-6, 0.3, 3.0):
            for seed in range(20):
                D = random_points(rng, 8, 2).distance_matrix()
                D += np.triu(rng.random(D.shape) * noise, 1)
                if seed % 2:
                    D = np.triu(D) + np.triu(D, 1).T       # symmetric, triangles may fail
                monkeypatch.setattr(ptas, "_SPOT_SEED", seed)
                try:
                    DistanceOracle(D).spot_check()
                    got = None
                except ValueError as err:
                    got = "symmetry" if "symmetry" in str(err) else "triangle"
                assert got == reference_spot_check(D, triples=40, seed=seed)

    def test_parts_take_the_local_searchs_facilities(self):
        # discrete_split's shape: each part opens ufl_local_search's
        # facilities among its provenance cluster's candidates, k* counts
        # them and v, also the designated cost, is their connection cost
        oracle = DistanceOracle.from_points(blob_instance(6, 25))
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=1)
        P, handle = build_stages(oracle, cfg, lambda H: RestrictedApproxHandle(H, cfg.eps))
        sol, traces = ptas_discrete(oracle, cfg)
        assert len(traces) == len(P.parts) > 2
        opened = []
        for p, t in zip(P.parts, traces):
            k, v, ids = solvers.ufl_local_search(oracle.matrix, p.members,
                                                 handle.candidates(p.provenance))
            assert (t.k_star, t.v) == (k, v) and k == len(ids)
            assert t.designated_cost == v
            opened.extend(ids.tolist())
        assert sol.facility_ids.tolist() == list(dict.fromkeys(opened))

    def test_candidate_containment_along_tree(self, rng):
        # the candidate set of a child cluster is contained in its parent's
        X = random_points(rng, 20, 2)
        H = build_hierarchy(X, 5)
        eps = 0.4
        sets = [set(candidate_set(H, cid, eps).tolist()) for cid in range(len(H.clusters))]
        for child, parent in enumerate(H.clusters.parent[1:].tolist(), start=1):
            assert sets[child] <= sets[parent]


class TestRepeatedPoints:
    """Copies of a point have identical distance rows, so they share every
    cluster, ball and nearest facility; neither pipeline special-cases them."""

    @pytest.mark.parametrize("coords, opt", [([[0, 0], [0, 0], [3, 4], [5, 5]], 3.0),
                                             ([[0, 0], [0, 0]], 1.0)])
    def test_both_pipelines_reach_the_oracles(self, coords, opt):
        X = PointSet(np.array(coords, dtype=np.float64))
        assert brute_force_ufl_continuous(X.coords) == pytest.approx(opt, rel=1e-9)
        assert brute_force_ufl_discrete(X.coords) == pytest.approx(opt, rel=1e-9)
        sol, _ = ptas_euclidean(X, PtasConfig())
        dsol, _ = ptas_discrete(DistanceOracle.from_points(X), PtasConfig())
        assert sol.total == pytest.approx(opt, rel=1e-9)
        assert dsol.total == pytest.approx(opt, rel=1e-9)

    def test_checks_hold_on_blobs_with_repeats(self):
        base = blob_instance(4, 25, seed=1)
        rows = np.random.default_rng(5).choice(base.n, size=40, replace=False)
        X = PointSet(np.vstack([base.coords, base.coords[rows]]))
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=3)
        P = build_stages(X, cfg).partition
        T = P.refined
        assert not check_nesting(T.base) and not check_diameters(T.base)
        assert consistency_check(T).ok and not check_guided_pairs_uncut(T)
        pairs = np.random.default_rng(6).integers(0, X.n, size=(300, 2))
        rep = partition_properties_check(P, pairs)
        assert rep.ok and rep.pairs_checked > 0
        sol, _ = ptas_euclidean(X, cfg)
        dsol, _ = ptas_discrete(DistanceOracle.from_points(X), cfg)
        assert sol.assignment.shape == dsol.assignment.shape == (X.n,)


def _no_points():
    """A PointSet of no points, built around the constructor's own check
    (which refuses one) so that the pipeline's guard is what answers."""
    X = object.__new__(PointSet)
    object.__setattr__(X, "coords", np.zeros((0, 2)))
    return X


@pytest.mark.parametrize("solve, empty", [
    (ptas_euclidean, _no_points),
    (ptas_discrete, lambda: DistanceOracle(np.zeros((0, 0)))),
], ids=["euclidean", "discrete"])
def test_empty_input_rejected_by_both_pipelines(solve, empty):
    # the discrete pipeline used to reach spot_check, whose triple sampling
    # failed with numpy's "high <= 0"
    with pytest.raises(ValueError, match="^empty input$"):
        solve(empty(), PtasConfig())


class TestCandidateSet:
    @pytest.mark.parametrize("eps", [0.3, 0.99])
    def test_refined_members_are_candidates(self, eps):
        # the premise of RestrictedApproxHandle.cost_bound: a badly-cut move
        # brings x to within eps^2 * rang / ddim of f0(x), a base member of
        # its new cluster, well inside the (100 / eps) * rang candidate radius
        moves = 0
        for X, seed in [(blob_instance(6, 25), s) for s in range(4)] + [(blob_instance(4, 25), 6)]:
            cfg = PtasConfig(eps=eps, ddim=2.0, kappa_cap=4.0, seed=seed)
            T = build_stages(X, cfg).partition.refined
            H = T.base
            moves += len(T.moves)
            for cid, level in enumerate(H.clusters.level):
                members = np.flatnonzero(T.membership[level] == cid)
                assert np.isin(members, candidate_set(H, cid, eps)).all()
        assert moves > 0

    @pytest.mark.parametrize("n", [10, 15, 16])
    def test_exact_is_the_largest_candidate_sets_test(self, rng, n):
        # inputs whose candidate sets are all enumerable (n <= 15) qualify
        # by ball growing with alpha = 3, as larger ones do
        H = build_hierarchy(random_points(rng, n, 2), 1)
        handle = RestrictedApproxHandle(H, 0.5)
        assert handle.alpha == RestrictedApproxHandle.alpha == 3.0
        assert len(handle.candidates(0)) == n                      # the root's set is every id

    def test_root_covers_everything(self, rng):
        X = random_points(rng, 12, 2)
        H = build_hierarchy(X, 1)
        assert len(candidate_set(H, 0, 0.5)) == 12               # the root

    def test_isolated_cluster_stays_local(self):
        X = line(0.0, 1.0, 1e9)
        H = build_hierarchy(X, 2)
        cid = int(H.membership[0, 2])               # singleton {far point} at level 0
        ids = candidate_set(H, cid, 0.99)
        assert list(ids) == [2]                     # 100/eps * gamma << 1e9

    def test_matches_direct_scan(self, rng):
        X = random_points(rng, 18, 2)
        H = build_hierarchy(X, 3)
        eps = 0.35
        D = X.distance_matrix()
        for cid, level in enumerate(H.clusters.level.tolist()):
            radius = (100.0 / eps) * H.rang(level)
            direct = {j for j in range(18)
                      if min(D[j, m] for m in H.members(cid)) <= radius}
            assert set(candidate_set(H, cid, eps).tolist()) == direct
