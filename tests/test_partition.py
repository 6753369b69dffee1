import hashlib
import math

import numpy as np
import pytest

from uflkit import ptas
from uflkit.datasets import generate_dataset
from uflkit.experiments import blob_instance
from uflkit.geometry import PointSet
from uflkit.hierarchy import MetricData, build_hierarchy
from uflkit.partition import (MatrixApproxHandle, Part, bottom_up_partition,
                              check_partition_invariants,
                              local_value_bounds_check,
                              partition_properties_check, partition_to_csv, tau_bound)
from uflkit.ptas import (DistanceOracle, PtasConfig, RestrictedApproxHandle, build_stages,
                         guiding_assignment, ptas_discrete)
from uflkit.refine import eliminate_badly_cut
from uflkit.solvers import (approx_ufl, brute_force_ufl_continuous,
                            brute_force_ufl_discrete, mp_ufl_value)
from uflkit.util import spawn_seeds

from conftest import random_points


def make_partition(X, seed=0, kappa=2.0, eps=0.3, ddim=2.0, **kw):
    H = build_hierarchy(X, seed)
    T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), eps, ddim)
    handle = MatrixApproxHandle(H.metric.matrix)
    return bottom_up_partition(T, kappa, handle, **kw), H, T


def cluster_ids(H, level):
    """Ids of the level's clusters, ascending."""
    return np.flatnonzero(H.clusters.level == level).tolist()


def refined_members(T, cid):
    """Members of cluster cid at its own level after the badly-cut moves."""
    return np.flatnonzero(T.membership[T.base.clusters.level[cid]] == cid)


class TestBottomUp:
    def test_huge_kappa_gives_single_last_part(self, rng):
        X = random_points(rng, 15, 2)
        part, H, _ = make_partition(X, kappa=1e9)
        assert len(part.parts) == 1
        p = part.parts[0]
        assert p.is_last
        assert p.level == H.ell + 1
        assert part.holes == {0: []}
        assert np.array_equal(np.sort(p.members), np.arange(15))

    def test_two_far_groups_split(self, rng, monkeypatch):
        # two 10-point groups at mutual distance 1e6; the threshold sits just
        # below each whole-group cost, so parts never mix groups and some
        # seed emits exactly the two groups
        a = rng.random((10, 2))
        b = rng.random((10, 2)) + 1e6
        X = PointSet(np.vstack([a, b]))
        D = X.distance_matrix()
        g_cost = min(mp_ufl_value(D, np.arange(10))[0],
                     mp_ufl_value(D, np.arange(10, 20))[0])
        monkeypatch.setattr(MatrixApproxHandle, "alpha", g_cost * 0.98)
        exact_two = 0
        for seed in spawn_seeds(3, 8):
            part, _, _ = make_partition(X, seed=seed, kappa=1.0)
            groups = [set(p.members.tolist()) for p in part.parts]
            for g in groups:
                assert g <= set(range(10)) or g <= set(range(10, 20))
            if {frozenset(g) for g in groups} == {frozenset(range(10)),
                                                  frozenset(range(10, 20))}:
                exact_two += 1
        assert exact_two >= 1

    def test_no_level_zero_part_when_kappa_at_least_two(self, rng):
        X = random_points(rng, 30, 2)
        part, _, _ = make_partition(X, kappa=2.0)
        assert all(p.level > 0 for p in part.parts)

    def test_kappa_below_one_rejected(self, rng):
        X = random_points(rng, 6, 2)
        with pytest.raises(ValueError):
            make_partition(X, kappa=0.5)

    def test_invariants_on_random_instances(self):
        for i, seed in enumerate(spawn_seeds(99, 20)):
            X = generate_dataset(("subspace", "clusters", "grid")[i % 3],
                                 20 + 5 * (i % 5), 6, 2, seed)
            part, _, _ = make_partition(X, seed=seed, kappa=2.0)
            assert all(check_partition_invariants(part))

    def test_deletion_monotone(self):
        X = blob_instance()
        part, _, _ = make_partition(X, kappa=4.0)
        seen = set()
        for p in part.parts:
            ids = set(p.members.tolist())
            assert ids.isdisjoint(seen)
            seen |= ids

    def test_blob_instance_produces_holes_or_splits(self):
        split = 0
        for seed in spawn_seeds(31, 10):
            part, _, _ = make_partition(blob_instance(), seed=seed, kappa=4.0)
            split = max(split, len(part.parts))
        assert split >= 2

    def test_children_union_is_feasible_and_subadditive(self):
        # replay the construction: when a part is emitted at level i, the
        # union of the certifying solutions of its surviving child clusters
        # is feasible for the union of children and costs no less paid jointly
        X = blob_instance()
        part, H, T = make_partition(X, kappa=4.0)
        D = H.metric.matrix
        alive = np.ones(H.n, dtype=bool)
        for p in part.parts:
            if not p.is_last and p.level > 0:
                children = np.flatnonzero(H.clusters.parent == p.provenance)
                union_members, union_fids, child_cost = [], [], 0.0
                for ch in children:
                    mem = refined_members(T, ch)
                    mem = mem[alive[mem]]
                    if len(mem) == 0:
                        continue
                    cost, fids = mp_ufl_value(D, mem)
                    union_members.append(mem)
                    union_fids.append(fids)
                    child_cost += cost
                if union_members:
                    members = np.concatenate(union_members)
                    fids = np.concatenate(union_fids)
                    conn = D[np.ix_(members, fids)].min(axis=1).sum()
                    union_cost = len(fids) + conn
                    assert union_cost <= child_cost * (1 + 1e-9)
            alive[p.members] = False


class TestHoles:
    def test_bounds_and_disjointness(self):
        for seed in spawn_seeds(77, 10):
            part, _, _ = make_partition(blob_instance(), seed=seed, kappa=4.0)
            _, total_ok, disjoint_ok, _ = check_partition_invariants(part)
            assert total_ok and disjoint_ok

    def test_last_part_collects_orphans(self, rng):
        X = random_points(rng, 25, 2)
        part, _, _ = make_partition(X, kappa=3.0)
        if len(part.parts) >= 2 and part.parts[-1].is_last:
            # every non-last part descends from the root, so it is a hole of
            # the last part unless a closer provenance ancestor exists
            total = sum(len(v) for v in part.holes.values())
            assert total == len(part.parts) - 1


def continuous_oracle(X):
    """The exhaustive continuous oracle on a part's member ids."""
    return lambda ids: brute_force_ufl_continuous(X.coords[ids])


class TestLocalBounds:
    def test_last_part_excluded_from_lower_bound(self, rng):
        X = random_points(rng, 10, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        rep = local_value_bounds_check(part, continuous_oracle(X))
        assert rep.ok                       # value way below kappa, but it is the last part

    def test_bounds_hold_on_small_instances(self):
        for seed in spawn_seeds(13, 10):
            X = generate_dataset("subspace", 11, 4, 2, seed)
            part, _, _ = make_partition(X, seed=seed, kappa=1.5)
            rep = local_value_bounds_check(part, continuous_oracle(X))
            assert rep.ok, rep

    def test_adversarial_low_value_part_flagged(self, rng):
        X = random_points(rng, 10, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        part.parts[0] = Part(**{**part.parts[0].__dict__, "is_last": False})
        rep = local_value_bounds_check(part, continuous_oracle(X))
        assert not rep.ok

    def test_oversized_parts_marked_unchecked(self, rng):
        X = random_points(rng, 40, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        rep = local_value_bounds_check(part, continuous_oracle(X))
        assert rep.unchecked == 1 and rep.ok
        (e,) = rep.entries
        assert (e.checked, e.value, e.lower_ok, e.upper_ok) == (False, None, None, None)

    def test_tau_uses_the_partitions_alpha(self, rng):
        # a discrete partition is scanned with RestrictedApproxHandle's
        # alpha, not ball growing's; the report records the one it used
        X = random_points(rng, 12, 2)
        part = split_stages(X, 1, restricted=True).partition
        rep = local_value_bounds_check(part, continuous_oracle(X))
        assert rep.alpha == part.alpha != MatrixApproxHandle.alpha
        assert rep.tau == tau_bound(2.0, part.alpha, part.kappa)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0)
        assert cfg.tau == tau_bound(2.0, MatrixApproxHandle.alpha, cfg.kappa)

    def test_abstract_metric_partition_checked(self, rng):
        # a DistanceOracle has no coordinates; reading them crashed the check
        D = random_points(rng, 10, 2).distance_matrix()
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=2.0, seed=1)
        part = build_stages(DistanceOracle(D), cfg).partition
        rep = local_value_bounds_check(
            part, lambda ids: brute_force_ufl_discrete(D[np.ix_(ids, ids)], is_matrix=True))
        assert rep.unchecked == 0 and len(rep.entries) == len(part.parts)
        assert rep.ok, rep


class TestProperties:
    def test_same_part_pairs_skipped(self, rng):
        X = random_points(rng, 12, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        rep = partition_properties_check(part, [(0, 1), (2, 3)])
        assert rep.pairs_checked == 0
        assert rep.ok

    def test_zero_violations_on_random_instances(self):
        rng = np.random.default_rng(8)
        for i, seed in enumerate(spawn_seeds(55, 15)):
            X = generate_dataset(("subspace", "clusters")[i % 2], 30, 6, 2, seed)
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), 0.3, 2.0)
            part = bottom_up_partition(T, 2.0, MatrixApproxHandle(H.metric.matrix))
            pairs = [tuple(rng.choice(30, 2, replace=False)) for _ in range(80)]
            rep = partition_properties_check(part, pairs)
            assert rep.ok, rep

    def test_consistency_trivial_without_moves(self, rng):
        X = random_points(rng, 14, 2)
        H = build_hierarchy(X, 4)
        T = eliminate_badly_cut(H, np.arange(14), 0.3, 2.0)   # identity: no moves
        part = bottom_up_partition(T, 2.0, MatrixApproxHandle(H.metric.matrix))
        rep = partition_properties_check(part, [])
        assert rep.consistency_violations == []


class TestStatsAndExport:
    def test_single_part_stat(self, rng):
        X = random_points(rng, 9, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        assert len(part.parts) == 1
        assert part.parts[0].approx_value == pytest.approx(approx_ufl(X).total)

    def test_sum_dominates_threshold(self):
        part, _, _ = make_partition(blob_instance(), kappa=4.0)
        total = sum(p.approx_value for p in part.parts)
        assert total >= part.alpha * part.kappa * (len(part.parts) - 1) * (1 - 1e-9)

    def test_csv_export(self, rng):
        X = random_points(rng, 8, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        lines = partition_to_csv(part).strip().split("\n")
        assert lines[0] == "part_index,point_id,provenance_cluster,level,is_last"
        assert len(lines) == 9
        assert lines[1].endswith(",1")      # single last part


# ---------------------------------------------------------------------------
# The scan's evaluations, and golden partitions
# ---------------------------------------------------------------------------

class RecordingHandle:
    """Delegates to a handle, records every evaluation, and has a cost
    bound that rules nothing out."""

    def __init__(self, inner):
        self.inner, self.alpha, self.calls = inner, inner.alpha, []

    @staticmethod
    def cost_bound(size):
        return math.inf

    def evaluate(self, members, cluster_id):
        self.calls.append((cluster_id, members.tobytes()))
        return self.inner.evaluate(members, cluster_id)


def rescan_calls(T, kappa, handle):
    """The (cluster, members) evaluations of a scan that rescans every
    cluster after each emitted part and caches results by member set."""
    H = T.base
    threshold = handle.alpha * kappa * (1.0 - 1e-12)
    scan = [cid for level in range(H.ell + 1) for cid in cluster_ids(H, level)]
    base = {cid: refined_members(T, cid) for cid in scan}
    alive = np.ones(H.n, dtype=bool)
    cache = {}

    def cost(cid, members):
        key = (cid, members.tobytes())
        if key not in cache:
            cache[key] = handle.evaluate(members, cid)[0]
        return cache[key]

    while alive.any():
        for cid in scan:
            members = base[cid][alive[base[cid]]]
            if len(members) and cost(cid, members) >= threshold:
                alive[members] = False
                break
        else:
            cost(0, np.flatnonzero(alive))                   # the root
            alive[:] = False
    return list(cache)


def split_stages(X, seed, kappa_cap=4.0, restricted=False):
    """build_stages at the split benchmark's config, with the discrete
    pipeline's candidate-set handle when restricted."""
    md = MetricData.from_points(X)
    cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=kappa_cap, seed=seed)

    def handle(H):
        return RestrictedApproxHandle(H, cfg.eps)
    return build_stages(md, cfg, handle if restricted else None)


# seed 6 of blob_instance(4, 25): a badly-cut move empties cluster 17
EMPTIED = (blob_instance(4, 25), 6)


def emptied_clusters(T):
    H = T.base
    return [cid for level in range(H.ell + 1) for cid in cluster_ids(H, level)
            if not (T.membership[level] == cid).any()]


class TestScan:
    @pytest.mark.parametrize("restricted", [False, True], ids=["matrix", "restricted"])
    def test_handle_without_bound_gets_every_rescan_evaluation(self, restricted):
        stages = split_stages(*EMPTIED, restricted=restricted)
        T = stages.partition.refined
        assert emptied_clusters(T)
        for kappa in (2.0, 4.0):
            handle = RecordingHandle(stages.approx)
            bottom_up_partition(T, kappa, handle)
            assert handle.calls == rescan_calls(T, kappa, stages.approx)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scan_counts_on_the_split_benchmark_instance(self, monkeypatch, seed):
        calls = []
        evaluate = MatrixApproxHandle.evaluate

        def counting(self, members, cluster_id):
            calls.append((cluster_id, members.tobytes()))
            return evaluate(self, members, cluster_id)

        monkeypatch.setattr(MatrixApproxHandle, "evaluate", counting)
        P = split_stages(blob_instance(8, 50), seed).partition
        assert P.evaluations == len(calls) <= 50
        monkeypatch.undo()
        # the bound rules out exactly the rescan evaluations of clusters too
        # small to qualify; the root's last-part evaluation is never skipped
        threshold = P.alpha * P.kappa * (1 - 1e-12)
        rescans = rescan_calls(P.refined, P.kappa, MatrixApproxHandle(P.hierarchy.metric.matrix))
        small = [c for c in rescans if c[0] != 0                 # not the root
                 and (2 * (len(c[1]) // 8) - 1) * (1 + 1e-9) < threshold]
        assert calls == [c for c in rescans if c not in small]
        assert P.bound_skips == len(small) > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_restricted_scan_counts_on_the_discrete_split_instance(self, monkeypatch, seed):
        calls, cand_calls, partitions = [], [], []
        evaluate, cands, scan = (RestrictedApproxHandle.evaluate, ptas.candidate_set,
                                 ptas.bottom_up_partition)

        def counting(self, members, cluster_id):
            calls.append((cluster_id, members.tobytes()))
            return evaluate(self, members, cluster_id)

        def counting_cands(H, cluster_id, eps):
            cand_calls.append(cluster_id)
            return cands(H, cluster_id, eps)

        def kept(*args):
            partitions.append(scan(*args))
            return partitions[-1]

        monkeypatch.setattr(RestrictedApproxHandle, "evaluate", counting)
        monkeypatch.setattr(ptas, "candidate_set", counting_cands)
        monkeypatch.setattr(ptas, "bottom_up_partition", kept)
        cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed)
        ptas_discrete(DistanceOracle.from_points(blob_instance(6, 25)), cfg)
        monkeypatch.undo()
        [P] = partitions
        assert P.evaluations == len(calls) <= 100
        # one candidate set per cluster the scan evaluates or the sweep solves
        provenances = {p.provenance for p in P.parts}
        assert sorted(cand_calls) == sorted({c for c, _ in calls} | provenances)
        # the 3c bound rules out exactly the rescan evaluations of clusters
        # of at most 3 members; the root's last-part evaluation is never skipped
        threshold = P.alpha * P.kappa * (1 - 1e-12)
        rescans = rescan_calls(P.refined, P.kappa, RestrictedApproxHandle(P.hierarchy, cfg.eps))
        small = [c for c in rescans if c[0] != 0                 # not the root
                 and 3 * (len(c[1]) // 8) * (1 + 1e-9) < threshold]
        assert calls == [c for c in rescans if c not in small]
        assert P.bound_skips == len(small) > 0


def _i8(ids) -> bytes:
    return np.asarray(ids, dtype="<i8").tobytes() + b"|"


def _partition_chunks(P):
    for p in P.parts:
        yield (_i8(p.members) + _i8([p.provenance, p.level, p.is_last])
               + np.float64(p.approx_value).astype("<f8").tobytes() + _i8(p.facility_ids))
    for index in sorted(P.holes):
        yield _i8([index, *P.holes[index]])


def _golden_matrix(X, seed):
    T = split_stages(X, seed).partition.refined
    for kappa in (2.0, 4.0, 1e9):
        handle = MatrixApproxHandle(T.base.metric.matrix)
        yield from _partition_chunks(bottom_up_partition(T, kappa, handle))


def _golden_restricted(X, seed):
    for cap in (2.0, 4.0):
        yield from _partition_chunks(split_stages(X, seed, cap, restricted=True).partition)


GOLDEN_PARTITION_SOURCES = {
    "matrix_blob": (_golden_matrix, lambda s: blob_instance(4, 25)),
    "matrix_subspace": (_golden_matrix,
                        lambda s: PointSet(generate_dataset("subspace", 60, 8, 2, s).coords * 20)),
    "restricted_blob": (_golden_restricted, lambda s: blob_instance(4, 25)),
}

# sha256 over seeds 0, 1, 2, 3 and 6 (the emptied cluster) of every part's
# members, provenance, level, is_last, approx_value bytes and facility ids,
# then the holes
GOLDEN_PARTITION_DIGESTS = {
    "matrix_blob": "e82837e57e5f1fdcbf87b994361e7d3cb102d5f9fe01f292bfe687eebccfc9ff",
    "matrix_subspace": "bd7887d2e3255ec6c604c7a22d704f5200fdd703c75e05d4cac1adf2152bf336",
    "restricted_blob": "9ab44eb7970eb6e6e670fbca2d61090b74dbdb235c1e971eba1eaa86b87925d2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PARTITION_SOURCES))
def test_golden_partition(name):
    chunks, instance = GOLDEN_PARTITION_SOURCES[name]
    h = hashlib.sha256()
    for seed in (0, 1, 2, 3, EMPTIED[1]):
        for chunk in chunks(instance(seed), seed):
            h.update(chunk)
    assert h.hexdigest() == GOLDEN_PARTITION_DIGESTS[name]
