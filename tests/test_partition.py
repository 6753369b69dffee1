import numpy as np
import pytest

from uflkit.datasets import generate_dataset
from uflkit.experiments import blob_instance
from uflkit.geometry import PointSet
from uflkit.hierarchy import build_hierarchy
from uflkit.partition import (MatrixApproxHandle, Part, bottom_up_partition,
                              check_partition_invariants,
                              local_value_bounds_check,
                              partition_properties_check, partition_to_csv)
from uflkit.refine import eliminate_badly_cut
from uflkit.solvers import (approx_ufl, brute_force_ufl_continuous,
                            mp_ufl_value)
from uflkit.util import spawn_seeds

from conftest import random_points


def make_partition(X, seed=0, kappa=2.0, eps=0.3, ddim=2.0, alpha=6.0, **kw):
    H = build_hierarchy(X, seed)
    T = eliminate_badly_cut(H, approx_ufl(X), eps, ddim)
    handle = MatrixApproxHandle(H.metric.matrix, alpha)
    return bottom_up_partition(T, kappa, handle, **kw), H, T


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

    def test_two_far_groups_split(self, rng):
        # two 10-point groups at mutual distance 1e6; the threshold sits just
        # below each whole-group cost, so parts never mix groups and some
        # seed emits exactly the two groups
        a = rng.random((10, 2))
        b = rng.random((10, 2)) + 1e6
        X = PointSet(np.vstack([a, b]))
        D = X.distance_matrix()
        g_cost = min(mp_ufl_value(D, np.arange(10))[0],
                     mp_ufl_value(D, np.arange(10, 20))[0])
        exact_two = 0
        for seed in spawn_seeds(3, 8):
            part, _, _ = make_partition(X, seed=seed, kappa=1.0,
                                        alpha=g_cost * 0.98)
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

    def test_merge_last_two(self):
        for seed in spawn_seeds(5, 10):
            part, _, _ = make_partition(blob_instance(), seed=seed, kappa=4.0,
                                        merge_last_two=True)
            ok, *_ = check_partition_invariants(part)
            assert ok
            if len(part.parts) >= 2:
                assert sum(p.is_last for p in part.parts) <= 1

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
                children = H.clusters[p.provenance].children
                union_members, union_fids, child_cost = [], [], 0.0
                for ch in children:
                    mem = T.members(ch)
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


class TestLocalBounds:
    def test_last_part_excluded_from_lower_bound(self, rng):
        X = random_points(rng, 10, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        rep = local_value_bounds_check(part, brute_force_ufl_continuous, ddim=2.0)
        assert rep.ok                       # value way below kappa, but it is the last part

    def test_bounds_hold_on_small_instances(self):
        for seed in spawn_seeds(13, 10):
            X = generate_dataset("subspace", 11, 4, 2, seed)
            part, _, _ = make_partition(X, seed=seed, kappa=1.5)
            rep = local_value_bounds_check(part, brute_force_ufl_continuous, ddim=2.0)
            assert rep.ok, rep

    def test_adversarial_low_value_part_flagged(self, rng):
        X = random_points(rng, 10, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        part.parts[0] = Part(**{**part.parts[0].__dict__, "is_last": False})
        rep = local_value_bounds_check(part, brute_force_ufl_continuous,
                                       ddim=2.0, kappa=1e9)
        assert not rep.ok

    def test_oversized_parts_marked_unchecked(self, rng):
        X = random_points(rng, 40, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        rep = local_value_bounds_check(part, brute_force_ufl_continuous, ddim=2.0)
        assert any(not e.checked for e in rep.entries)


class TestProperties:
    def test_same_part_pairs_skipped(self, rng):
        X = random_points(rng, 12, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        f0 = approx_ufl(X)
        rep = partition_properties_check(part, f0, [(0, 1), (2, 3)])
        assert rep.pairs_checked == 0
        assert rep.ok

    def test_zero_violations_on_random_instances(self):
        rng = np.random.default_rng(8)
        for i, seed in enumerate(spawn_seeds(55, 15)):
            X = generate_dataset(("subspace", "clusters")[i % 2], 30, 6, 2, seed)
            H = build_hierarchy(X, seed)
            f0 = approx_ufl(X)
            T = eliminate_badly_cut(H, f0, 0.3, 2.0)
            part = bottom_up_partition(T, 2.0, MatrixApproxHandle(H.metric.matrix, 6.0))
            pairs = [tuple(rng.choice(30, 2, replace=False)) for _ in range(80)]
            rep = partition_properties_check(part, f0, pairs)
            assert rep.ok, rep

    def test_consistency_trivial_without_moves(self, rng):
        X = random_points(rng, 14, 2)
        H = build_hierarchy(X, 4)
        T = eliminate_badly_cut(H, np.arange(14), 0.3, 2.0)   # identity: no moves
        part = bottom_up_partition(T, 2.0, MatrixApproxHandle(H.metric.matrix, 6.0))
        rep = partition_properties_check(part, np.arange(14), [])
        assert rep.consistency_violations == []


class TestStatsAndExport:
    def test_single_part_stat(self, rng):
        X = random_points(rng, 9, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        count, total = part.size_stat()
        assert count == 1
        assert total == pytest.approx(approx_ufl(X).total)

    def test_sum_dominates_threshold(self):
        part, _, _ = make_partition(blob_instance(), kappa=4.0)
        count, total = part.size_stat()
        assert total >= part.alpha * part.kappa * (count - 1) * (1 - 1e-9)

    def test_csv_export(self, rng):
        X = random_points(rng, 8, 2)
        part, _, _ = make_partition(X, kappa=1e9)
        lines = partition_to_csv(part).strip().split("\n")
        assert lines[0] == "part_index,point_id,provenance_cluster,level,is_last"
        assert len(lines) == 9
        assert lines[1].endswith(",1")      # single last part
