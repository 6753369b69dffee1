import math

import numpy as np
import pytest

from uflkit.datasets import generate_dataset
from uflkit.hierarchy import build_hierarchy, is_cut
from uflkit.ptas import guiding_assignment
from uflkit.refine import (check_guided_pairs_uncut, consistency_check,
                           eliminate_badly_cut)
from uflkit.util import spawn_seeds

from conftest import line, random_points


def manual_moves(H, ids, eps, ddim):
    """Direct transcription of the move rule, as an independent oracle."""
    out = []
    for level in range(H.ell + 2):
        for x in range(H.n):
            f = int(ids[x])
            cx, cf = H.membership[level, x], H.membership[level, f]
            if cx != cf:
                d = H.metric.matrix[x, f]
                if level >= math.log2(ddim * d / (eps * eps * H.gamma)):
                    out.append((level, x, int(cx), int(cf)))
    return out


class TestEliminate:
    def test_identity_guiding_solution_moves_nothing(self, rng):
        X = random_points(rng, 12, 2)
        H = build_hierarchy(X, 3)
        T = eliminate_badly_cut(H, np.arange(12), 0.3, 2.0)
        assert T.moves == []
        assert np.array_equal(T.membership, H.membership)

    @pytest.mark.parametrize("positions,facility", [((0.0, 1.0, 9.0), 1),
                                                    (tuple(range(16)), 0)])
    def test_matches_manual_trace(self, positions, facility):
        X = line(*positions)
        f0 = np.full(X.n, facility)                       # one facility serves all
        eps, ddim = 0.5, 1.0
        for seed in range(40):
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, f0, eps, ddim)
            expected = manual_moves(H, T.f0_ids, eps, ddim)
            assert [tuple(m) for m in T.moves] == expected
            for level, x, _, _ in expected:
                assert T.membership[level, x] == T.membership[level, facility]

    def test_some_instance_actually_moves(self):
        X = line(*range(16))
        f0 = np.zeros(X.n, dtype=int)
        moved = 0
        for seed in range(40):
            H = build_hierarchy(X, seed)
            moved += len(eliminate_badly_cut(H, f0, 0.5, 1.0).moves)
        assert moved > 0

    def test_every_level_still_partitions(self, rng):
        for seed in range(25):
            X = random_points(rng, 20, 2)
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), 0.3, 2.0)
            for level in range(H.ell + 2):
                counts = np.bincount(T.membership[level], minlength=len(H.clusters))
                assert counts.sum() == 20
                live = set(T.membership[level])
                assert all(H.clusters.level[c] == level for c in live)

    def test_facilities_never_move(self, rng):
        X = random_points(rng, 18, 2)
        H = build_hierarchy(X, 11)
        f0 = guiding_assignment(H.metric.matrix)
        T = eliminate_badly_cut(H, f0, 0.3, 2.0)
        moved = {m.point for m in T.moves}
        assert moved.isdisjoint(set(int(i) for i in f0))

    def test_guided_pairs_uncut_at_qualifying_levels(self, rng):
        for seed in range(10):
            X = random_points(rng, 16, 2)
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), 0.25, 2.0)
            assert check_guided_pairs_uncut(T) == []

    def test_guided_pairs_flags_the_unrefined_base_point_major(self):
        X = line(*range(16))
        f0 = np.zeros(X.n, dtype=int)
        flagged = 0
        for seed in range(40):
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, f0, 0.5, 1.0)
            T.membership = H.membership.copy()            # undo every move
            expected = sorted((x, level) for level, x, _, _ in manual_moves(H, T.f0_ids, 0.5, 1.0))
            assert check_guided_pairs_uncut(T) == [(level, x) for x, level in expected]
            flagged += len(expected)
        assert flagged > 0

    def test_parameter_validation(self, rng):
        X = random_points(rng, 6, 2)
        H = build_hierarchy(X, 0)
        with pytest.raises(ValueError):
            eliminate_badly_cut(H, np.arange(6), 0.0, 2.0)
        with pytest.raises(ValueError):
            eliminate_badly_cut(H, np.arange(6), 0.3, 0.0)


class TestConsistency:
    def test_no_moves_no_violations(self, rng):
        X = random_points(rng, 10, 2)
        H = build_hierarchy(X, 1)
        T = eliminate_badly_cut(H, np.arange(10), 0.3, 2.0)
        assert consistency_check(T).ok

    def test_pipeline_outputs_consistent(self):
        for i, seed in enumerate(spawn_seeds(17, 30)):
            X = generate_dataset(("subspace", "clusters", "grid")[i % 3], 24, 6, 2, seed)
            H = build_hierarchy(X, seed)
            T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), 0.3, 2.0)
            assert consistency_check(T).ok

    def test_teleported_point_is_flagged(self, rng):
        X = random_points(rng, 12, 2)
        H = build_hierarchy(X, 5)
        T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix), 0.3, 2.0)
        # corrupt: drop point 0 into a far-away cluster at a low level
        others = [c for c in np.flatnonzero(H.clusters.level == 0) if 0 not in H.members(c)]
        far = max(others, key=lambda c: H.metric.matrix[0, H.members(c)].min())
        T.membership[0, 0] = far
        assert not consistency_check(T).ok

