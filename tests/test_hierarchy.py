import hashlib

import numpy as np
import pytest

from uflkit.datasets import KINDS, generate_dataset
from uflkit.experiments import blob_instance, line_instance
from uflkit.geometry import PointSet
from uflkit.hierarchy import (MetricData, build_hierarchy, check_diameters,
                              check_nesting, dump_decomposition, f0_point_ids,
                              is_badly_cut, is_cut, is_good_pair)
from uflkit.solvers import approx_ufl
from uflkit.util import spawn_seeds

from conftest import line, random_points


class TestBuild:
    def test_two_points(self):
        X = line(0.0, 1.0)
        for seed in range(5):
            H = build_hierarchy(X, seed)
            assert H.ell == 0
            assert len(H.levels[1]) == 1                    # the root holds everything
            assert len(H.levels[0]) == 2                    # singletons below gamma scale
            assert all(len(H.clusters[c].members) == 1 for c in H.levels[0])

    def test_every_level_partitions(self, rng):
        X = random_points(rng, 40, 3)
        H = build_hierarchy(X, 3)
        for level in range(H.ell + 2):
            total = sum(len(H.clusters[c].members) for c in H.levels[level])
            assert total == 40
            assert (H.membership[level] >= 0).all()

    def test_root_is_everything(self, rng):
        X = random_points(rng, 17, 2)
        H = build_hierarchy(X, 9)
        root = H.clusters[H.levels[H.ell + 1][0]]
        assert np.array_equal(np.sort(root.members), np.arange(17))

    def test_children_union_parent(self, rng):
        X = random_points(rng, 25, 2)
        H = build_hierarchy(X, 1)
        for c in H.clusters:
            if c.level > 0:
                kids = np.sort(np.concatenate([H.clusters[k].members for k in c.children]))
                assert np.array_equal(kids, np.sort(c.members))

    def test_diameter_bounds(self, rng):
        for seed in range(5):
            X = random_points(rng, 30, 2)
            assert check_diameters(build_hierarchy(X, seed)) == []

    def test_nets_are_nested_and_valid(self, rng):
        X = random_points(rng, 30, 2)
        H = build_hierarchy(X, 4)
        D = H.metric.matrix
        for i in range(1, H.ell + 1):
            prev, cur = H.nets[i - 1], H.nets[i]
            radius = 2.0 ** (i - 3) * H.gamma
            assert set(cur) <= set(prev)
            if len(cur) > 1:
                sub = D[np.ix_(cur, cur)]
                assert sub[~np.eye(len(cur), dtype=bool)].min() >= radius - 1e-12
            assert D[np.ix_(prev, cur)].min(axis=1).max() <= radius + 1e-12

    def test_rho_in_range_and_deterministic(self):
        X = line(0.0, 1.0, 3.0, 9.0)
        H1 = build_hierarchy(X, 77)
        H2 = build_hierarchy(X, 77)
        assert 0.5 < H1.rho < 1.0
        assert H1.rho == H2.rho
        assert dump_decomposition(H1) == dump_decomposition(H2)

    def test_distinct_seeds_usually_differ(self):
        X = line(*range(12))
        dumps = {dump_decomposition(build_hierarchy(X, s)) for s in range(8)}
        assert len(dumps) > 1

    def test_metric_data_input(self, rng):
        X = random_points(rng, 10, 2)
        H1 = build_hierarchy(X, 5)
        H2 = build_hierarchy(MetricData.from_points(X), 5)
        assert dump_decomposition(H1) == dump_decomposition(H2)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="zero minimum distance"):
            build_hierarchy(line(1.0, 1.0, 2.0), 0)


class TestIsCut:
    def test_same_point_never_cut(self, rng):
        X = random_points(rng, 8, 2)
        H = build_hierarchy(X, 0)
        assert not any(is_cut(H, 3, 3, i) for i in range(H.ell + 2))

    def test_root_never_cuts(self, rng):
        X = random_points(rng, 8, 2)
        H = build_hierarchy(X, 0)
        assert not any(is_cut(H, i, j, H.ell + 1) for i in range(8) for j in range(8))

    def test_two_points_cut_at_level_zero(self):
        H = build_hierarchy(line(0.0, 1.0), 1)
        assert is_cut(H, 0, 1, 0)

    def test_invalid_level(self):
        H = build_hierarchy(line(0.0, 1.0), 1)
        with pytest.raises(ValueError, match="level"):
            is_cut(H, 0, 1, H.ell + 2)

    def test_monotone_in_level(self, rng):
        # nesting: a pair cut at level i is cut at every level below
        for seed in range(4):
            X = random_points(rng, 15, 2)
            H = build_hierarchy(X, seed)
            for x in range(15):
                for y in range(x + 1, 15):
                    cuts = [is_cut(H, x, y, i) for i in range(H.ell + 2)]
                    for i in range(1, len(cuts)):
                        if cuts[i]:
                            assert cuts[i - 1]

    def test_nesting_check_clean_and_negative_control(self, rng):
        X = random_points(rng, 12, 2)
        H = build_hierarchy(X, 2)
        assert check_nesting(H) == []
        H.membership[0, 0] = H.membership[0, 11]     # corrupt: teleport a point
        assert check_nesting(H) != []


class TestIsBadlyCut:
    def test_same_point(self, rng):
        X = random_points(rng, 6, 2)
        H = build_hierarchy(X, 0)
        assert not is_badly_cut(H, 2, 2, 0.3, 2.0)

    def test_threshold_above_root_is_never_bad(self):
        # nearest pair with huge ddim: threshold exceeds the root level
        X = line(0.0, 1.0, 1000.0)
        H = build_hierarchy(X, 3)
        assert not is_badly_cut(H, 0, 1, 0.3, 2.0 ** 20)

    def test_far_pair_cut_low_is_not_bad(self):
        X = line(0.0, 1.0, 1000.0)
        H = build_hierarchy(X, 3)
        # (0, 2) at distance 1000: threshold level is far above any cut level
        assert not is_badly_cut(H, 0, 2, 0.9, 1.0) or H.ell >= 10

    def test_rate_bounded(self):
        X = generate_dataset("subspace", 16, 4, 2, 7)
        eps, ddim, trials = 0.3, 2.0, 300
        hits = sum(is_badly_cut(build_hierarchy(X, s), 0, 1, eps, ddim)
                   for s in spawn_seeds(5, trials))
        assert hits / trials <= 64 * eps * eps

    def test_parameter_validation(self):
        H = build_hierarchy(line(0.0, 1.0), 0)
        with pytest.raises(ValueError):
            is_badly_cut(H, 0, 1, 1.5, 2.0)
        with pytest.raises(ValueError):
            is_badly_cut(H, 0, 1, 0.3, 0.5)


class TestIsGoodPair:
    def test_degenerate_self_pair(self, rng):
        X = random_points(rng, 6, 2)
        H = build_hierarchy(X, 0)
        f0 = np.arange(6)                                  # every point its own facility
        assert is_good_pair(H, f0, 4, 4, 0.3, 2.0)

    def test_bad_guiding_pair_spoils(self):
        # search a seed where some (x, F0(x)) is badly cut; then any pair
        # containing x is not good, whatever the partner
        X = generate_dataset("subspace", 16, 4, 2, 21)
        f0 = approx_ufl(X)
        ids = f0_point_ids(f0, 16)
        eps, ddim = 0.2, 1.0
        for seed in range(400):
            H = build_hierarchy(X, seed)
            bad = [x for x in range(16) if is_badly_cut(H, x, int(ids[x]), eps, ddim)]
            if bad:
                x = bad[0]
                partner = (x + 1) % 16
                assert not is_good_pair(H, f0, x, partner, eps, ddim)
                break
        else:
            pytest.skip("no badly-cut guiding pair found in 400 seeds")

    def test_rate_lower_bound(self):
        X = generate_dataset("subspace", 16, 4, 2, 22)
        f0 = approx_ufl(X)
        eps, ddim, trials = 0.3, 2.0, 200
        good = sum(is_good_pair(build_hierarchy(X, s), f0, 0, 1, eps, ddim)
                   for s in spawn_seeds(8, trials))
        assert good / trials >= max(0.0, 1.0 - 192 * eps * eps)


class TestF0Ids:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            f0_point_ids(np.array([1, 2, 0]), 3)

    def test_accepts_solution(self, rng):
        X = random_points(rng, 10, 2)
        sol = approx_ufl(X)
        ids = f0_point_ids(sol, 10)
        assert ids.shape == (10,)
        assert set(ids) <= set(sol.facility_ids)


class TestDump:
    def test_format(self):
        H = build_hierarchy(line(0.0, 1.0), 0)
        text = dump_decomposition(H)
        lines = text.strip().split("\n")
        assert len(lines) == len(H.clusters)
        level, cid, parent, center, count = lines[0].split(":")[0].split()
        assert int(count) == len(H.clusters[int(cid)].members)


def _l1_metric() -> MetricData:
    """A coordinate-free metric: L1 distances of 30 seeded points in R^3."""
    P = np.random.default_rng(11).random((30, 3))
    return MetricData(np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2))


GOLDEN_SOURCES = {"line": lambda s: line_instance(),
                  "blob": lambda s: blob_instance(),
                  "l1_metric": lambda s: _l1_metric(),
                  **{f"{kind}_{n}": lambda s, kind=kind, n=n: generate_dataset(kind, n, 8, 2, s)
                     for kind in KINDS for n in (3, 40, 120)}}

# sha256 over seeds 0..3 of dump_decomposition, nets, membership, children
# and levels: any change to cluster ids, their order, centers or members
# changes the digest.
GOLDEN_DIGESTS = {
    "line": "e9cb0d2733dc942566a5baf4fb2e8368052039dd876e65c0ce07ea82a211115d",
    "blob": "24c895682ed66168c724ad076ebad8c37439825c7ddbfea53b12e449e7f9a854",
    "l1_metric": "5c3065b21663dc768f8a5608439ffdcd2f20a4cb0914c4280bade1ec16050f23",
    "subspace_3": "ad24231fd07c44a59fbfe3f6713970f8f9af8d6d27802d5015c4238bb6a9b5da",
    "subspace_40": "602c2e4bcfadce774bf2e9610d21d932292dd4ed773dcc05cb616ac4e1a085cd",
    "subspace_120": "7dfdad12a72e18802d9330a035e6ebeb41e2859d6253c7360b3320d567a2fee5",
    "clusters_3": "51ccda98d98a0b43229aa8c220ff4be79ef5c845f6505ca934b575b7e8c8c494",
    "clusters_40": "d296f174ccaed2a7794cd43a5725a5a138f9cdd6d139451effb19538224b1521",
    "clusters_120": "3c23f3ce9e15f69223e8b9697cbedf034d4b39ab7c88be1797b5f92a99b72bc3",
    "grid_3": "d7d1d774ab6e652b1426470f8209a2e0e1e54ba0f22d987cfa9ca8e0998a6346",
    "grid_40": "c363c8e398fdcb470bf716f6de17ac9db788572df2066cfa3ab8f67c3e7d44b9",
    "grid_120": "bb4eee16b264143e3dfff0b4e59bb848e57ffdc637dcb8379fe264e760be5803",
}


def _decomposition_digest(source) -> str:
    h = hashlib.sha256()
    for seed in range(4):
        H = build_hierarchy(source(seed), seed)
        h.update(dump_decomposition(H).encode())
        for ids in [*H.nets, *(c.children for c in H.clusters), *H.levels]:
            h.update(np.asarray(ids, dtype="<i8").tobytes() + b"|")
        h.update(H.membership.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_golden_decomposition(name):
    assert _decomposition_digest(GOLDEN_SOURCES[name]) == GOLDEN_DIGESTS[name]
