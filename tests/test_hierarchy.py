import hashlib

import numpy as np
import pytest

from uflkit.datasets import KINDS, generate_dataset
from uflkit.experiments import blob_instance, line_instance
from uflkit import hierarchy
from uflkit.geometry import check_net, greedy_net
from uflkit.hierarchy import (MetricData, build_hierarchy, check_diameters,
                              check_nesting, dump_decomposition, f0_point_ids,
                              is_badly_cut, is_cut, is_good_pair)
from uflkit.ptas import PtasConfig, build_stages, guiding_assignment
from uflkit.solvers import approx_ufl
from uflkit.util import spawn_seeds

from conftest import line, random_points


class TestBuild:
    def test_two_points(self):
        X = line(0.0, 1.0)
        for seed in range(5):
            H = build_hierarchy(X, seed)
            assert H.ell == 0
            assert H.clusters.level.tolist() == [1, 0, 0]   # the root, then two singletons
            assert [H.members(c).tolist() for c in (1, 2)] in ([[0], [1]], [[1], [0]])

    def test_every_level_partitions(self, rng):
        X = random_points(rng, 40, 3)
        H = build_hierarchy(X, 3)
        for level in range(H.ell + 2):
            total = sum(len(H.members(c)) for c in np.flatnonzero(H.clusters.level == level))
            assert total == 40
            assert (H.membership[level] >= 0).all()

    def test_root_is_everything(self, rng):
        X = random_points(rng, 17, 2)
        H = build_hierarchy(X, 9)
        assert H.clusters[0].tolist() == (H.ell + 1, -1, -1)
        assert np.array_equal(H.members(0), np.arange(17))

    def test_children_union_parent(self, rng):
        X = random_points(rng, 25, 2)
        H = build_hierarchy(X, 1)
        for cid, level in enumerate(H.clusters.level):
            if level > 0:
                children = np.flatnonzero(H.clusters.parent == cid)
                kids = np.sort(np.concatenate([H.members(k) for k in children]))
                assert np.array_equal(kids, H.members(cid))

    def test_diameter_bounds(self, rng):
        for seed in range(5):
            X = random_points(rng, 30, 2)
            assert check_diameters(build_hierarchy(X, seed)) == []

    def test_nets_are_nested_and_valid(self, rng):
        # N_i is a 2^(i-3) gamma net of N_(i-1): nested in it, packed at that
        # radius, and covering every point of it
        cases = [(random_points(rng, 30, 2), 4)]
        for seed in range(3):
            cases += [(X, seed) for X in (line_instance(), blob_instance(8, 50, seed=seed),
                                         *(generate_dataset(k, 60, 4, 2, seed) for k in KINDS))]
        for X, seed in cases:
            H = build_hierarchy(X, seed)
            for i in range(1, H.ell + 1):
                assert set(H.nets[i]) <= set(H.nets[i - 1])
                check_net(H.metric.matrix, H.nets[i - 1], H.nets[i], 2.0 ** (i - 3) * H.gamma)

    def test_cluster_table_layout(self, rng):
        # root at id 0, ids contiguous within a level with the level falling
        # as the id grows, every parent one level up, and each level-i
        # center a point of N_i
        for X, seed in [(random_points(rng, 40, 2), 1), (blob_instance(4, 25), 2)]:
            H = build_hierarchy(X, seed)
            level, parent, center = H.clusters.level, H.clusters.parent, H.clusters.center
            assert len(H.clusters) == len(np.unique(H.membership))
            assert (level[0], parent[0], center[0]) == (H.ell + 1, -1, -1)
            assert np.array_equal(level, np.sort(level)[::-1])
            assert (level[parent[1:]] == level[1:] + 1).all()
            for cid in range(1, len(H.clusters)):
                assert center[cid] in H.nets[level[cid]]
                assert H.members(cid).size > 0

    def test_greedy_pass_skipped_below_gamma(self, monkeypatch):
        # levels 1-3 have net radius <= gamma and reuse N_0 unchanged
        calls = []

        def counted(D, ids, radius):
            calls.append(radius)
            return greedy_net(D, ids, radius)

        monkeypatch.setattr(hierarchy, "greedy_net", counted)
        for X in (line(0.0, 1.0), line(0.0, 1.0, 3.0, 9.0), line_instance(), blob_instance()):
            calls.clear()
            H = build_hierarchy(X, 0)
            assert len(calls) == max(0, H.ell - 3)
            assert all(H.nets[i] is H.nets[0] for i in range(1, min(H.ell, 3) + 1))

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

    @pytest.mark.parametrize("build", [lambda md: build_hierarchy(md, 0),
                                       lambda md: build_stages(md, PtasConfig(eps=0.3, ddim=2.0))],
                             ids=["build_hierarchy", "build_stages"])
    def test_nonzero_self_distance_rejected(self, build):
        # a positive self-distance would be gamma, leaving each point outside
        # its own level-0 ball: the net check failed with an AssertionError
        D = blob_instance(2, 25, seed=1).distance_matrix()
        np.fill_diagonal(D, 1e-10)
        with pytest.raises(ValueError, match="nonzero self-distance"):
            build(MetricData(D))

    def test_copies_share_every_cluster(self):
        X = line(1.0, 1.0, 2.0, 5.0, 5.0, 5.0)
        for seed in range(5):
            H = build_hierarchy(X, seed)
            assert not check_nesting(H) and not check_diameters(H)
            assert (H.membership[:, 0] == H.membership[:, 1]).all()
            assert (H.membership[:, 3:] == H.membership[:, 3:4]).all()


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


def nesting_loop(H):
    """check_nesting as a loop over levels and points."""
    bad = []
    for i in range(H.ell + 1):
        for x in range(H.n):
            cid = int(H.membership[i, x])
            if H.clusters.parent[cid] != int(H.membership[i + 1, x]):
                bad.append((i, x))
    return bad


def diameters_loop(H):
    """check_diameters as a loop over cluster ids."""
    bad = []
    for cid in range(len(H.clusters)):
        members = H.members(cid)
        if len(members) > 1:
            sub = H.metric.matrix[np.ix_(members, members)]
            if sub.max() > H.rang(H.clusters.level[cid]) * (1 + 1e-9):
                bad.append(cid)
    return bad


class TestChecksMatchTheLoops:
    def test_nesting_check_matches_the_loop(self, rng):
        for X, seed in [(random_points(rng, 30, 2), 4), (blob_instance(4, 25), 1)]:
            H = build_hierarchy(X, seed)
            last = len(H.clusters) - 1                   # a level-0 cluster
            H.membership[0, [0, 7]] = last               # teleport two points
            H.membership[2, 3] = H.membership[2, 20]
            H.clusters.parent[last - 1] = 0              # re-parent to the root
            bad = check_nesting(H)
            assert bad == nesting_loop(H) and len(bad) >= 2
            assert bad == sorted(bad)                    # level-major, then point id

    def test_diameter_check_matches_the_loop(self, rng):
        for X, seed in [(random_points(rng, 30, 2), 4), (blob_instance(4, 25), 1)]:
            H = build_hierarchy(X, seed)
            assert check_diameters(H) == diameters_loop(H) == []
            x, y = H.members(1)[:2]                      # two points of a level-ell cluster
            H.metric.matrix[x, y] = H.metric.matrix[y, x] = 2.0 * H.rang(H.ell)
            both = [c for c in range(1, len(H.clusters)) if np.isin([x, y], H.members(c)).all()]
            assert check_diameters(H) == diameters_loop(H) == both
            H.gamma *= 0.6                               # shrink every budget
            bad = check_diameters(H)
            assert bad == diameters_loop(H) and len(bad) > 1


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

    def test_first_qualifying_level_decides(self):
        # the definition, a cut at any level at or above the threshold, on
        # every pair of a line with a repeated point
        X = line(0.0, 0.0, *range(1, 12), 40.0)
        eps, ddim = 0.5, 1.0
        hits = 0
        for seed in range(10):
            H = build_hierarchy(X, seed)
            for x in range(H.n):
                for y in range(H.n):
                    thr = hierarchy.badly_cut_threshold(H.metric.matrix[x, y], eps, H.gamma, ddim)
                    cut = any(is_cut(H, x, y, i) for i in range(H.ell + 2) if i >= thr)
                    assert is_badly_cut(H, x, y, eps, ddim) == cut
                    hits += cut
        assert hits > 0
        assert not is_badly_cut(H, 0, 1, eps, ddim)        # the copies

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
        f0 = guiding_assignment(X.distance_matrix())
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
        f0 = guiding_assignment(X.distance_matrix())
        eps, ddim, trials = 0.3, 2.0, 200
        good = sum(is_good_pair(build_hierarchy(X, s), f0, 0, 1, eps, ddim)
                   for s in spawn_seeds(8, trials))
        assert good / trials >= max(0.0, 1.0 - 192 * eps * eps)


class TestF0Ids:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError, match="idempotent"):
            f0_point_ids(np.array([1, 2, 0]), 3)

    def test_rejects_solution(self, rng):
        # a guiding solution is an id array; a UflSolution is not one
        X = random_points(rng, 10, 2)
        with pytest.raises(TypeError):
            f0_point_ids(approx_ufl(X), 10)
        ids = f0_point_ids(guiding_assignment(X.distance_matrix()), 10)
        assert ids.shape == (10,)
        assert set(ids) <= set(approx_ufl(X).facility_ids)


class TestDump:
    def test_format(self):
        H = build_hierarchy(line(0.0, 1.0), 0)
        text = dump_decomposition(H)
        lines = text.strip().split("\n")
        assert len(lines) == len(H.clusters)
        level, cid, parent, center, count = lines[0].split(":")[0].split()
        assert int(count) == len(H.members(int(cid)))


def _l1_metric() -> MetricData:
    """A coordinate-free metric: L1 distances of 30 seeded points in R^3."""
    P = np.random.default_rng(11).random((30, 3))
    return MetricData(np.abs(P[:, None, :] - P[None, :, :]).sum(axis=2))


GOLDEN_SOURCES = {"line": lambda s: line_instance(),
                  "blob": lambda s: blob_instance(),
                  "blob_8x50": lambda s: blob_instance(8, 50, seed=s),
                  "l1_metric": lambda s: _l1_metric(),
                  **{f"{kind}_{n}": lambda s, kind=kind, n=n: generate_dataset(kind, n, 8, 2, s)
                     for kind in KINDS for n in (3, 40, 120)}}

# sha256 over seeds 0..3 of dump_decomposition, nets, membership, children
# and levels: any change to cluster ids, their order, centers or members
# changes the digest. Children and levels are derived from the cluster
# table, children and level ids ascending.
GOLDEN_DIGESTS = {
    "line": "e9cb0d2733dc942566a5baf4fb2e8368052039dd876e65c0ce07ea82a211115d",
    "blob": "24c895682ed66168c724ad076ebad8c37439825c7ddbfea53b12e449e7f9a854",
    "blob_8x50": "01d8be6928a8e91013ff7d13896dfbaa52dc2b290be9053ef9360819a5c9f151",
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
        children = [np.flatnonzero(H.clusters.parent == cid) for cid in range(len(H.clusters))]
        levels = [np.flatnonzero(H.clusters.level == i) for i in range(H.num_levels)]
        for ids in [*H.nets, *children, *levels]:
            h.update(np.asarray(ids, dtype="<i8").tobytes() + b"|")
        h.update(H.membership.astype("<i8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SOURCES))
def test_golden_decomposition(name):
    assert _decomposition_digest(GOLDEN_SOURCES[name]) == GOLDEN_DIGESTS[name]
