import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from uflkit import geometry
from uflkit.geometry import (_DIST_CELLS, PointSet, check_net, distances, estimate_ddim,
                             greedy_net, load_points, load_points_binary, load_points_text,
                             save_points_binary, save_points_text, ufl_cost)
from uflkit.datasets import generate_dataset
from uflkit.hierarchy import MetricData

from conftest import line, random_points


class TestDist:
    def test_three_four_five(self):
        assert distances([[0, 0]], [[3, 4]])[0, 0] == 5.0

    def test_identity(self):
        assert distances([[1.5, -2.0]], [[1.5, -2.0]])[0, 0] == 0.0

    def test_unit_cube_diagonal(self):
        assert distances([[1, 1, 1]], [[0, 0, 0]])[0, 0] == pytest.approx(math.sqrt(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            distances([[0, 0]], [[1, 2, 3]])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_nonnegativity(self, coords):
        p = np.asarray(coords)
        q = p[::-1].copy()
        assert distances([p], [q])[0, 0] == distances([q], [p])[0, 0]
        assert distances([p], [q])[0, 0] >= 0.0

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 40),
           d=st.integers(1, 70), offset=st.floats(-1e6, 1e6), scale=st.floats(1e-7, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bytes_are_scipys(self, seed, n, m, d, offset, scale):
        rng = np.random.default_rng(seed)
        A, B = (offset + scale * rng.standard_normal((k, d)) for k in (n, m))
        assert distances(A, B).tobytes() == cdist(A, B).tobytes()
        assert distances(A).tobytes() == squareform(pdist(A)).tobytes()

    def test_bytes_are_scipys_over_many_chunks(self, rng):
        A = rng.random((2000, 2))
        assert distances(A).tobytes() == squareform(pdist(A)).tobytes()

    def test_bytes_are_scipys_one_row_per_chunk(self, rng):
        A, B = rng.random((3, 3)), rng.random((_DIST_CELLS + 1, 3))
        assert distances(A, B).tobytes() == cdist(A, B).tobytes()


class TestUflCost:
    def test_single_point_single_facility(self):
        X = line(0.0)
        sol = ufl_cost(X, X.coords)
        assert sol.total == 1.0
        assert sol.connection_cost == 0.0

    def test_midpoint(self):
        sol = ufl_cost(line(0.0, 2.0), np.array([[1.0]]))
        assert sol.total == pytest.approx(3.0)

    def test_direct_sum(self):
        sol = ufl_cost(line(0.0, 10.0), np.array([[0.0]]))
        assert sol.total == pytest.approx(11.0)

    def test_no_facilities(self):
        with pytest.raises(ValueError, match="no facilities"):
            ufl_cost(line(0.0), np.zeros((0, 1)))

    def test_duplicate_facility_costs_exactly_one_more(self, rng):
        X = random_points(rng, 9, 3)
        F = X.coords[:2]
        base = ufl_cost(X, F)
        dup = ufl_cost(X, np.vstack([F, F[0]]))
        assert dup.total == pytest.approx(base.total + 1.0)
        assert dup.connection_cost == pytest.approx(base.connection_cost)

    def test_scaling_normalization(self, rng):
        X = random_points(rng, 7, 2)
        F = X.coords[:3]
        lam = 3.7
        scaled = ufl_cost(PointSet(X.coords * lam), F * lam)
        base = ufl_cost(X, F)
        assert scaled.opening_cost == base.opening_cost
        assert scaled.connection_cost == pytest.approx(lam * base.connection_cost)

    def test_tie_breaks_to_lowest_index(self):
        X = line(0.0)
        sol = ufl_cost(X, np.array([[1.0], [-1.0]]))
        assert sol.assignment[0] == 0

    def test_assignment_covers_all_points(self, rng):
        X = random_points(rng, 20, 2)
        sol = ufl_cost(X, X.coords[rng.choice(20, size=4, replace=False)])
        assert sol.assignment.shape == (20,)
        recomputed = sum(np.linalg.norm(X.coords[i] - sol.facilities[sol.assignment[i]])
                         for i in range(20))
        assert sol.connection_cost == pytest.approx(recomputed, rel=1e-9)


def sequential_net(D, ids, radius):
    """The greedy net one id at a time: each kept id blocks, with one column
    read, every id within radius of it."""
    ids = np.sort(np.asarray(ids, dtype=int))
    blocked = np.zeros(len(ids), dtype=bool)
    kept = []
    for j in range(len(ids)):
        if not blocked[j]:
            kept.append(j)
            blocked |= D[ids, ids[j]] < radius
    return ids[kept]


@st.composite
def net_inputs(draw):
    # integer distances times one scale, so many sit exactly at the radius;
    # asymmetric unless symmetrised, copied rows and columns as repeated
    # points, and ids unsorted with repeats
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    D = rng.integers(0, 5, (n, n)).astype(float)
    if draw(st.booleans()):
        D = np.minimum(D, D.T)
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6)):
        D[a], D[:, a] = D[b], D[:, b]
    scale = draw(st.sampled_from([1.0, 0.1, 3.7]))
    ids = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return D * scale, ids, draw(st.integers(1, 4)) * scale


class TestGreedyNet:
    def test_line_example(self):
        D = line(0.0, 1.0, 2.0, 3.0).distance_matrix()
        net = greedy_net(D, [0, 1, 2, 3], 1.5)
        assert list(net) == [0, 2]
        check_net(D, [0, 1, 2, 3], net, 1.5)

    def test_small_radius_keeps_all(self, rng):
        X = random_points(rng, 10, 2)
        gamma, _, _, _ = MetricData.from_points(X).stats()
        D = X.distance_matrix()
        net = greedy_net(D, range(10), gamma * 0.999)
        assert list(net) == list(range(10))
        check_net(D, range(10), net, gamma * 0.999)

    def test_single_point(self):
        net = greedy_net(line(0.0, 5.0).distance_matrix(), [1], 2.0)
        assert list(net) == [1]

    def test_empty_subset(self):
        net = greedy_net(line(0.0).distance_matrix(), [], 1.0)
        assert len(net) == 0

    def test_packing_and_covering_on_random_instances(self, rng):
        for _ in range(10):
            D = random_points(rng, 30, 2).distance_matrix()
            radius = float(rng.uniform(0.05, 0.7))
            check_net(D, range(30), greedy_net(D, range(30), radius), radius)

    def test_packing_cardinality_bound(self):
        X = generate_dataset("grid", 64, 8, 2, 3)
        D = X.distance_matrix()
        supplied = estimate_ddim(X)
        for radius_frac in (0.1, 0.3, 0.6):
            _, diam, _, _ = MetricData.from_points(X).stats()
            radius = radius_frac * diam
            check_net(D, range(64), greedy_net(D, range(64), radius), radius, ddim=supplied)

    def test_check_net_flags_packing_and_covering_violations(self):
        D = line(0.0, 1.0, 2.0, 3.0).distance_matrix()
        with pytest.raises(AssertionError, match="packing"):
            check_net(D, [0, 1, 2, 3], [0, 1, 2], 1.5)
        with pytest.raises(AssertionError, match="covering"):
            check_net(D, [0, 1, 2, 3], [0], 1.5)

    # a few cells make chunks of one id up to the whole input
    @pytest.mark.parametrize("cells", [1, 7, 64, geometry._NET_CELLS])
    @given(case=net_inputs())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_sequential_net(self, cells, case):
        D, ids, radius = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "_NET_CELLS", cells)
            net = greedy_net(D, ids, radius)
        assert net.tolist() == sequential_net(D, ids, radius).tolist()


class TestMetricStats:
    def test_line_0_1_4(self):
        assert MetricData.from_points(line(0.0, 1.0, 4.0)).stats() == (1.0, 4.0, 4.0, 2)

    def test_two_points(self):
        gamma, diam, delta, ell = MetricData.from_points(line(0.0, 1.0)).stats()
        assert (gamma, delta, ell) == (1.0, 1.0, 0)

    def test_tiny_gap(self):
        k = 10
        gamma, diam, delta, ell = MetricData.from_points(line(0.0, 1.0, 1.0 + 2.0 ** -k)).stats()
        assert gamma == pytest.approx(2.0 ** -k)
        assert delta == pytest.approx((1.0 + 2.0 ** -k) * 2 ** k)

    def test_copies_leave_gamma_to_distinct_pairs(self):
        # gamma is the least positive distance; one location has none
        assert MetricData.from_points(line(1.0, 1.0, 3.0)).stats() == (2.0, 2.0, 1.0, 0)
        with pytest.raises(ValueError):
            MetricData.from_points(line(1.0, 1.0)).stats()

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            MetricData.from_points(line(1.0)).stats()

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_distance_rejected(self, value):
        D = MetricData.from_points(line(0.0, 1.0, 4.0)).matrix.copy()
        D[0, 2] = D[2, 0] = value
        with pytest.raises(ValueError, match="non-finite distances"):
            MetricData(D).stats()


class TestEstimateDdim:
    def test_equispaced_line(self):
        X = line(*range(64))
        assert 0.5 <= estimate_ddim(X) <= 2.5

    def test_two_points(self):
        assert 0.0 <= estimate_ddim(line(0.0, 1.0)) <= 1.0

    def test_rotated_grid(self):
        X = generate_dataset("grid", 64, 32, 2, 11)
        assert 1.0 <= estimate_ddim(X) <= 4.0

    def test_never_exceeds_log_n(self, rng):
        X = random_points(rng, 16, 3)
        assert estimate_ddim(X) <= math.log2(16)


class TestFileFormats:
    def test_text_round_trip(self, tmp_path, rng):
        X = random_points(rng, 9, 4)
        path = tmp_path / "pts.txt"
        save_points_text(X, path)
        Y = load_points_text(path)
        assert np.array_equal(X.coords, Y.coords)

    def test_text_bytes_stable(self, tmp_path, rng):
        X = random_points(rng, 5, 3)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        save_points_text(X, a)
        save_points_text(X, b)
        assert a.read_bytes() == b.read_bytes()

    def test_binary_round_trip(self, tmp_path, rng):
        X = random_points(rng, 7, 5)
        path = tmp_path / "pts.bin"
        save_points_binary(X, path)
        Y = load_points_binary(path)
        assert np.array_equal(X.coords, Y.coords)

    def test_load_sniffs_format(self, tmp_path, rng):
        X = random_points(rng, 4, 2)
        t, b = tmp_path / "x.txt", tmp_path / "x.bin"
        save_points_text(X, t)
        save_points_binary(X, b)
        assert np.array_equal(load_points(t).coords, load_points(b).coords)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_points_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"UFLP\x01\x00")
        with pytest.raises(ValueError, match="^truncated UFLP binary file$"):
            load_points_binary(path)


class TestPointSet:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[np.nan, 0.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 2)))

    def test_keeps_its_own_copy_of_a_float64_array(self):
        # PointSet once set its caller's own float64 array read-only, so
        # that writing to it raised "assignment destination is read-only"
        a = np.random.default_rng(35).random((4, 2))
        X = PointSet(a)
        before = X.coords.copy()
        a[0, 0] = 2.0
        assert not X.coords.flags.writeable
        assert np.array_equal(X.coords, before)
