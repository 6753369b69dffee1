import math

import numpy as np
import pytest

from uflkit.experiments import (contraction_tail_check, expansion_tail_check,
                                expectation_tail_check, norm_expectation_check)
from uflkit.geometry import PointSet
from uflkit.projection import load_map, sample_map, save_map, target_dim
from uflkit.util import spawn_seeds

from conftest import random_points


class TestSampleMap:
    def test_deterministic(self):
        a = sample_map(3, 2, seed=7)
        b = sample_map(3, 2, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(sample_map(3, 2, 1).matrix, sample_map(3, 2, 2).matrix)

    def test_scalar_case(self):
        pi = sample_map(1, 1, seed=5)
        g = pi.matrix[0, 0]
        assert pi.apply_vector([2.0])[0] == pytest.approx(2.0 * g)

    def test_zero_dims_rejected(self):
        with pytest.raises(ValueError):
            sample_map(0, 4, 1)
        with pytest.raises(ValueError):
            sample_map(4, 0, 1)

    def test_mean_squared_norm_near_one(self):
        # Monte-Carlo: E|pi(e1)|^2 = 1; 10000 seeds at m=8 stays within 0.05.
        d, m = 4, 8
        x = np.zeros(d)
        x[0] = 1.0
        sq = [np.linalg.norm(sample_map(d, m, s).apply_vector(x)) ** 2
              for s in spawn_seeds(123, 10000)]
        assert abs(np.mean(sq) - 1.0) <= 0.05


class TestApply:
    def test_zero_vector_maps_to_zero(self):
        pi = sample_map(5, 3, 2)
        assert np.allclose(pi.apply_vector(np.zeros(5)), 0.0)

    def test_linearity_on_pairs(self, rng):
        pi = sample_map(6, 4, 9)
        X = random_points(rng, 8, 6)
        P = pi.apply(X).coords
        for i in range(8):
            for j in range(8):
                lhs = pi.apply_vector(X.coords[i] - X.coords[j])
                np.testing.assert_allclose(lhs, P[i] - P[j], rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self, rng):
        pi = sample_map(6, 4, 9)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pi.apply(random_points(rng, 3, 5))

    def test_ids_preserved(self, rng):
        X = random_points(rng, 11, 6)
        Y = sample_map(6, 3, 0).apply(X)
        assert Y.n == 11 and Y.d == 3


class TestTargetDim:
    def test_formula_small(self):
        assert target_dim(0.5, 16.0, c3=1.0) == 20

    def test_clamp_case(self):
        assert target_dim(1 - 1e-9, 2.0, c3=1.0) == 1

    def test_formula_large(self):
        assert target_dim(0.25, 256.0, c3=2.0) == 320

    def test_eps_out_of_range(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                target_dim(eps, 16.0)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            target_dim(0.5, 1.5)


class TestTailBounds:
    def test_expansion(self):
        for t, m, seed in ((0.3, 64, 11), (0.5, 32, 12)):
            rep = expansion_tail_check(t, m, trials=3000, seed=seed)
            assert rep["passed"], rep

    def test_contraction(self):
        for m, seed in ((4, 13), (8, 14)):
            rep = contraction_tail_check(6.0, m, trials=3000, seed=seed)
            assert rep["passed"], rep

    def test_expectation(self):
        rep = expectation_tail_check(0.5, 16, trials=3000, seed=15)
        assert rep["passed"], rep

    def test_norm_preserved_in_expectation(self):
        rep = norm_expectation_check(8, trials=4000, seed=16)
        assert rep["passed"], rep


class TestSerialization:
    def test_round_trip_regenerates_matrix(self, tmp_path):
        pi = sample_map(7, 3, seed=42)
        path = tmp_path / "map.rlmg"
        save_map(pi, path)
        again = load_map(path)
        assert (again.m, again.d, again.seed) == (3, 7, 42)
        assert np.array_equal(again.matrix, pi.matrix)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(ValueError):
            load_map(path)
