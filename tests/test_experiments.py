import hashlib
import json

import numpy as np
import pytest

from uflkit import experiments
from uflkit.datasets import generate_dataset
from uflkit.experiments import (DIMRED_COLUMNS, ExperimentSpec,
                                badly_cut_rate_check, cutting_probability_check,
                                good_pair_rate_check, groups_instance, lambda_scaling_check,
                                local_bounds_check, opt_contraction_trend_check,
                                opt_upper_tail_check, part_sum_check,
                                partition_structure_check, refine_structure_check,
                                rows_to_csv, run_dimred_experiment,
                                run_property_suite, run_ptas_experiment)
from uflkit.geometry import OracleScaleError
from uflkit.projection import sample_map
from uflkit.solvers import brute_force_ufl_continuous
from uflkit.util import spawn_seeds

# sha256 of json.dumps(run_property_suite(ExperimentSpec(trials=60, seed=21)),
# sort_keys=True)
SUITE_DIGEST = "319875e1d6f31e3b80a59e4509b3cb85efc6e7786b75ebda8b597207820325cf"


class TestDimred:
    def test_single_point_ratio_is_one(self):
        spec = ExperimentSpec(n=1, trials=3, seed=5)
        rows, summary = run_dimred_experiment(spec)
        assert all(r["ratio"] == 1.0 for r in rows)

    def test_rows_and_summary(self):
        spec = ExperimentSpec(n=8, trials=6, seed=2)
        rows, summary = run_dimred_experiment(spec)
        assert len(rows) == 6
        assert summary["band_low"] == pytest.approx(0.6)
        assert 0.0 <= summary["fraction_in_band"] <= 1.0
        for r in rows:
            assert r["ratio"] == pytest.approx(r["opt_projected"] / r["opt_original"])

    def test_concentration_improves_with_m(self):
        # mean |ratio - 1| shrinks as the target dimension grows
        X = generate_dataset("subspace", 8, 32, 2, 31)
        opt = brute_force_ufl_continuous(X.coords)
        devs = []
        for m in (4, 16, 64):
            rs = []
            for s in spawn_seeds(100 + m, 60):
                proj = sample_map(32, m, s).apply(X)
                rs.append(brute_force_ufl_continuous(proj.coords) / opt)
            devs.append(float(np.mean(np.abs(np.asarray(rs) - 1.0))))
        assert devs[2] < devs[1] < devs[0]

    def test_reproducible(self):
        spec = ExperimentSpec(n=6, trials=4, seed=11)
        a = run_dimred_experiment(spec)
        b = run_dimred_experiment(spec)
        assert a == b


class TestPtasExperiment:
    def test_rows(self):
        spec = ExperimentSpec(n=10, trials=4, seed=3)
        rows, summary = run_ptas_experiment(spec)
        assert len(rows) == 4
        assert summary["max_ratio"] >= 1.0 - 1e-9
        assert all(r["ratio"] >= 1.0 - 1e-9 for r in rows)


class TestCsv:
    def test_header_and_parse_back(self):
        spec = ExperimentSpec(n=6, trials=3, seed=7)
        rows, _ = run_dimred_experiment(spec)
        text = rows_to_csv(rows, DIMRED_COLUMNS)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(DIMRED_COLUMNS)
        cells = lines[1].split(",")
        ratio = float(cells[DIMRED_COLUMNS.index("ratio")])
        opt_o = float(cells[DIMRED_COLUMNS.index("opt_original")])
        opt_p = float(cells[DIMRED_COLUMNS.index("opt_projected")])
        assert ratio == pytest.approx(opt_p / opt_o)


class TestIndividualChecks:
    def test_cutting_probability(self):
        rep = cutting_probability_check(trials=300, seed=5)
        assert rep["passed"]
        assert len(rep["checks"]) > 0

    def test_cutting_probability_with_no_checked_level_does_not_pass(self, monkeypatch):
        # K so large that no (pair, level) bound is at most 1/2
        monkeypatch.setattr(experiments, "_CUT_K", 1e12)
        rep = cutting_probability_check(trials=2, seed=5)
        assert rep["checks"] == [] and not rep["passed"] and rep["skipped"]

    def test_badly_cut_rate(self):
        for eps in (0.2, 0.3):
            rep = badly_cut_rate_check(eps, trials=150, seed=6)
            assert rep["passed"]
            assert rep["bound"] == pytest.approx(64 * eps * eps)

    def test_good_pair_rate(self):
        assert good_pair_rate_check(0.3, trials=100, seed=7)["passed"]

    def test_refine_structure(self):
        assert refine_structure_check(6, seed=8)["passed"]

    def test_partition_structure(self):
        assert partition_structure_check(6, seed=9)["passed"]

    def test_partition_structure_with_no_checked_pair_does_not_pass(self, monkeypatch):
        monkeypatch.setattr(experiments, "_PAIRS_PER_INSTANCE", 0)
        rep = partition_structure_check(2, seed=9)
        assert rep["good_cross_pairs_checked"] == 0 and not rep["passed"] and rep["skipped"]

    def test_local_bounds(self):
        rep = local_bounds_check(6, seed=10)
        assert rep["passed"] and rep["checked_parts"] > 0
        assert rep["unchecked_parts"] == 0           # every part is within the oracle's n <= 12

    def test_local_bounds_with_every_part_unchecked_does_not_pass(self, monkeypatch):
        def out_of_scale(points):
            raise OracleScaleError("oracle scale exceeded")

        monkeypatch.setattr(experiments, "brute_force_ufl_continuous", out_of_scale)
        rep = local_bounds_check(6, seed=10)
        assert rep["checked_parts"] == 0 and rep["unchecked_parts"] > 0
        assert rep["failures"] == 0 and not rep["passed"] and rep["skipped"]

    def test_lambda_scaling(self):
        rep = lambda_scaling_check(trials=15, seed=11)
        assert rep["passed"]
        assert rep["mean_parts"] >= 2.0      # the fixed instance really splits

    def test_part_sum(self):
        assert part_sum_check(6, seed=12)["passed"]

    def test_opt_upper_tail(self):
        rep = opt_upper_tail_check(trials=30, seed=13)
        assert rep["passed"]

    def test_opt_contraction_trend(self):
        rep = opt_contraction_trend_check(trials=120, seed=14)
        assert rep["passed"], rep


class TestGroupsInstance:
    def test_groups_and_their_optimum(self):
        # 10 groups of 8 on a 4-wide grid of spacing 50, rows shuffled: each
        # point lies within the box of one grid centre, eight to a centre,
        # and opt is the sum of the groups' exact optima
        X, opt = groups_instance(10, 2, seed=3)
        assert X.coords.shape == (80, 2)
        centres = np.round(X.coords / 50.0)
        assert np.abs(X.coords - 50.0 * centres).max() <= 1.5
        cells, counts = np.unique(centres, axis=0, return_counts=True)
        assert len(cells) == 10 and set(counts.tolist()) == {8}
        changes = (np.diff(centres, axis=0) != 0).any(axis=1).sum()
        assert changes > 9                      # rows grouped by centre would change 9 times
        groups = [X.coords[(centres == c).all(axis=1)] for c in cells]
        assert opt == pytest.approx(sum(brute_force_ufl_continuous(g) for g in groups),
                                    rel=1e-12)

    def test_rotation_keeps_distances_and_opt(self):
        # d > 2 pads the same planar rows with zeros and rotates them
        X2, opt2 = groups_instance(9, 2, seed=4)
        X64, opt64 = groups_instance(9, 64, seed=4)
        assert X64.coords.shape == (72, 64) and opt64 == opt2
        assert np.allclose(X64.distance_matrix(), X2.distance_matrix(), rtol=0, atol=1e-10)
        assert np.abs(X64.coords[:, 2:]).max() > 1.0          # not left in the plane


class TestSuite:
    def test_full_suite_passes_and_serializes(self):
        report = run_property_suite(ExperimentSpec(trials=60, seed=21))
        assert report["all_passed"]
        names = [r["name"] for r in report["properties"]]
        assert any("badly_cut" in n for n in names)
        # machine-readable, and pinned byte for byte: any change to a check's
        # settings or arithmetic moves what `verify` writes
        text = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == SUITE_DIGEST
