"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion; each test also asserts, so plain pytest works too.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from uflkit.datasets import generate_dataset
from uflkit.experiments import (ExperimentSpec, badly_cut_rate_check,
                                contraction_tail_check, cutting_probability_check,
                                expansion_tail_check, lambda_scaling_check,
                                run_dimred_experiment, run_ptas_experiment)
from uflkit.hierarchy import build_hierarchy
from uflkit.partition import check_partition_invariants, partition_properties_check
from uflkit.ptas import DistanceOracle, PtasConfig, build_stages, ptas_discrete
from uflkit.refine import consistency_check, eliminate_badly_cut
from uflkit.solvers import (approx_ufl, brute_force_ufl_continuous,
                            brute_force_ufl_discrete, kmedian,
                            weiszfeld_1median)
from uflkit.util import spawn_seeds

from test_solvers import grid_1median_oracle


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): "
          f"{'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def pipeline_instances(count, seed, max_n, max_d=16, big_every=None):
    """Mixed-kind instances; optionally inject full-size ones periodically."""
    kinds = ("subspace", "clusters", "grid")
    for i, s in enumerate(spawn_seeds(seed, count)):
        rng = np.random.default_rng(s)
        if big_every and i % big_every == big_every - 1:
            n, d = max_n, 64
        else:
            n = int(rng.integers(20, min(160, max_n) + 1))
            d = int(rng.integers(2, max_d + 1))
        intrinsic = int(rng.integers(1, min(4, d) + 1))
        yield generate_dataset(kinds[i % 3], n, d, intrinsic,
                               int(rng.integers(0, 2 ** 31))), s


def build_partition(X, seed):
    """The partition the Euclidean pipeline solves at eps=0.3, kappa_cap=4,
    with the guiding facility of every point."""
    cfg = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed)
    part = build_stages(X, cfg).partition
    return part, part.refined.f0_ids


def test_c01_partition_invariants():
    failures = 0
    parts_seen = 0
    for X, s in pipeline_instances(100, seed=1001, max_n=500, big_every=20):
        part, _ = build_partition(X, s)
        parts_seen += len(part.parts)
        if not all(check_partition_invariants(part)):
            failures += 1
    report(1, "partition invariants", failures == 0,
           f"100 instances (n up to 500, d up to 64), {parts_seen} parts, "
           f"{failures} violating instances")


def test_c02_cutting_probability():
    rep = cutting_probability_check(trials=2000, seed=1002, K=64.0, ddim=1.0)
    worst = max((c["rate"] / c["bound"] for c in rep["checks"]), default=0.0)
    report(2, "cutting probability", rep["passed"],
           f"{len(rep['checks'])} (pair, level) bounds at 2000 seeds, "
           f"worst rate/bound = {worst:.3f}")


def test_c03_badly_cut_rate():
    ok = True
    details = []
    for eps in (0.2, 0.3):
        rep = badly_cut_rate_check(eps, trials=1000, seed=1003)
        ok &= rep["passed"]
        details.append(f"eps={eps}: rate {rep['measured']:.4f} <= {rep['bound']:.2f}")
    report(3, "badly-cut rate", ok, "; ".join(details))


def test_c04_refined_consistency():
    violations = 0
    for X, s in pipeline_instances(100, seed=1004, max_n=160):
        H = build_hierarchy(X, s)
        T = eliminate_badly_cut(H, approx_ufl(X), 0.3, 2.0)
        violations += len(consistency_check(T).violations)
    report(4, "refined-decomposition consistency", violations == 0,
           f"100 instances, {violations} violations")


def test_c05_separation():
    sep_violations = 0
    pairs_checked = 0
    for X, s in pipeline_instances(100, seed=1005, max_n=160):
        part, f0 = build_partition(X, s)
        rng = np.random.default_rng(s)
        pairs = [tuple(rng.choice(X.n, size=2, replace=False)) for _ in range(80)]
        rep = partition_properties_check(part, f0, pairs)
        sep_violations += len(rep.separation_violations)
        sep_violations += len(rep.consistency_violations)
        pairs_checked += rep.pairs_checked
    report(5, "separation", sep_violations == 0 and pairs_checked > 0,
           f"100 instances, {pairs_checked} good cross-part pairs, "
           f"{sep_violations} violations")


def test_c06_random_map_tails():
    reps = [expansion_tail_check(0.3, 64, trials=10000, seed=1061),
            expansion_tail_check(0.5, 32, trials=10000, seed=1062),
            contraction_tail_check(6.0, 8, trials=10000, seed=1063)]
    ok = all(r["passed"] for r in reps)
    detail = "; ".join(f"{r['name']}: {r['measured']:.5f} <= {r['bound']:.5f}"
                       for r in reps)
    report(6, "random-map tails", ok, detail)


def test_c07_dimension_reduction_end_to_end():
    spec = ExperimentSpec(kind="subspace", n=12, d=64, intrinsic_dim=2,
                          trials=50, seed=1007, eps=0.2, ddim=2.0)
    rows, summary = run_dimred_experiment(spec)
    in_band = summary["fraction_in_band"]
    med = summary["median_ratio"]
    ok = in_band >= 0.9 and 0.85 <= med <= 1.15
    report(7, "dimension reduction end-to-end", ok,
           f"m={summary['m']}, fraction in [0.6, 1.4] = {in_band:.2f}, "
           f"median ratio = {med:.3f}")


def test_c08_euclidean_ptas_quality():
    spec = ExperimentSpec(kind="subspace", n=12, d=64, intrinsic_dim=2,
                          trials=50, seed=1008, eps=0.2, ddim=2.0)
    rows, summary = run_ptas_experiment(spec)
    ratios = [r["ratio"] for r in rows]
    frac = float(np.mean(np.asarray(ratios) <= 1.5))
    ok = frac >= 0.9 and max(ratios) <= 6.0 + 1e-9
    report(8, "euclidean pipeline quality", ok,
           f"50 runs, fraction <= 1.5x oracle = {frac:.2f}, "
           f"max ratio = {max(ratios):.3f} (hard cap 6)")


def test_c09_discrete_ptas_quality():
    within = 0
    worst = 0.0
    for s in spawn_seeds(1009, 50):
        ds, run = spawn_seeds(s, 2)
        X = generate_dataset("subspace", 12, 16, 2, ds)
        sol, _ = ptas_discrete(DistanceOracle.from_points(X),
                               PtasConfig(eps=0.2, ddim=2.0, seed=run))
        ratio = sol.total / brute_force_ufl_discrete(X.coords)
        worst = max(worst, ratio)
        if ratio <= 1.5:
            within += 1
    report(9, "discrete pipeline quality", within >= 45,
           f"50 runs, {within} within 1.5x discrete oracle, worst {worst:.3f}")


def test_c10_solver_oracles():
    rng = np.random.default_rng(1010)
    grid_bad = 0
    for _ in range(20):
        P = rng.random((7, 2))
        res = weiszfeld_1median(P)
        if abs(res.cost - grid_1median_oracle(P)) > 1e-3 * res.cost:
            grid_bad += 1
    dom_bad = 0
    for _ in range(100):
        P = rng.random((int(rng.integers(2, 9)), 2))
        if brute_force_ufl_continuous(P) > brute_force_ufl_discrete(P) * (1 + 1e-9):
            dom_bad += 1
    mono_bad = 0
    for _ in range(50):
        P = rng.random((int(rng.integers(4, 10)), 2))
        costs = [kmedian(P, k).cost for k in range(1, len(P) + 1)]
        if any(b > a * (1 + 1e-9) + 1e-12 for a, b in zip(costs, costs[1:])):
            mono_bad += 1
    ok = grid_bad == 0 and dom_bad == 0 and mono_bad == 0
    report(10, "solver oracles", ok,
           f"weiszfeld-vs-grid fails {grid_bad}/20, continuous>discrete "
           f"{dom_bad}/100, nonmonotone v(k) {mono_bad}/50")


def test_c11_partition_size_scaling():
    rep = lambda_scaling_check(trials=200, seed=1011)
    report(11, "partition size scaling", rep["passed"],
           f"mean |parts| over 200 seeds = {rep['measured']:.2f} <= "
           f"8 * approx / kappa = {rep['bound']:.2f}")


def test_c12_cli_determinism(tmp_path):
    data = tmp_path / "pts.txt"
    cmds = [
        ["gen", "--kind", "clusters", "--n", "14", "--d", "8",
         "--intrinsic-dim", "2", "--seed", "3", "--out", "OUT"],
        ["gen", "--kind", "grid", "--n", "9", "--d", "4",
         "--intrinsic-dim", "2", "--seed", "5", "--binary", "--out", "OUT"],
        ["solve", str(data), "--algo", "approx", "--out", "OUT"],
        ["solve", str(data), "--algo", "oracle", "--out", "OUT"],
        ["solve", str(data), "--algo", "ptas", "--seed", "7", "--out", "OUT"],
        ["solve", str(data), "--algo", "ptas-discrete", "--seed", "7", "--out", "OUT"],
        ["reduce", str(data), "--m", "6", "--seed", "9", "--out", "OUT"],
        ["partition", str(data), "--seed", "11", "--kappa-cap", "4", "--out", "OUT"],
        ["experiment", "dimred", "--n", "8", "--trials", "3", "--seed", "13",
         "--out", "OUT"],
        ["verify", "--trials", "30", "--seed", "15", "--out", "OUT"],
    ]
    subprocess.run([sys.executable, "-m", "uflkit.cli", "gen", "--n", "10",
                    "--d", "6", "--intrinsic-dim", "2", "--seed", "1",
                    "--out", str(data)], check=True, capture_output=True)
    mismatches = 0
    for i, cmd in enumerate(cmds):
        outs = []
        for rep_idx in range(2):
            out = tmp_path / f"out_{i}_{rep_idx}"
            argv = [str(out) if a == "OUT" else a for a in cmd]
            res = subprocess.run([sys.executable, "-m", "uflkit.cli", *argv],
                                 capture_output=True, text=True)
            assert res.returncode == 0, (cmd, res.stderr)
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches += 1
    report(12, "CLI determinism", mismatches == 0,
           f"10 command spot checks rerun byte-identically, {mismatches} mismatches")
