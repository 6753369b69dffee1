"""Monte-Carlo experiment drivers: dimension-reduction validation, pipeline
benchmarking against brute-force oracles, and the property suite that checks
every probabilistic guarantee (with explicit slack) on seeded instances.

A check takes only what the suite varies (trial or instance counts, a seed,
the probed eps, t or m); its fixed settings are the module constants below,
read at call time. Guiding assignments come from `ptas.guiding_assignment`.

All randomness flows from one root seed through SeedSequence splitting, so
any experiment is reproducible from a single integer.
"""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .datasets import generate_dataset
from .geometry import PointSet
from .hierarchy import (MetricData, build_hierarchy, check_diameters, check_nesting,
                        is_badly_cut, is_cut, is_good_pair)
from .partition import local_value_bounds_check, partition_properties_check
from .projection import sample_map
from .ptas import PtasConfig, build_stages, guiding_assignment, ptas_euclidean
from .refine import (check_guided_pairs_uncut, consistency_check,
                     eliminate_badly_cut)
from .solvers import approx_ufl, brute_force_ufl_continuous
from .util import format_float, spawn_seeds


# The checks' fixed settings, read at call time
_TAIL_D = 8                          # ambient dimension of the random-map tail checks
_TAIL_SLACK = 4.0                    # factor on every tail bound, opt_upper_tail's too
_CUT_K, _CUT_DDIM = 64.0, 1.0        # cut rate <= K * ddim * dist / (2^i gamma)
_BADLY_CUT_K, _GOOD_PAIR_K = 64.0, 192.0   # rate <= K eps^2, and >= 1 - K eps^2
_PAIR_DDIM = 2.0                     # ddim of the badly-cut and good-pair checks
_SPLIT_CFG = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0)   # blob_instance() splits
_SMALL_CFG = PtasConfig(eps=0.3, ddim=2.0, kappa_cap=2.0)   # n <= 12, oracle-checked
_PAIRS_PER_INSTANCE = 60             # random pairs partition_structure_check draws
_LAMBDA_SLACK, _PART_SUM_SLACK, _UPPER_TAIL_T = 8.0, 0.5, 0.5
_TREND_EPS, _TREND_MS, _TREND_TOL = 0.2, (8, 32, 128), 0.02
_BLOB_SPREAD, _BLOB_SEPARATION = 1.0, 50.0
_GROUP_SIZE, _GROUP_HALF = 8, 1.5     # groups_instance: points per group, box half-width


@dataclass(frozen=True)
class ExperimentSpec(PtasConfig):
    """Generator and trial count on top of the pipeline parameters (every
    PtasConfig field) for one experiment."""

    kind: str = "subspace"
    n: int = 12
    d: int = 64
    intrinsic_dim: int = 2
    trials: int = 50

    def __post_init__(self):
        super().__post_init__()
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            cells.append(format_float(v) if isinstance(v, float) else str(v))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Dimension-reduction experiment
# ---------------------------------------------------------------------------

def run_dimred_experiment(spec: ExperimentSpec):
    """Per trial: draw a dataset and a random map, and compare the exhaustive
    UFL optimum of the projection against the original. Returns (rows,
    summary); the acceptance band is [1 - 2 eps, 1 + 2 eps]."""
    m = spec.m
    rows = []
    for trial, s in enumerate(spawn_seeds(spec.seed, spec.trials)):
        ds_seed, map_seed = spawn_seeds(s, 2)
        X = generate_dataset(spec.kind, spec.n, spec.d, spec.intrinsic_dim, ds_seed)
        opt_x = brute_force_ufl_continuous(X.coords)
        pi = sample_map(spec.d, m, map_seed)
        opt_p = brute_force_ufl_continuous(pi.embed(X).coords)
        rows.append({"trial": trial, "dataset_seed": ds_seed, "map_seed": map_seed,
                     "m": m, "opt_original": opt_x, "opt_projected": opt_p,
                     "ratio": opt_p / opt_x})
    ratios = np.array([r["ratio"] for r in rows])
    lo, hi = 1.0 - 2.0 * spec.eps, 1.0 + 2.0 * spec.eps
    summary = {"m": m, "trials": spec.trials, "band_low": lo, "band_high": hi,
               "fraction_in_band": float(np.mean((ratios >= lo) & (ratios <= hi))),
               "median_ratio": float(np.median(ratios)),
               "target_fraction": 0.9}
    return rows, summary


DIMRED_COLUMNS = ["trial", "dataset_seed", "map_seed", "m",
                  "opt_original", "opt_projected", "ratio"]


def run_ptas_experiment(spec: ExperimentSpec):
    """Per trial: run the Euclidean pipeline on a fresh small instance and
    compare with the exhaustive continuous oracle."""
    rows = []
    for trial, s in enumerate(spawn_seeds(spec.seed, spec.trials)):
        ds_seed, run_seed = spawn_seeds(s, 2)
        X = generate_dataset(spec.kind, spec.n, spec.d, spec.intrinsic_dim, ds_seed)
        sol, _ = ptas_euclidean(X, replace(spec, seed=run_seed))
        opt = brute_force_ufl_continuous(X.coords)
        rows.append({"trial": trial, "dataset_seed": ds_seed, "n": X.n,
                     "cost": sol.total, "oracle": opt, "ratio": sol.total / opt})
    ratios = np.array([r["ratio"] for r in rows])
    summary = {"trials": spec.trials,
               "fraction_within_1.5": float(np.mean(ratios <= 1.5)),
               "max_ratio": float(ratios.max()),
               "target_fraction": 0.9}
    return rows, summary


PTAS_COLUMNS = ["trial", "dataset_seed", "n", "cost", "oracle", "ratio"]


# ---------------------------------------------------------------------------
# Random-linear-map tail checks
# ---------------------------------------------------------------------------

def expansion_tail_check(t: float, m: int, trials: int, seed: int) -> dict:
    """Empirical Pr[|pi(x)| outside 1 +- t] against slack * exp(-t^2 m / 8)."""
    norms = _unit_norms(m, trials, seed)
    rate = float(np.mean((norms < 1.0 - t) | (norms > 1.0 + t)))
    bound = _TAIL_SLACK * math.exp(-t * t * m / 8.0)
    return {"name": f"expansion_tail_t{t}_m{m}", "measured": rate,
            "bound": bound, "passed": rate <= bound}


def contraction_tail_check(t: float, m: int, trials: int, seed: int) -> dict:
    norms = _unit_norms(m, trials, seed)
    rate = float(np.mean(norms <= 1.0 / t))
    bound = _TAIL_SLACK * (3.0 / t) ** m
    return {"name": f"contraction_tail_t{t}_m{m}", "measured": rate,
            "bound": bound, "passed": rate <= bound}


def expectation_tail_check(t: float, m: int, trials: int, seed: int) -> dict:
    norms = _unit_norms(m, trials, seed)
    measured = float(np.maximum(0.0, norms - (1.0 + t)).mean())
    bound = _TAIL_SLACK / (m * t) * math.exp(-t * t * m / 2.0)
    return {"name": f"expectation_tail_t{t}_m{m}", "measured": measured,
            "bound": bound, "passed": measured <= bound}


def norm_expectation_check(m: int, trials: int, seed: int) -> dict:
    """Mean of |pi(x)|^2 must sit within 3 standard errors of |x|^2 = 1."""
    sq = _unit_norms(m, trials, seed) ** 2
    mean = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(trials))
    return {"name": f"norm_expectation_m{m}", "measured": mean,
            "bound": f"1 +- {3 * se}", "passed": abs(mean - 1.0) <= 3.0 * se}


def _unit_norms(m: int, trials: int, seed: int) -> np.ndarray:
    x = PointSet(np.eye(1, _TAIL_D))                # e1, one point
    out = np.empty(trials)
    for i, s in enumerate(spawn_seeds(seed, trials)):
        out[i] = np.linalg.norm(sample_map(_TAIL_D, m, s).embed(x).coords)
    return out


# ---------------------------------------------------------------------------
# Decomposition probability checks
# ---------------------------------------------------------------------------

def line_instance() -> PointSet:
    """A line with unit spacing near the origin plus geometrically spread
    points, giving a large aspect ratio with few points."""
    coords = list(range(16)) + [16 * 2 ** j for j in range(7)]
    return PointSet(np.array(coords, dtype=np.float64)[:, None])


def _judged(report: dict, ok: bool, checked: int) -> dict:
    """report with its verdict: passed when nothing failed and something
    was checked; when nothing was checked and nothing failed, skipped and
    not passed, which run_property_suite does not count as a failure."""
    report["passed"] = ok and checked > 0
    if ok and not checked:
        report["skipped"] = True
    return report


def cutting_probability_check(trials: int, seed: int) -> dict:
    """Empirical per-level cut rates of fixed pairs on the line instance
    against K * ddim * dist / (2^i gamma), wherever that bound is <= 1/2."""
    X = line_instance()
    pairs = [(0, 1), (0, 2), (3, 7), (0, 8)]
    gamma, _, _, ell = MetricData.from_points(X).stats()
    counts = {(p, i): 0 for p in pairs for i in range(ell + 2)}
    for s in spawn_seeds(seed, trials):
        H = build_hierarchy(X, s)
        for p in pairs:
            for i in range(ell + 2):
                if is_cut(H, p[0], p[1], i):
                    counts[(p, i)] += 1
    checks = []
    for (p, i), c in counts.items():
        d = float(abs(X.coords[p[0], 0] - X.coords[p[1], 0]))
        bound = float(_CUT_K * _CUT_DDIM * d / (2.0 ** i * gamma))
        if bound <= 0.5:
            checks.append({"pair": list(p), "level": i, "rate": c / trials,
                           "bound": bound, "passed": bool(c / trials <= bound)})
    return _judged({"name": "cutting_probability", "checks": checks},
                   all(c["passed"] for c in checks), len(checks))


def badly_cut_rate_check(eps: float, trials: int, seed: int) -> dict:
    """Worst per-pair empirical badly-cut rate against the K * eps^2 bound."""
    X = generate_dataset("subspace", 24, 8, 2, 12345)
    rng = np.random.default_rng(99)
    pairs = [tuple(sorted(rng.choice(24, size=2, replace=False))) for _ in range(6)]
    hits = {p: 0 for p in pairs}
    for s in spawn_seeds(seed, trials):
        H = build_hierarchy(X, s)
        for p in pairs:
            if is_badly_cut(H, p[0], p[1], eps, _PAIR_DDIM):
                hits[p] += 1
    rate = max(hits.values()) / trials
    bound = _BADLY_CUT_K * eps * eps
    return {"name": f"badly_cut_rate_eps{eps}", "measured": rate,
            "bound": bound, "passed": rate <= bound}


def good_pair_rate_check(eps: float, trials: int, seed: int) -> dict:
    X = generate_dataset("subspace", 24, 8, 2, 54321)
    f0 = guiding_assignment(X.distance_matrix())
    rng = np.random.default_rng(7)
    pairs = [tuple(sorted(rng.choice(24, size=2, replace=False))) for _ in range(6)]
    good = {p: 0 for p in pairs}
    for s in spawn_seeds(seed, trials):
        H = build_hierarchy(X, s)
        for p in pairs:
            if is_good_pair(H, f0, p[0], p[1], eps, _PAIR_DDIM):
                good[p] += 1
    rate = min(good.values()) / trials
    bound = max(0.0, 1.0 - _GOOD_PAIR_K * eps * eps)
    return {"name": f"good_pair_rate_eps{eps}", "measured": rate,
            "bound": bound, "passed": rate >= bound}


# ---------------------------------------------------------------------------
# Pipeline structure checks on random instances
# ---------------------------------------------------------------------------

def _instance_stream(count: int, seed: int, max_n: int = 120, max_d: int = 16):
    kinds = ("subspace", "clusters", "grid")
    for i, s in enumerate(spawn_seeds(seed, count)):
        rng = np.random.default_rng(s)
        kind = kinds[i % len(kinds)]
        n = int(rng.integers(8, max_n + 1))
        intrinsic = int(rng.integers(1, 4))
        d = int(rng.integers(intrinsic, max_d + 1))
        yield generate_dataset(kind, n, d, intrinsic, int(rng.integers(0, 2 ** 31))), s


def refine_structure_check(instances: int, seed: int) -> dict:
    violations = uncut_failures = nesting = 0
    for X, s in _instance_stream(instances, seed):
        H = build_hierarchy(X, s)
        nesting += len(check_nesting(H)) + len(check_diameters(H))
        T = eliminate_badly_cut(H, guiding_assignment(H.metric.matrix),
                                _SPLIT_CFG.eps, _SPLIT_CFG.ddim)
        violations += len(consistency_check(T).violations)
        uncut_failures += len(check_guided_pairs_uncut(T))
    return {"name": "refine_structure", "consistency_violations": violations,
            "guided_pair_failures": uncut_failures, "nesting_violations": nesting,
            "passed": violations == 0 and uncut_failures == 0 and nesting == 0}


def partition_structure_check(instances: int, seed: int) -> dict:
    bad_invariants = sep_violations = cons_violations = pairs_checked = 0
    for X, s in _instance_stream(instances, seed):
        part = build_stages(X, replace(_SPLIT_CFG, seed=s)).partition
        rng = np.random.default_rng(s)
        pairs = [tuple(rng.choice(X.n, size=2, replace=False))
                 for _ in range(_PAIRS_PER_INSTANCE)]
        rep = partition_properties_check(part, pairs)
        bad_invariants += sum(not flag for flag in rep[:4])    # the invariants' four flags
        sep_violations += len(rep.separation_violations)
        cons_violations += len(rep.consistency_violations)
        pairs_checked += rep.pairs_checked
    return _judged({"name": "partition_structure", "invariant_failures": bad_invariants,
                    "separation_violations": sep_violations,
                    "consistency_violations": cons_violations,
                    "good_cross_pairs_checked": pairs_checked},
                   bad_invariants == 0 and sep_violations == 0 and cons_violations == 0,
                   pairs_checked)


def local_bounds_check(instances: int, seed: int) -> dict:
    failures = checked_parts = unchecked_parts = 0
    for X, s in _instance_stream(instances, seed, max_n=12, max_d=8):
        part = build_stages(X, replace(_SMALL_CFG, seed=s)).partition
        rep = local_value_bounds_check(
            part, lambda ids: brute_force_ufl_continuous(X.coords[ids]))
        failures += sum(e.checked and not (e.lower_ok and e.upper_ok) for e in rep.entries)
        checked_parts += len(rep.entries) - rep.unchecked
        unchecked_parts += rep.unchecked
    return _judged({"name": "local_value_bounds", "failures": failures,
                    "checked_parts": checked_parts, "unchecked_parts": unchecked_parts},
                   failures == 0, checked_parts)


def blob_instance(blobs: int = 6, per_blob: int = 25, seed: int = 2024) -> PointSet:
    """Well-separated Gaussian blobs fat enough that each blob alone carries
    a nontrivial UFL value, so partitions genuinely split."""
    rng = np.random.default_rng(seed)
    centers = _BLOB_SEPARATION * np.stack([np.arange(blobs, dtype=np.float64),
                                           np.arange(blobs, dtype=np.float64) % 2], axis=1)
    pts = np.concatenate([c + rng.normal(0.0, _BLOB_SPREAD, size=(per_blob, 2))
                          for c in centers])
    return PointSet(pts)


def groups_instance(t: int, d: int, seed: int) -> tuple[PointSet, float]:
    """t groups of _GROUP_SIZE points, uniform in [-_GROUP_HALF, _GROUP_HALF]^2
    around centres on a ceil(sqrt(t))-wide grid of spacing _BLOB_SEPARATION,
    rows shuffled; for d > 2, zero-padded and rotated by the Q of a Gaussian
    d x d matrix. Returns (points, opt): no facility serves two groups at
    opening cost 1, so opt is the sum of the groups' exact optima."""
    rng = np.random.default_rng(seed)
    width = math.isqrt(t - 1) + 1
    grid = _BLOB_SEPARATION * np.stack(np.divmod(np.arange(t), width), axis=1)
    groups = grid[:, None] + rng.uniform(-_GROUP_HALF, _GROUP_HALF, (t, _GROUP_SIZE, 2))
    opt = float(sum(brute_force_ufl_continuous(g) for g in groups))
    pts = rng.permutation(groups.reshape(-1, 2))
    if d > 2:
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        pts = np.pad(pts, ((0, 0), (0, d - 2))) @ Q.T
    return PointSet(pts), opt


def lambda_scaling_check(trials: int, seed: int) -> dict:
    """Mean partition size over decomposition seeds against
    slack * approx_ufl(X) / kappa on one fixed instance that splits."""
    X = blob_instance()
    approx_total, kappa = approx_ufl(X).total, _SPLIT_CFG.kappa
    sizes = []
    for s in spawn_seeds(seed, trials):
        part = build_stages(X, replace(_SPLIT_CFG, seed=s)).partition
        sizes.append(len(part.parts))
    mean = float(np.mean(sizes))
    bound = _LAMBDA_SLACK * approx_total / kappa
    return {"name": "lambda_scaling", "measured": mean, "bound": bound,
            "kappa": kappa, "approx_total": approx_total,
            "mean_parts": mean, "passed": mean <= bound}


def part_sum_check(instances: int, seed: int) -> dict:
    """Sum of exhaustive part values against (1 + slack) * opt(X)."""
    worst = 0.0
    for X, s in _instance_stream(instances, seed, max_n=12, max_d=8):
        part = build_stages(X, replace(_SMALL_CFG, seed=s)).partition
        total = sum(brute_force_ufl_continuous(X.coords[p.members]) for p in part.parts)
        worst = max(worst, total / brute_force_ufl_continuous(X.coords))
    return {"name": "part_value_sum", "measured": worst, "bound": 1.0 + _PART_SUM_SLACK,
            "passed": worst <= 1.0 + _PART_SUM_SLACK}


# ---------------------------------------------------------------------------
# Dimension-reduction tail checks at the optimum level
# ---------------------------------------------------------------------------

def opt_upper_tail_check(trials: int, seed: int) -> dict:
    """Empirical Pr[opt(pi(X)) >= (1+t) opt(X)] against
    max(slack * 4/(t^2 m) * exp(-t^2 m / 8), 3/trials), m the default
    config's target dimension."""
    X = generate_dataset("subspace", 10, 32, 2, 777)
    t, m = _UPPER_TAIL_T, PtasConfig().m
    opt_x = brute_force_ufl_continuous(X.coords)
    hits = 0
    for s in spawn_seeds(seed, trials):
        opt_p = brute_force_ufl_continuous(sample_map(X.d, m, s).embed(X).coords)
        if opt_p >= (1.0 + t) * opt_x:
            hits += 1
    bound = max(_TAIL_SLACK * 4.0 / (t * t * m) * math.exp(-t * t * m / 8.0), 3.0 / trials)
    return {"name": "opt_upper_tail", "measured": hits / trials, "bound": bound,
            "m": m, "passed": hits / trials <= bound}


def opt_contraction_trend_check(trials: int, seed: int) -> dict:
    """Pr[opt(pi(C)) <= opt(C)/(1+eps)] should decrease (up to Monte-Carlo
    slack tol) as m grows, on one fixed small cluster."""
    X = generate_dataset("subspace", 8, 32, 2, 4242)
    opt_x = brute_force_ufl_continuous(X.coords)
    rates = []
    for m in _TREND_MS:
        hits = 0
        for s in spawn_seeds(seed + m, trials):
            opt_p = brute_force_ufl_continuous(sample_map(X.d, m, s).embed(X).coords)
            if opt_p <= opt_x / (1.0 + _TREND_EPS):
                hits += 1
        rates.append(hits / trials)
    ok = all(rates[i + 1] <= rates[i] + _TREND_TOL for i in range(len(rates) - 1))
    return {"name": "opt_contraction_trend", "ms": list(_TREND_MS), "rates": rates,
            "passed": ok}


# ---------------------------------------------------------------------------
# The bundled property suite
# ---------------------------------------------------------------------------

def run_property_suite(spec: ExperimentSpec) -> dict:
    """Machine-readable pass/fail report over every probabilistic and
    structural property, at trial counts scaled from the spec. all_passed
    holds when every property passed or was skipped, having checked
    nothing (its "skipped" is true and its "passed" false)."""
    trials = spec.trials
    seeds = spawn_seeds(spec.seed, 16)
    results = [
        expansion_tail_check(0.3, 64, max(trials, 200), seeds[0]),
        expansion_tail_check(0.5, 32, max(trials, 200), seeds[1]),
        contraction_tail_check(6.0, 8, max(trials, 200), seeds[2]),
        expectation_tail_check(0.5, 16, max(trials, 200), seeds[3]),
        norm_expectation_check(8, max(trials, 200), seeds[4]),
        cutting_probability_check(max(trials, 100), seeds[5]),
        badly_cut_rate_check(spec.eps, max(trials, 100), seeds[6]),
        good_pair_rate_check(spec.eps, max(trials, 100), seeds[7]),
        refine_structure_check(max(4, trials // 10), seeds[8]),
        partition_structure_check(max(4, trials // 10), seeds[9]),
        local_bounds_check(max(4, trials // 10), seeds[10]),
        lambda_scaling_check(max(10, trials // 4), seeds[11]),
        part_sum_check(max(4, trials // 10), seeds[12]),
        opt_upper_tail_check(max(20, trials // 2), seeds[13]),
        opt_contraction_trend_check(max(40, trials), seeds[14]),
    ]
    report = {"spec": asdict(spec), "properties": results,
              "all_passed": all(r["passed"] or r.get("skipped", False) for r in results)}
    return report
