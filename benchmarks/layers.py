"""Where the traced pass cuts the pipeline into layers, and the per-layer
metrics it derives from the recorded spans and counts.

Layers are named after the uflkit modules. Each wrapped attribute is one
the pipeline looks up at call time (a module global or a class attribute),
so replacing it from outside puts a span around every call into that layer.
"""

from __future__ import annotations

from collections import Counter

from uflkit import geometry, partition, projection, ptas, solvers

import workloads
from spans import SpanRecorder

# Span names whose summed self time, per solve, is reported as `<name>_s`.
TIMED_SPANS = (
    "hierarchy.build", "refine.eliminate", "partition.scan", "projection.map",
    "geometry.distance_matrix", "solvers.mp", "solvers.restricted_value",
    "solvers.kmedian_restricted", "solvers.sweep_heuristic",
    "solvers.sweep_exact", "solvers.weiszfeld", "solvers.oracle_continuous",
    "solvers.oracle_discrete", "ptas.candidate_set",
)
# Span names whose number of spans, per solve, is reported under a metric.
CALL_COUNTS = {
    "solvers.sweep_heuristic_parts": "solvers.sweep_heuristic",
    "solvers.sweep_exact_parts": "solvers.sweep_exact",
    "solvers.kmedian_restricted_calls": "solvers.kmedian_restricted",
    "solvers.mp_calls": "solvers.mp",
    "solvers.restricted_value_calls": "solvers.restricted_value",
    "solvers.weiszfeld_calls": "solvers.weiszfeld",
}
# Counts taken from return values, reported per solve.
VALUE_COUNTS = (
    "hierarchy.levels", "hierarchy.clusters", "hierarchy.net_points",
    "refine.moves", "partition.evals", "partition.parts", "partition.holes",
    "projection.m", "projection.expands", "solvers.weiszfeld_nonconverged",
)
ROOT = "ptas"


def _hierarchy(c: Counter, H) -> None:
    c["hierarchy.levels"] += H.num_levels
    c["hierarchy.clusters"] += len(H.clusters)
    c["hierarchy.net_points"] += sum(len(net) for net in H.nets)


def _refine(c: Counter, T) -> None:
    c["refine.moves"] += len(T.moves)


def _partition(c: Counter, P) -> None:
    c["partition.parts"] += len(P.parts)
    c["partition.holes"] += sum(len(h) for h in P.holes.values())


def _evaluation(c: Counter, _) -> None:
    c["partition.evals"] += 1


def _map(c: Counter, pi) -> None:
    c["projection.m"] += pi.m
    c["projection.expands"] += int(pi.m >= pi.d)


def _restricted_value(c: Counter, result) -> None:
    c["solvers.restricted_value_exact"] += int(result[1] == 1.0)


def _kmedian_restricted(c: Counter, result) -> None:
    c["solvers.kmedian_restricted_certified"] += int(bool(result[2]))


def _weiszfeld(c: Counter, result) -> None:
    if not isinstance(result, solvers.WeiszfeldResult):
        result = result[0]                      # (result, history)
    c["solvers.weiszfeld_nonconverged"] += int(not result.converged)


def count_traces(c: Counter, traces) -> None:
    """Parts whose sweep result was adopted, from a pipeline's PartTrace list."""
    c["ptas.median_parts"] += sum(t.adopted == "median" for t in traces)


def replacements(rec: SpanRecorder):
    """(owner, attribute, wrapper) for every layer boundary."""
    table = [
        (ptas, "build_hierarchy", "hierarchy.build", _hierarchy),
        (ptas, "mp_ufl_value", "solvers.mp", None),
        (ptas, "eliminate_badly_cut", "refine.eliminate", _refine),
        (ptas, "bottom_up_partition", "partition.scan", _partition),
        (partition, "mp_ufl_value", "solvers.mp", None),
        (partition.MatrixApproxHandle, "evaluate", None, _evaluation),
        (ptas.RestrictedApproxHandle, "evaluate", None, _evaluation),
        (ptas, "restricted_ufl_value", "solvers.restricted_value", _restricted_value),
        (ptas, "candidate_set", "ptas.candidate_set", None),
        (ptas, "sample_map", "projection.map", _map),
        (projection.RandomLinearMap, "apply", "projection.map", None),
        (ptas, "_heuristic_projected_sweep", "solvers.sweep_heuristic", None),
        (ptas, "_exact_projected_sweep", "solvers.sweep_exact", None),
        (solvers, "kmedian_restricted", "solvers.kmedian_restricted", _kmedian_restricted),
        (ptas, "weiszfeld_1median", "solvers.weiszfeld", _weiszfeld),
        (solvers, "weiszfeld_1median", "solvers.weiszfeld", _weiszfeld),
        (geometry.PointSet, "distance_matrix", "geometry.distance_matrix", None),
        (workloads, "brute_force_ufl_continuous", "solvers.oracle_continuous", None),
        (workloads, "brute_force_ufl_discrete", "solvers.oracle_discrete", None),
    ]
    return [(owner, attr, rec.wrap(name, vars(owner)[attr], count))
            for owner, attr, name, count in table]


def layer_metrics(rec: SpanRecorder, solves: int) -> dict[str, float]:
    """Per-solve layer metrics. Times are self times, so a span's nested
    calls into other layers are charged to those layers."""
    totals = rec.totals()

    def row(name):
        return totals.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})

    out = {f"{name}_s": row(name)["self_s"] / solves for name in TIMED_SPANS}
    out["ptas.self_s"] = row(ROOT)["self_s"] / solves
    for metric, name in CALL_COUNTS.items():
        out[metric] = row(name)["count"] / solves
    for name in VALUE_COUNTS:
        out[name] = rec.counts[name] / solves

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    c = rec.counts
    out["solvers.kmedian_restricted_certified_frac"] = share(
        c["solvers.kmedian_restricted_certified"], row("solvers.kmedian_restricted")["count"])
    out["solvers.restricted_value_exact_frac"] = share(
        c["solvers.restricted_value_exact"], row("solvers.restricted_value")["count"])
    out["ptas.median_adopted_frac"] = share(c["ptas.median_parts"], c["partition.parts"])
    return out


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "frac" if metric.endswith("_frac") else "count"


def top_self_time(rec: SpanRecorder) -> str:
    """The span name with the largest summed self time inside pipeline calls."""
    totals = rec.totals(root=ROOT)
    return max(totals, key=lambda name: totals[name]["self_s"])
