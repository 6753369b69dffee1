"""The benchmark harness under benchmarks/ builds its inputs with uflkit and
wraps pipeline attributes by name for its traced pass (`run.py --trace 1`).
These checks fail as soon as a refactor renames or removes what the harness
uses, instead of at the next benchmark run. The harness is imported without
writing bytecode, so its directory is left as it is."""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = str(Path(__file__).resolve().parent.parent / "benchmarks")


@pytest.fixture(scope="module")
def harness():
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCHMARKS)
    try:
        import layers
        import spans
        import workloads
    finally:
        sys.path.remove(BENCHMARKS)
        sys.dont_write_bytecode = write_bytecode
    return layers, spans, workloads


def test_every_wrapped_attribute_resolves(harness):
    layers, spans, _ = harness
    table = layers.replacements(spans.SpanRecorder())
    assert table
    for owner, attr, wrapper in table:
        assert wrapper.__wrapped__ is vars(owner)[attr]


def test_traced_solves_see_the_pipeline_layers(harness):
    # the wrappers take effect only if the pipelines look the attributes up
    # at call time
    layers, spans, workloads = harness
    rec = spans.SpanRecorder()
    with spans.patched(layers.replacements(rec)):
        for name in ("euclid_split", "discrete_split", "exact_n12"):
            w = workloads.WORKLOADS[name]
            _, warmup = w.instances(2001)
            rec.call(layers.ROOT, w.solve, warmup)
    seen = set(rec.totals(root=layers.ROOT))
    assert {"hierarchy.build", "refine.eliminate", "partition.scan", "solvers.mp",
            "projection.map", "solvers.weiszfeld", "solvers.restricted_value",
            "ptas.candidate_set", "solvers.sweep_exact", "solvers.sweep_heuristic"} <= seen
    # no pipeline calls kmedian_restricted: the heuristic sweep runs one
    # ufl_local_search per part and the exact sweep one partition DP
    assert "solvers.kmedian_restricted" not in seen
    assert rec.counts["partition.evals"] > 0


def test_traced_discrete_solve_sees_the_guiding_assignment(harness):
    # the discrete pipeline scans with RestrictedApproxHandle, so its one
    # ball-growing call is ptas.guiding_assignment's: the span is there only
    # while that goes through the wrapped ptas.mp_ufl_value
    layers, spans, workloads = harness
    rec = spans.SpanRecorder()
    w = workloads.WORKLOADS["discrete_split"]
    _, warmup = w.instances(2001)
    with spans.patched(layers.replacements(rec)):
        rec.call(layers.ROOT, w.solve, warmup)
    assert rec.totals(root=layers.ROOT).get("solvers.mp", {"count": 0})["count"] == 1


@pytest.mark.parametrize("name", ["euclid_split", "discrete_split", "exact_n12"])
def test_workload_instances_build(harness, name):
    _, _, workloads = harness
    w = workloads.WORKLOADS[name]
    pool, warmup = w.instances(2001)
    assert len(pool) == w.pool
    for inst in pool + [warmup]:
        assert inst.X.n >= 1 and (inst.oracle is not None) == (name == "discrete_split")


def test_exact_part_passes_the_euclidean_checks(harness, monkeypatch):
    # blob_instance(4, 25, seed=11) at the euclid_split config has a part of
    # 12 points, which the exact projected sweep solves: its solution must
    # pass the benchmark's re-pricing and come out the same when solved again
    _, _, workloads = harness
    from uflkit import ptas
    from uflkit.ptas import trace_to_jsonl

    sizes = []
    sweep = ptas._exact_projected_sweep

    def counted(proj_members):
        sizes.append(len(proj_members))
        return sweep(proj_members)

    monkeypatch.setattr(ptas, "_exact_projected_sweep", counted)
    inst = workloads._blobs(4, 25, discrete=False)(11, 11)
    first, again = workloads._euclidean(inst), workloads._euclidean(inst)
    assert sizes == [12, 12]
    workloads._check_euclidean(inst, first, None)
    assert first.matches(again)
    assert trace_to_jsonl(first.traces) == trace_to_jsonl(again.traces)


@pytest.mark.parametrize("seed, index", [(2001, None), (2004, 7), (2006, 8), (2009, 0)])
def test_exact_pipeline_is_not_below_the_oracle(harness, seed, index):
    # the warm-up instance (index None) and three pool instances each came
    # out up to 5.9e-9 below the oracle when only the per-block median was
    # certified: the oracle's subset medians then sat above their optima
    _, _, workloads = harness
    w = workloads.WORKLOADS["exact_n12"]
    pool, warmup = w.instances(seed)
    inst = warmup if index is None else pool[index]
    out = w.solve(inst)
    ref = w.reference(inst)
    w.check(inst, out, ref)
    assert out.total >= ref[0] * (1 - 1e-10)


def test_traced_hierarchy_counts_match_the_decomposition(harness):
    # the counts the traced pass reads off the hierarchy: clusters as the
    # distinct ids in the membership matrix, levels 0..ell+1, and net sizes
    layers, spans, workloads = harness
    from uflkit.hierarchy import build_hierarchy

    w = workloads.WORKLOADS["euclid_split"]
    _, warmup = w.instances(2001)
    rec = spans.SpanRecorder()
    with spans.patched(layers.replacements(rec)):
        rec.call(layers.ROOT, w.solve, warmup)
    H = build_hierarchy(warmup.X, warmup.cfg.seeds[0])
    assert rec.counts["hierarchy.clusters"] == len(np.unique(H.membership))
    assert rec.counts["hierarchy.levels"] == H.ell + 2
    assert rec.counts["hierarchy.net_points"] == sum(len(net) for net in H.nets)
