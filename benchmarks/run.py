"""End-to-end benchmark of the uflkit pipelines.

    python3 benchmarks/run.py --workload euclid_split --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`. One
closed-loop caller in one process runs one solve at a time:

1. With `--trace 0`: a memory probe, one solve in a fresh process, reads
   that process's peak resident memory.
2. Set-up, repeated SETUP_REPEATS times: make the instance pool from the
   seed and run one untimed warm-up solve, with its reference cost and
   checks. `setup_s` is the import time plus the median repeat.
3. Timed pass: solve the pool round-robin, each instance at least once,
   until `--seconds` have passed. Every solve is followed by a timed
   computation of the instance's reference cost (`oracle_s`; a fast one
   is repeated for MIN_ORACLE_S and averaged), which the cost ratios
   divide by, and by output checks.
4. With `--trace 1`: a traced pass solves each pool instance once more
   with spans around every call into a layer (see layers.py), checks that
   it returns what the timed pass returned, and derives per-layer metrics.

Timed intervals are reported in calibrated seconds (see speed.py). Every
run prints a report line and then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. The report and, for traced
runs, the spans are also written to .bench_out/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150
MIN_ORACLE_S = 0.2          # a fast reference is repeated until this long, then averaged
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "oracle_s": "s",
                    "cost_ratio_p50": "ratio", "cost_ratio_max": "ratio",
                    "peak_mem_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mem-probe", action="store_true",
                   help="internal: report the peak memory of one solve")
    return p.parse_args(argv)


def load_package() -> None:
    """Import uflkit from this checkout's src/ and nowhere else."""
    if not (SRC / "uflkit" / "__init__.py").is_file():
        sys.exit(f"benchmark: {SRC / 'uflkit'} not found; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import uflkit
    if Path(uflkit.__file__).resolve().parent != (SRC / "uflkit").resolve():
        sys.exit(f"benchmark: imported uflkit from {uflkit.__file__}, not from {SRC}")


class Ledger:
    """Operations attempted and failed, with the reasons for the first few."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, what: str, fn, *args):
        """Call fn, counting it; return its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:                      # any failure is reported, not raised
            self.failed += 1
            if len(self.reasons) < self.KEEP:
                self.reasons.append(f"{what}: {traceback.format_exc(limit=3)}")
            return None


def summary(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"count": len(samples), "median": statistics.median(samples),
            "q1": q[0], "q3": q[2], "samples": samples}


class Samples:
    """Raw and speed-calibrated seconds of one timed quantity (see speed.py)."""

    def __init__(self):
        self.raw: list[float] = []
        self.calibrated: list[float] = []

    def add(self, raw: float, factor: float) -> None:
        self.raw.append(raw)
        self.calibrated.append(raw * factor)

    def median(self) -> float:
        return statistics.median(self.calibrated) if self.calibrated else 0.0

    def summary(self) -> dict:
        return {"calibrated": summary(self.calibrated), "raw": summary(self.raw)}


def blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy build, when it can be queried."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "machine": platform.machine()}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def set_up(wl, seed: int, ledger: Ledger):
    """One set-up: the instance pool, and one untimed warm-up solve with its
    reference cost and checks."""
    pool, warm = wl.instances(seed)

    def warm_up():
        out = wl.solve(warm)
        wl.check(warm, out, wl.reference(warm))

    ledger.run("warm-up", warm_up)
    return pool


def timed_pass(wl, pool, seconds: float, ledger: Ledger):
    """Round-robin solves; returns solve and reference timings, and the
    first outcome and reference cost of every instance."""
    import speed

    solve_s, oracle_s = Samples(), Samples()
    first: dict[int, object] = {}
    refs: dict[int, tuple[float, ...]] = {}

    def one(k: int):
        inst = pool[k]
        before = speed.probe()
        t0 = time.perf_counter()
        out = wl.solve(inst)
        t1 = time.perf_counter()
        calls = 0
        while not calls or time.perf_counter() - t1 < MIN_ORACLE_S:
            ref = wl.reference(inst)
            calls += 1
        t2 = time.perf_counter()
        factor = speed.scale(before, speed.probe())
        solve_s.add(t1 - t0, factor)
        oracle_s.add((t2 - t1) / calls, factor)
        wl.check(inst, out, ref)
        if refs.setdefault(k, ref) != ref:
            raise AssertionError("reference cost changed between calls")
        if not first.setdefault(k, out).matches(out):
            raise AssertionError("repeated solve returned a different solution")

    start = time.perf_counter()
    i = 0
    while i < len(pool) or time.perf_counter() - start < seconds:
        ledger.run(f"solve {i % len(pool)}", one, i % len(pool))
        i += 1
    return solve_s, oracle_s, first, refs


def memory_probe(wl, seed: int) -> float:
    """Peak resident memory, in MB, of this process after one solve of the
    first pool instance."""
    pool, _ = wl.instances(seed)
    out = wl.solve(pool[0])
    wl.check(pool[0], out, None)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # KiB on Linux


def memory_pass(wl, args) -> float:
    """Run memory_probe in a fresh process. A child inherits the peak of
    its parent at the time it starts, so this runs before the parent has
    done more than the child's own imports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--seed", str(args.seed), "--mem-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["peak_mem_mb"])


def traced_pass(wl, pool, refs, first, ledger: Ledger):
    """Solve each pool instance once with every layer boundary wrapped."""
    import layers
    import speed
    from spans import SpanRecorder, patched

    rec = SpanRecorder()
    traced_s = Samples()

    def one(k: int):
        inst = pool[k]
        rec.request = k
        before = speed.probe()
        t0 = time.perf_counter()
        out = rec.call(layers.ROOT, wl.solve, inst)
        traced_s.add(time.perf_counter() - t0, speed.scale(before, speed.probe()))
        layers.count_traces(rec.counts, out.traces)
        if wl.exact and wl.reference(inst) != refs.get(k):
            raise AssertionError("traced oracle returned a different optimum")
        if k not in first or not first[k].matches(out):
            raise AssertionError("traced solve differs from the untraced solve")

    with patched(layers.replacements(rec)):
        for k in range(len(pool)):
            ledger.run(f"traced solve {k}", one, k)
    return rec, traced_s


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:               # one solve at a time, on one core
        os.environ[var] = "1"
    load_package()
    import workloads
    import_raw_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.mem_probe:
        print(json.dumps({"peak_mem_mb": memory_probe(wl, args.seed)}))
        return 0

    ledger = Ledger()
    peak_mem_mb = None if args.trace else ledger.run("memory probe", memory_pass, wl, args)

    import speed                               # after the probe: it holds an 8 MB array

    speed.probe()                              # the first call pays numpy's lazy set-up
    import_s = import_raw_s * speed.scale(speed.probe(), speed.probe())
    setup_s = Samples()
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.perf_counter()
        pool = set_up(wl, args.seed, ledger)
        setup_s.add(time.perf_counter() - t0, speed.scale(before, speed.probe()))
    solve_s, oracle_s, first, refs = timed_pass(wl, pool, args.seconds, ledger)
    ratios = [first[k].total / refs[k][0] for k in sorted(first)]
    report = {"env": environment(args),
              "import_s": {"calibrated": import_s, "raw": import_raw_s},
              "setup_repeats_s": setup_s.summary(), "solve_s": solve_s.summary(),
              "oracle_s": oracle_s.summary(), "cost_ratios": ratios,
              "peak_mem_mb": peak_mem_mb}

    spans = None
    if args.trace:
        import layers
        rec, traced_s = traced_pass(wl, pool, refs, first, ledger)
        metrics = layers.layer_metrics(rec, max(1, len(traced_s.raw)))
        metrics["tracing.solve_s"] = traced_s.median()
        metrics["tracing.overhead_s"] = traced_s.median() - solve_s.median()
        report["traced_solve_s"] = traced_s.summary()
        report["top_self_time"] = layers.top_self_time(rec) if rec.spans else None
        report["span_totals"] = rec.totals()
        units = {name: layers.unit(name) for name in metrics}
        spans = rec.spans
    else:
        metrics = {"setup_s": import_s + setup_s.median(),
                   "solve_s": solve_s.median(),
                   "oracle_s": oracle_s.median(),
                   "cost_ratio_p50": statistics.median(ratios) if ratios else 0.0,
                   "cost_ratio_max": max(ratios, default=0.0),
                   "peak_mem_mb": peak_mem_mb or 0.0}
        units = END_TO_END_UNITS

    failed = ledger.failed
    report["failed_frac"] = failed / ledger.attempted
    report["failures"] = ledger.reasons
    report["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(dict(report, spans=spans)) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and len(first) == len(pool),
                      "attempted": ledger.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
