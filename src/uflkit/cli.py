"""Command-line interface: dataset generation, solving, projection,
partitioning, experiments, and the property-suite verifier.

`partition --seed s` emits the low-value partition that `solve --algo ptas
--seed s` solves (both run `ptas.build_stages` on the same configuration),
and `reduce --seed s` writes the projection it solves on: the image of the
same random linear map in min(m, d) coordinates (both take the map seed
from `PtasConfig.seeds`).

Every command is deterministic given --seed; rerunning with identical
arguments reproduces output files byte for byte. Exit code 0 iff all
invoked checks pass, 1 when one fails; 2, argparse's code for bad input,
with one error line for an argument rejected with ValueError (`--eps 1.5`,
`gen --n 0`), input beyond an oracle's cap, or a file that cannot be read
or written (OSError).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

import numpy as np

from .datasets import KINDS, generate_dataset
from .experiments import (DIMRED_COLUMNS, PTAS_COLUMNS, ExperimentSpec,
                          rows_to_csv, run_dimred_experiment,
                          run_property_suite, run_ptas_experiment)
from .geometry import (OracleScaleError, PointSet, load_points, save_points_binary,
                       save_points_text)
from .partition import partition_to_csv
from .projection import sample_map
from .ptas import (DistanceOracle, PtasConfig, build_stages, ptas_discrete,
                   ptas_euclidean, trace_to_jsonl)
from .solvers import approx_ufl, brute_force_ufl_continuous, brute_force_ufl_discrete
from .util import format_float


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """One flag per PtasConfig field (kappa_cap -> --kappa-cap)."""
    for f in fields(PtasConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                       default=f.default)


def _config(args) -> PtasConfig:
    return PtasConfig(**{f.name: getattr(args, f.name) for f in fields(PtasConfig)})


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _solution_csv(solution, X: PointSet) -> str:
    lines = [f"# facilities {solution.num_facilities} {solution.facilities.shape[1]}"]
    for row in solution.facilities:
        lines.append(" ".join(format_float(v) for v in row))
    lines.append("point_id,facility_index,distance")
    for i in range(X.n):
        j = int(solution.assignment[i])
        di = float(np.linalg.norm(X.coords[i] - solution.facilities[j]))
        lines.append(f"{i},{j},{format_float(di)}")
    return "\n".join(lines) + "\n"


def cmd_gen(args) -> int:
    X = generate_dataset(args.kind, args.n, args.d, args.intrinsic_dim, args.seed)
    if args.binary:
        save_points_binary(X, args.out)
    else:
        save_points_text(X, args.out)
    return 0


def cmd_solve(args) -> int:
    X = load_points(args.input)
    cfg = _config(args)
    trace_text = None
    if args.algo == "approx":
        sol = approx_ufl(X)
        text = _solution_csv(sol, X)
    elif args.algo == "oracle":
        text = f"opt_continuous,{format_float(brute_force_ufl_continuous(X.coords))}\n"
    elif args.algo == "oracle-discrete":
        text = f"opt_discrete,{format_float(brute_force_ufl_discrete(X.coords))}\n"
    elif args.algo == "ptas":
        sol, traces = ptas_euclidean(X, cfg)
        text = _solution_csv(sol, X)
        trace_text = trace_to_jsonl(traces)
    else:                                   # ptas-discrete
        sol, traces = ptas_discrete(DistanceOracle.from_points(X), cfg)
        lines = ["facility_id"] + [str(int(f)) for f in sol.facility_ids]
        lines.append(f"total,{format_float(sol.total)}")
        text = "\n".join(lines) + "\n"
        trace_text = trace_to_jsonl(traces)
    _write(args.out, text)
    if args.trace and trace_text is not None:
        _write(args.trace, trace_text)
    return 0


def cmd_reduce(args) -> int:
    X = load_points(args.input)
    cfg = _config(args)
    pi = sample_map(X.d, cfg.m if args.m is None else args.m, cfg.seeds[1])
    save_points_text(pi.embed(X), args.out)
    return 0


def cmd_partition(args) -> int:
    part = build_stages(load_points(args.input), _config(args)).partition
    _write(args.out, partition_to_csv(part))
    return 0


def cmd_experiment(args) -> int:
    spec = ExperimentSpec(kind=args.kind, n=args.n, d=args.d,
                          intrinsic_dim=args.intrinsic_dim, trials=args.trials,
                          **asdict(_config(args)))
    if args.mode == "dimred":
        rows, summary = run_dimred_experiment(spec)
        text = rows_to_csv(rows, DIMRED_COLUMNS)
    else:
        rows, summary = run_ptas_experiment(spec)
        text = rows_to_csv(rows, PTAS_COLUMNS)
    for key in sorted(summary):
        text += f"# {key},{summary[key]}\n"
    _write(args.out, text)
    return 0


def cmd_verify(args) -> int:
    spec = ExperimentSpec(trials=args.trials, seed=args.seed, eps=args.eps)
    report = run_property_suite(spec)
    _write(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uflkit",
                                     description="UFL on doubling point sets: "
                                                 "solvers, projections, and validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    p.add_argument("--kind", choices=KINDS, default="subspace")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--intrinsic-dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--binary", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a point-set file")
    p.add_argument("input")
    p.add_argument("--algo", choices=["approx", "oracle", "oracle-discrete",
                                      "ptas", "ptas-discrete"], default="approx")
    _add_config_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="project a point-set file with the map "
                                      "that solve --algo ptas uses for the same seed")
    p.add_argument("input")
    _add_config_flags(p)
    p.add_argument("--m", type=int, default=None,
                   help="override the derived target dimension")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("partition", help="emit as CSV the low-value partition "
                                         "that solve --algo ptas solves for the same seed")
    p.add_argument("input")
    _add_config_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment")
    p.add_argument("mode", choices=["dimred", "ptas"])
    p.add_argument("--kind", choices=KINDS, default="subspace")
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--intrinsic-dim", type=int, default=2)
    p.add_argument("--trials", type=int, default=50)
    _add_config_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run the property suite (exit 1 on failure)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=PtasConfig.eps)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OracleScaleError, OSError) as e:   # bad input: argparse's exit code
        print(f"uflkit: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
