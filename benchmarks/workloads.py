"""The benchmark workloads and the independent checks run on every output.

A workload makes a pool of instances from the run seed. Each instance gets
its own generator seed and pipeline seed from `spawn_seeds`, so a run seed
always gives the same instances and, the pipelines being seeded, the same
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from uflkit.datasets import generate_dataset
from uflkit.experiments import blob_instance
from uflkit.geometry import PointSet
from uflkit.ptas import DistanceOracle, PtasConfig, ptas_discrete, ptas_euclidean
from uflkit.solvers import (approx_ufl, brute_force_ufl_continuous,
                            brute_force_ufl_discrete)
from uflkit.util import spawn_seeds

RTOL = 1e-9


class CheckError(AssertionError):
    """An output failed one of the benchmark's checks."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


@dataclass
class Instance:
    X: PointSet
    cfg: PtasConfig
    oracle: DistanceOracle | None = None     # discrete pipeline input


@dataclass
class Outcome:
    """One pipeline call: the solution, its part traces, and the facility
    locations as an array used to compare repeated solves."""
    total: float
    solution: Any
    traces: list
    facilities: np.ndarray

    def matches(self, other: "Outcome") -> bool:
        return self.total == other.total and np.array_equal(self.facilities, other.facilities)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int                                   # instances per run
    exact: bool                                 # reference is the true optimum
    make: Callable[[int, int], Instance]        # (generator seed, pipeline seed)
    warmup: Callable[[int, int], Instance]      # instance of the same kind, maybe smaller
    solve: Callable[[Instance], Outcome]
    reference: Callable[[Instance], tuple[float, ...]]   # first entry: the ratio base
    check: Callable[[Instance, Outcome, tuple[float, ...] | None], None]

    def instances(self, seed: int) -> tuple[list[Instance], Instance]:
        """The pool for this run seed, and the warm-up instance."""
        seeds = spawn_seeds(seed, self.pool + 1)
        pool = [self.make(*spawn_seeds(s, 2)) for s in seeds[:-1]]
        return pool, self.warmup(*spawn_seeds(seeds[-1], 2))


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _euclidean(inst: Instance) -> Outcome:
    sol, traces = ptas_euclidean(inst.X, inst.cfg)
    return Outcome(sol.total, sol, traces, sol.facilities)


def _discrete(inst: Instance) -> Outcome:
    sol, traces = ptas_discrete(inst.oracle, inst.cfg)
    return Outcome(sol.total, sol, traces, np.asarray(sol.facility_ids))


def _approx_reference(inst: Instance) -> tuple[float, ...]:
    return (approx_ufl(inst.X).total,)


def _exact_reference(inst: Instance) -> tuple[float, ...]:
    coords = inst.X.coords
    return brute_force_ufl_continuous(coords), brute_force_ufl_discrete(coords)


# ---------------------------------------------------------------------------
# Checks: every cost is recomputed from coordinates with plain numpy
# ---------------------------------------------------------------------------

def _check_costs(coords: np.ndarray, F: np.ndarray, assignment: np.ndarray,
                 opening: float, connection: float, total: float) -> None:
    _require(F.ndim == 2 and len(F) >= 1 and F.shape[1] == coords.shape[1],
             "facility array has the wrong shape")
    _require(bool(np.all(np.isfinite(F))), "facility coordinates are not finite")
    assignment = np.asarray(assignment)
    _require(assignment.shape == (len(coords),), "assignment does not cover every point")
    _require(bool(np.all((assignment >= 0) & (assignment < len(F)))),
             "assignment names a missing facility")
    dist = np.sqrt(((coords[:, None, :] - F[None, :, :]) ** 2).sum(axis=2))
    nearest = dist.min(axis=1)
    assigned = dist[np.arange(len(coords)), assignment]
    _require(bool(np.all(assigned <= nearest * (1 + RTOL) + 1e-12)),
             "a point is not assigned to its nearest facility")
    _require(opening == float(len(F)), "opening cost is not one per facility")
    _require(np.isclose(connection, assigned.sum(), rtol=RTOL, atol=1e-12),
             "connection cost does not match the assignment")
    _require(np.isclose(total, opening + connection, rtol=RTOL, atol=1e-12),
             "total is not opening + connection")
    _require(np.isclose(total, len(F) + nearest.sum(), rtol=RTOL, atol=1e-12),
             "total does not match the recomputed cost")


def _check_euclidean(inst: Instance, out: Outcome, ref: tuple[float, ...]) -> None:
    sol = out.solution
    _check_costs(inst.X.coords, np.asarray(sol.facilities), sol.assignment,
                 sol.opening_cost, sol.connection_cost, sol.total)


def _check_discrete(inst: Instance, out: Outcome, ref: tuple[float, ...]) -> None:
    sol = out.solution
    ids = np.asarray(sol.facility_ids)
    _require(ids.ndim == 1 and len(ids) >= 1 and len(np.unique(ids)) == len(ids),
             "facility ids are empty or repeated")
    _require(bool(np.all((ids >= 0) & (ids < inst.X.n))), "facility id out of range")
    _check_costs(inst.X.coords, inst.X.coords[ids], sol.assignment,
                 sol.opening_cost, sol.connection_cost, sol.total)


def _check_exact(inst: Instance, out: Outcome, ref: tuple[float, ...] | None) -> None:
    _check_euclidean(inst, out, ref)
    if ref is None:                              # memory probe: no oracle computed
        return
    optimum, discrete_optimum = ref
    _require(out.total >= optimum * (1 - RTOL), "pipeline cost is below the optimum")
    _require(discrete_optimum >= optimum * (1 - RTOL),
             "discrete optimum is below the continuous optimum")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _split_config(seed: int) -> PtasConfig:
    return PtasConfig(eps=0.3, ddim=2.0, kappa_cap=4.0, seed=seed)


def _blobs(blobs: int, per_blob: int, discrete: bool):
    def make(gen_seed: int, run_seed: int) -> Instance:
        X = blob_instance(blobs, per_blob, seed=gen_seed)
        oracle = DistanceOracle.from_points(X) if discrete else None
        return Instance(X, _split_config(run_seed), oracle)
    return make


def _subspace(n: int):
    def make(gen_seed: int, run_seed: int) -> Instance:
        return Instance(generate_dataset("subspace", n, 64, 2, gen_seed),
                        PtasConfig(seed=run_seed))
    return make


WORKLOADS = {w.name: w for w in (
    Workload("euclid_split", pool=8, exact=False,
             make=_blobs(8, 50, discrete=False), warmup=_blobs(2, 50, discrete=False),
             solve=_euclidean, reference=_approx_reference, check=_check_euclidean),
    Workload("discrete_split", pool=10, exact=False,
             make=_blobs(6, 25, discrete=True), warmup=_blobs(2, 25, discrete=True),
             solve=_discrete, reference=_approx_reference, check=_check_discrete),
    Workload("exact_n12", pool=16, exact=True,
             make=_subspace(12), warmup=_subspace(12),
             solve=_euclidean, reference=_exact_reference, check=_check_exact),
)}
