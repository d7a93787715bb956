"""The benchmark's workloads.

A workload is a tuple of units; one repetition runs each unit once. A unit
is a function ``(base_seed, work_dir, max_generations=None)`` that makes one
seeded run through the package's public entry points, unit ``i`` on seed
``base_seed + i``, and returns its ``Outcome``, already checked. Units are
single runs so that the timed window can be filled in steps of a few
seconds. Every ``EngineConfig`` field is pinned here rather than taken from
presets or defaults, so a change of default does not silently change the
workload. ``max_generations`` overrides only the generation cap, for the
untimed warm-up.

Entry points are looked up on their module at call time (``aded.engine.
run_aded``, ``aded.harness.cmd_moo``) so that the layer tracer's hooks see
them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

import aded.engine
import aded.harness
from aded.benchmarks import lookup
from aded.engine import EngineConfig
from aded.variation import LocalSearchBudget, ScheduleParams, StrategyId

SUCCESS_TOL = 1e-4     # acceptance criterion 3: distance of best_f to the known optimum
GD_LIMIT = 0.25        # acceptance criterion 10: generational distance on zdt1
POP = 300
GENS = 200


@dataclass
class Outcome:
    """One seeded run: what must repeat exactly for its seed, its objective
    evaluations, and why it failed (None when it passed its check)."""

    label: str
    seed: int
    fingerprint: tuple | None
    evals: int
    problem: str | None


def _engine_config(seed, max_generations, *, local_search, stagnation_limit, stagnation_tol,
                   schedule):
    return EngineConfig(
        population_size=POP,
        max_generations=max_generations or GENS,
        schedule=schedule,
        strategy=StrategyId("adedrand", "bin"),
        neighborhood="dynamic",
        neighborhood_size=10,
        local_search=local_search,
        stagnation_limit=stagnation_limit,
        stagnation_tol=stagnation_tol,
        seed=seed,
    )


SCHEDULED = ScheduleParams(initial_f=0.5, initial_cr=0.5, mode="scheduled",
                           fixed_f=None, fixed_cr=None)
CLASSIC = ScheduleParams(initial_f=0.5, initial_cr=0.5, mode="fixed", fixed_f=0.8, fixed_cr=0.9)
REFINE_EVERY_TRIAL = LocalSearchBudget(enabled=True, max_iterations=25, gradient_step=1e-6,
                                       probability=1.0)
NO_REFINE = LocalSearchBudget(enabled=False, max_iterations=25, gradient_step=1e-6,
                              probability=1.0)


def _single(entry: str, benchmark_id: str, cfg: EngineConfig, expected_evals=None) -> Outcome:
    spec = lookup(benchmark_id)
    label = f"{entry}/{benchmark_id}"
    try:
        result = getattr(aded.engine, entry)(spec.evaluate, spec.space(2), cfg)
    except Exception as exc:                       # a failed run is counted, not fatal
        return Outcome(label, cfg.seed, None, 0, f"raised {exc!r}")
    fingerprint = (repr(result.best_f), result.n_evaluations, result.best_x.tobytes())
    problem = None
    if not abs(result.best_f - spec.known_optimum) <= SUCCESS_TOL:
        problem = f"best_f {result.best_f!r} is not within {SUCCESS_TOL} of {spec.known_optimum}"
    elif expected_evals is not None and result.n_evaluations != expected_evals:
        problem = f"{result.n_evaluations} evaluations, expected {expected_evals}"
    return Outcome(label, cfg.seed, fingerprint, result.n_evaluations, problem)


def _refine_unit(benchmark_id: str, offset: int, base_seed: int, work_dir: Path,
                 max_generations=None) -> Outcome:
    """ADED as shipped: L-BFGS-B on every trial, stagnation stop on."""
    cfg = _engine_config(base_seed + offset, max_generations, local_search=REFINE_EVERY_TRIAL,
                         stagnation_limit=10, stagnation_tol=1e-12, schedule=SCHEDULED)
    return _single("run_aded", benchmark_id, cfg)


def _loop_unit(entry: str, benchmark_id: str, schedule: ScheduleParams, offset: int,
               base_seed: int, work_dir: Path, max_generations=None) -> Outcome:
    """An engine without refinement and with the stagnation stop off, so the
    run makes exactly POP * (GENS + 1) evaluations."""
    cfg = _engine_config(base_seed + offset, max_generations, local_search=NO_REFINE,
                         stagnation_limit=GENS, stagnation_tol=0.0, schedule=schedule)
    return _single(entry, benchmark_id, cfg, POP * ((max_generations or GENS) + 1))


def _mutually_nondominated(objs: np.ndarray) -> bool:
    no_worse = np.all(objs[:, None, :] <= objs[None, :, :], axis=2)
    better = np.any(objs[:, None, :] < objs[None, :, :], axis=2)
    return not np.any(no_worse & better)


MOO_GENS = 40


def _moo_unit(offset: int, base_seed: int, work_dir: Path, max_generations=None) -> Outcome:
    """`aded moo` on 30-D zdt1, one run, writing its CSV and JSON reports
    into ``work_dir``. The values are those of the moo-zdt1 preset except
    the stop: the preset's stagnation stop (limit 40 of 100 generations)
    ends runs at a seed-dependent point, which made the evaluations of a
    repetition vary by 15% between base seeds. Here every run makes
    MOO_GENS generations, about where that stop lands, with the stagnation
    stop off."""
    seed = base_seed + offset
    cfg = EngineConfig(
        population_size=100,
        max_generations=max_generations or MOO_GENS,
        schedule=ScheduleParams(initial_f=2.0, initial_cr=0.9, mode="scheduled",
                                fixed_f=None, fixed_cr=None),
        strategy=StrategyId("adedrand", "bin"),
        neighborhood="dynamic",
        neighborhood_size=10,
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, gradient_step=1e-6,
                                       probability=0.1),
        stagnation_limit=MOO_GENS,
        stagnation_tol=0.0,
        seed=seed,
    )
    plan = aded.harness.ExperimentPlan(
        benchmarks=["zdt1"], config=cfg, algorithm="aded_mo", n_runs=1,
        base_seed=seed, dim=30, jobs=1, out_dir=work_dir, fmt="csv",
    )
    label = "cmd_moo/zdt1"
    try:
        report = aded.harness.cmd_moo(plan, weights=[0.5, 0.5], reference_size=1000)
        front_csv = hashlib.sha256((work_dir / "front.csv").read_bytes()).hexdigest()
    except Exception as exc:                       # a failed run is counted, not fatal
        return Outcome(label, seed, None, 0, f"raised {exc!r}")
    [(result, entry)] = report["results"]["zdt1"]
    objs = np.array([o for _, o in result.front])
    problem = None
    if not entry.get("gd", np.inf) <= GD_LIMIT:
        problem = f"GD {entry.get('gd')!r} exceeds {GD_LIMIT}"
    elif not _mutually_nondominated(objs):
        problem = "the emitted front holds a dominated point"
    fingerprint = (entry["n_evaluations"], repr(entry["best_scalarized"]), front_csv)
    return Outcome(label, seed, fingerprint, entry["n_evaluations"], problem)


WORKLOADS = {
    "aded-refine": (
        partial(_refine_unit, "rastrigin", 0),
        partial(_refine_unit, "ackley", 1),
        partial(_refine_unit, "rastrigin", 2),
    ),
    "generation-loop": (
        partial(_loop_unit, "run_aded", "ackley", SCHEDULED, 0),
        partial(_loop_unit, "run_classic_de", "rastrigin", CLASSIC, 1),
        partial(_loop_unit, "run_aded", "rastrigin", SCHEDULED, 2),
    ),
    "moo-zdt1": tuple(partial(_moo_unit, i) for i in range(3)),
}
