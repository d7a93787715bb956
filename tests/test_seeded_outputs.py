"""Seeded outputs are the contract: these runs are pinned bit for bit.

A change that fails here has altered the RNG draw order or the arithmetic
of an engine, and so every seeded result; such a change must re-pin these
values and say so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aded import (
    EngineConfig,
    LocalSearchBudget,
    ScheduleParams,
    run_aded,
    run_aded_mo,
    run_classic_de,
)
from aded import engine
from aded.benchmarks import lookup
from aded.variation import lockstep_refine


def sha(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.asarray(a, dtype=float).tobytes())
    return digest.hexdigest()


def fingerprint(result):
    return (repr(result.best_f), result.n_evaluations, sha(result.best_x),
            sha(result.best_f_history), result.terminated_by)


def test_classic_de_default_rates():
    spec = lookup("rastrigin")
    cfg = EngineConfig(population_size=20, max_generations=30, seed=3,
                       stagnation_limit=30, stagnation_tol=0.0)
    assert fingerprint(run_classic_de(spec.evaluate, spec.space(), cfg)) == (
        "0.10727692863653004", 620,
        "a1b83d05ede7a9755f5ff13dc563a46d7ec73f7a25523804120f07b08d16f0f6",
        "6b7fb41a277197eb56ca230cf09f56bd16453dabfd85f98e0b9d92791f065719",
        "max-generations",
    )


def test_classic_de_explicit_rates():
    spec = lookup("rastrigin")
    cfg = EngineConfig(population_size=20, max_generations=30, seed=3,
                       schedule=ScheduleParams(mode="fixed", fixed_f=0.6, fixed_cr=0.3))
    assert fingerprint(run_classic_de(spec.evaluate, spec.space(), cfg)) == (
        "1.1637981847585195", 320,
        "95772967f8ce67d0e84e2bdbe8dca604c4bf578585233b91ef1d0fb8a4a7ad94",
        "d80ed888530014141358d1256befd15b4bad4fbb646df07c712f5ad756f96ee9",
        "stagnation",
    )


def test_aded_dynamic_neighborhood_with_local_search():
    spec = lookup("ackley")
    cfg = EngineConfig(
        population_size=16, max_generations=10, seed=1, neighborhood="dynamic",
        neighborhood_size=6,
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.3),
    )
    assert fingerprint(run_aded(spec.evaluate, spec.space(), cfg)) == (
        "2.6186588231169594e-07", 1953,
        "bda9abd77f263a024d23f30cab2b64b72241d19f5712690f906d76a2bd5a5580",
        "5554315abc14c2f47decf5ac0adb0b549b09a50327969e51f9a28f8897f7df5c",
        "max-generations",
    )


# Refining multi-objective runs: (benchmark, config, weights, the number of
# trials refined). When each refined trial was evaluated once more after its
# refinement, the zdt1 run made 19101 evaluations and the dltz1 run 5522:
# exactly these many more than when the refiner's values were kept.
REFINED_MO_RUNS = {
    "zdt1": ("zdt1", EngineConfig(
        population_size=20, max_generations=15, seed=2, stagnation_limit=15,
        schedule=ScheduleParams(initial_f=1.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.2),
    ), [0.5, 0.5], 61),
    "dltz1": ("dltz1", EngineConfig(
        population_size=16, max_generations=10, seed=4, stagnation_limit=10,
        schedule=ScheduleParams(initial_f=2.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=2, probability=1.0),
    ), [0.2, 0.3, 0.5], 160),
}


def run_refined_mo(name):
    benchmark, cfg, weights, _ = REFINED_MO_RUNS[name]
    spec = lookup(benchmark)
    return run_aded_mo(spec.evaluate, spec.space(), cfg, weights)


def test_aded_mo_front():
    result = run_refined_mo("zdt1")
    assert result.n_evaluations == 13502
    assert len(result.front) == 70
    assert sha(*[x for x, _ in result.front]) == (
        "473c546f0bf860ddc122715f8c503f3592904cb2d7609c48efc6ce348478cd5a")
    assert sha(*[objs for _, objs in result.front]) == (
        "b2627d746db42c62ab68b29f6a860399fd6ab2c9d5a744950be81ba9e13535f4")
    assert repr(result.best_f) == "0.375"


def mo_fingerprint(result):
    return (len(result.front), sha(*[x for x, _ in result.front]),
            sha(*[objs for _, objs in result.front]), repr(result.best_f),
            result.front_size_history.tolist(), result.terminated_by)


def test_aded_mo_three_objectives_refining_every_trial():
    result = run_refined_mo("dltz1")
    assert result.n_evaluations == 3858
    assert mo_fingerprint(result) == (
        5,
        "bebf0ff6aa4dcbbd0904715e06f6ae240953fb0087a78e7e10eae19334f69f8d",
        "4952747cbe666c2999684cf18fec38275ab44c43d9e7adde2e460e95b42fa441",
        "0.1", [5, 3, 4, 5, 5, 5, 5, 5, 5, 5], "max-generations",
    )


@pytest.mark.parametrize("name", sorted(REFINED_MO_RUNS))
def test_refined_trials_evaluated_only_by_the_refiner(name, monkeypatch):
    """A refined trial's objective vector comes from the refiner: every
    evaluation passes the one refiner call of its generation, which refines
    the pinned number of trials."""
    refined, refiner_evals = [], []

    def recording(evaluate, x0, space, budget, scalar, refine):
        def counted(points, rows):
            refiner_evals.append(len(points))
            return evaluate(points, rows)

        refined.append(int(np.count_nonzero(refine)))
        return lockstep_refine(counted, x0, space, budget, scalar, refine)

    monkeypatch.setattr(engine, "lockstep_refine", recording)
    result = run_refined_mo(name)
    assert result.n_evaluations == sum(refiner_evals)
    assert sum(refined) == REFINED_MO_RUNS[name][3]


def test_aded_mo_without_refinement():
    spec = lookup("zdt2")
    cfg = EngineConfig(
        population_size=40, max_generations=30, seed=7, stagnation_limit=30,
        schedule=ScheduleParams(initial_f=0.5, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=False),
    )
    result = run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
    assert result.n_evaluations == 1200
    assert mo_fingerprint(result) == (
        6,
        "c50d874c0f5410d20c8b26ba7951c090524fdf59ea43014b6f75d10622c40a5e",
        "b2960b40d7926724fff08bb633e3d0a5b3c35dfae93a4c83cde85edaee8710c8",
        "2.4148551460488705",
        [4, 5, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 8, 8, 8, 7, 7, 6],
        "max-generations",
    )


REPEATED_RUNS = """
import hashlib
import numpy as np
from aded import EngineConfig, LocalSearchBudget, StrategyId, metrics, run_aded, run_aded_mo, run_classic_de
from aded.benchmarks import lookup

digest = hashlib.sha256()
spec = lookup("ackley")
cfg = EngineConfig(population_size=16, max_generations=8, seed=5,
                   strategy=StrategyId.parse("currenttobest1exp"),
                   local_search=LocalSearchBudget(max_iterations=3, probability=0.3))
for runner in (run_aded, run_classic_de):
    diagnostics = []
    r = runner(spec.evaluate, spec.space(), cfg, lambda gen, x, fit: diagnostics.append(
        (metrics.diversity(x, spec.space()), metrics.fdc(x, fit, x[np.argmin(fit)]))))
    for a in (r.best_x, r.best_f_history, diagnostics, [r.n_evaluations]):
        digest.update(np.asarray(a, dtype=float).tobytes())
spec = lookup("zdt1")
r = run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
for x, objs in r.front:
    digest.update(x.tobytes() + objs.tobytes())
digest.update(np.asarray(r.front_size_history.tolist() + [r.n_evaluations], dtype=float).tobytes())
print(digest.hexdigest())
"""


def test_repeated_invocations_byte_identical():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = [
        subprocess.run([sys.executable, "-c", REPEATED_RUNS], capture_output=True, text=True,
                       check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
        for _ in range(2)
    ]
    assert len(outputs[0].strip()) == 64
    assert outputs[0] == outputs[1]


def _per_row(evaluate):
    """The objective without its ``batched`` marker: the engines call it one
    point at a time."""
    return lambda x: evaluate(x)


GRID_SCHEDULES = {
    "scheduled": ScheduleParams(),
    "fixed-explicit": ScheduleParams(mode="fixed", fixed_f=0.7, fixed_cr=0.4),
    # the one schedule whose draw comes before the initial population in
    # run_aded and after it in run_aded_mo
    "fixed-drawn": ScheduleParams(mode="fixed"),
}
GRID_REFINEMENTS = {
    "off": LocalSearchBudget(enabled=False),
    "p0.3": LocalSearchBudget(max_iterations=3, probability=0.3),
    "p1": LocalSearchBudget(max_iterations=2, probability=1.0),
}
GRID_DIGEST = "bc87041eb1c7598fe9e3f562da45cb6b184b48bf6a9d52eb46988f8710012473"
# (run_aded, run_classic_de, run_aded_mo) evaluation counts per (schedule,
# refinement), the same with batched and per-row objectives
GRID_EVALUATIONS = {
    ("scheduled", "off"): (104, 104, 56),
    ("scheduled", "p0.3"): (631, 104, 281),
    ("scheduled", "p1"): (1304, 104, 280),
    ("fixed-explicit", "off"): (104, 104, 96),
    ("fixed-explicit", "p0.3"): (640, 104, 224),
    ("fixed-explicit", "p1"): (1323, 104, 275),
    ("fixed-drawn", "off"): (104, 104, 56),
    ("fixed-drawn", "p0.3"): (528, 104, 176),
    ("fixed-drawn", "p1"): (1123, 104, 266),
}


def test_engine_grid_digest():
    """One digest over small seeded runs of every engine, with batched and
    per-row objectives, refinement off, at p = 0.3 and at p = 1, under each
    schedule; their evaluation counts pinned apart."""
    digest = hashlib.sha256()
    counts = {}
    ackley, zdt1 = lookup("ackley"), lookup("zdt1")
    for schedule_name, schedule in GRID_SCHEDULES.items():
        for refinement_name, refinement in GRID_REFINEMENTS.items():
            cfg = EngineConfig(population_size=8, max_generations=12, seed=11, stagnation_limit=7,
                               schedule=schedule, local_search=refinement)
            for batched in (True, False):
                evaluations = []
                so = ackley.evaluate if batched else _per_row(ackley.evaluate)
                for runner in (run_aded, run_classic_de):
                    r = runner(so, ackley.space(2), cfg)
                    digest.update(repr((r.best_f, r.terminated_by)).encode())
                    digest.update(r.best_x.tobytes() + r.best_f_history.tobytes())
                    evaluations.append(r.n_evaluations)
                mo = zdt1.evaluate if batched else _per_row(zdt1.evaluate)
                r = run_aded_mo(mo, zdt1.space(3), cfg, [0.3, 0.7])
                digest.update(repr((r.best_f, r.terminated_by,
                                    r.front_size_history.tolist())).encode())
                for x, objs in r.front:
                    digest.update(x.tobytes() + objs.tobytes())
                evaluations.append(r.n_evaluations)
                counts[schedule_name, refinement_name, batched] = tuple(evaluations)
    assert digest.hexdigest() == GRID_DIGEST
    assert counts == {(*key, batched): evaluations for key, evaluations in GRID_EVALUATIONS.items()
                      for batched in (True, False)}
