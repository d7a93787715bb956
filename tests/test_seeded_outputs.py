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
        "2.251213027056668", 620,
        "9b60b1835f4a927425c27dddaa3ba8e996708ab9a5785cbcd85164cd8ec698a0",
        "c59a6ad6ad76121c121f7b32bc34634e908f9f28de3d4c4c10ee593397ca0fe5",
        "max-generations",
    )


def test_classic_de_explicit_rates():
    spec = lookup("rastrigin")
    cfg = EngineConfig(population_size=20, max_generations=30, seed=3,
                       schedule=ScheduleParams(mode="fixed", fixed_f=0.6, fixed_cr=0.3))
    assert fingerprint(run_classic_de(spec.evaluate, spec.space(), cfg)) == (
        "1.0213976606676738", 440,
        "c46994ed1117c38a66224cf3cb04e8b85e1167819eb1e468ec88bceb8d007417",
        "f0065925049726119675a6d1771ef351d8e4ef35137842669f6ef300331c8080",
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
        "2.372302221331779e-08", 1617,
        "7a14a38a85a7c2041b2644740cebfeb69285334415663cf3b38cb1bc7537bc4c",
        "ff5d57bc13d8c5a2506e91bf5a8895dd1fd8694250c43f052f5ce89986059239",
        "max-generations",
    )


# Refining multi-objective runs: (benchmark, config, weights, the evaluation
# count recorded when each refined trial was evaluated once more after its
# refinement).
REFINED_MO_RUNS = {
    "zdt1": ("zdt1", EngineConfig(
        population_size=20, max_generations=15, seed=2, stagnation_limit=15,
        schedule=ScheduleParams(initial_f=1.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.2),
    ), [0.5, 0.5], 19101),
    "dltz1": ("dltz1", EngineConfig(
        population_size=16, max_generations=10, seed=4, stagnation_limit=10,
        schedule=ScheduleParams(initial_f=2.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=2, probability=1.0),
    ), [0.2, 0.3, 0.5], 5522),
}


def run_refined_mo(name):
    benchmark, cfg, weights, _ = REFINED_MO_RUNS[name]
    spec = lookup(benchmark)
    return run_aded_mo(spec.evaluate, spec.space(), cfg, weights)


def test_aded_mo_front():
    result = run_refined_mo("zdt1")
    assert result.n_evaluations == 19040
    assert len(result.front) == 70
    assert sha(*[x for x, _ in result.front]) == (
        "473c546f0bf860ddc122715f8c503f3592904cb2d7609c48efc6ce348478cd5a")
    assert sha(*[objs for _, objs in result.front]) == (
        "b2627d746db42c62ab68b29f6a860399fd6ab2c9d5a744950be81ba9e13535f4")
    assert repr(float(result.best_scalarized[1])) == "0.375"


def mo_fingerprint(result):
    return (result.n_evaluations, len(result.front), sha(*[x for x, _ in result.front]),
            sha(*[objs for _, objs in result.front]), repr(float(result.best_scalarized[1])),
            result.front_size_history, result.terminated_by)


def test_aded_mo_three_objectives_refining_every_trial():
    assert mo_fingerprint(run_refined_mo("dltz1")) == (
        5362, 5,
        "bebf0ff6aa4dcbbd0904715e06f6ae240953fb0087a78e7e10eae19334f69f8d",
        "4952747cbe666c2999684cf18fec38275ab44c43d9e7adde2e460e95b42fa441",
        "0.1", [5, 3, 4, 5, 5, 5, 5, 5, 5, 5], "max-generations",
    )


@pytest.mark.parametrize("name", sorted(REFINED_MO_RUNS))
def test_refined_trials_evaluated_only_by_the_refiner(name, monkeypatch):
    """A refined trial's objective vector comes from the refiner, so the run
    spends exactly its refined-trial count fewer evaluations than when each
    was evaluated once more, and every evaluation is a plain trial or a
    refiner call."""
    refined, refiner_evals = [], []

    def recording(evaluate, x0, *args):
        x, values, evals = lockstep_refine(evaluate, x0, *args)
        refined.append(len(x0))
        refiner_evals.append(int(evals.sum()))
        return x, values, evals

    monkeypatch.setattr(engine, "lockstep_refine", recording)
    result = run_refined_mo(name)
    n = REFINED_MO_RUNS[name][1].population_size
    plain = n * len(result.front_size_history) - sum(refined)
    assert result.n_evaluations == plain + sum(refiner_evals)
    assert REFINED_MO_RUNS[name][3] - result.n_evaluations == sum(refined) > 0


def test_aded_mo_without_refinement():
    spec = lookup("zdt2")
    cfg = EngineConfig(
        population_size=40, max_generations=30, seed=7, stagnation_limit=30,
        schedule=ScheduleParams(initial_f=0.5, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=False),
    )
    result = run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
    assert mo_fingerprint(result) == (
        1200, 6,
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
digest.update(np.asarray(r.front_size_history + [r.n_evaluations], dtype=float).tobytes())
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
GRID_DIGEST = "65c0eabd3699c1d68ee7815326f20d563c2f54ef593e3cd7566c5c1b6a0a35aa"


def test_engine_grid_digest():
    """One digest over small seeded runs of every engine, with batched and
    per-row objectives, refinement off, at p = 0.3 and at p = 1, under each
    schedule."""
    digest = hashlib.sha256()
    ackley, zdt1 = lookup("ackley"), lookup("zdt1")
    for schedule in GRID_SCHEDULES.values():
        for refinement in GRID_REFINEMENTS.values():
            cfg = EngineConfig(population_size=8, max_generations=12, seed=11, stagnation_limit=7,
                               schedule=schedule, local_search=refinement)
            for batched in (True, False):
                so = ackley.evaluate if batched else _per_row(ackley.evaluate)
                for runner in (run_aded, run_classic_de):
                    r = runner(so, ackley.space(2), cfg)
                    digest.update(repr((r.best_f, r.n_evaluations, r.terminated_by)).encode())
                    digest.update(r.best_x.tobytes() + r.best_f_history.tobytes())
                mo = zdt1.evaluate if batched else _per_row(zdt1.evaluate)
                r = run_aded_mo(mo, zdt1.space(3), cfg, [0.3, 0.7])
                digest.update(repr((float(r.best_scalarized[1]), r.n_evaluations,
                                    r.terminated_by, r.front_size_history)).encode())
                for x, objs in r.front:
                    digest.update(x.tobytes() + objs.tobytes())
    assert digest.hexdigest() == GRID_DIGEST
