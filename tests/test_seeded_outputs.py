"""Seeded outputs are the contract: these runs are pinned bit for bit.

A change that fails here has altered the RNG draw order or the arithmetic
of an engine, and so every seeded result; such a change must re-pin these
values and say so.
"""

import hashlib

import numpy as np

from aded import (
    EngineConfig,
    LocalSearchBudget,
    ScheduleParams,
    run_aded,
    run_aded_mo,
    run_classic_de,
)
from aded.benchmarks import lookup


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
        "0.3095166554923914", 620,
        "26b1fafde86f7683bcf2b2afbfd46c07c9d4d964dfa5901e68241c2d079391fa",
        "044191d0fd810074ca5fcb7f2995414833a4d8ee02acc4b4e76d3590e5db4785",
        "max-generations",
    )


def test_classic_de_explicit_rates():
    spec = lookup("rastrigin")
    cfg = EngineConfig(population_size=20, max_generations=30, seed=3,
                       schedule=ScheduleParams(mode="fixed", fixed_f=0.6, fixed_cr=0.3))
    assert fingerprint(run_classic_de(spec.evaluate, spec.space(), cfg)) == (
        "0.3329067985874161", 240,
        "0a7739757db96308e1c05b15e2fe7e58593fc58e2e59b77ab102087b6bea32b7",
        "9baa87c2de8ac16e452c728b8c8f8b38b764c57098fbd33f9caad4ca691ab2c3",
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
        "0.0008593829709053757", 2766,
        "f7c128db8a843e0d1145b6178d3e22c9693f8fedd8fa4be7b8f3a46ded20d5d5",
        "b8a76f0e658ed3355bba237a4bae6d150f8f6dd48e7d1b5b89c73b4c53654596",
        "max-generations",
    )


def test_aded_mo_front():
    spec = lookup("zdt1")
    cfg = EngineConfig(
        population_size=20, max_generations=15, seed=2, stagnation_limit=15,
        schedule=ScheduleParams(initial_f=1.0, initial_cr=0.9),
        local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.2),
    )
    result = run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
    assert result.n_evaluations == 24758
    assert len(result.front) == 65
    assert sha(*[x for x, _ in result.front]) == (
        "32abb2385a48c417b04e3666d858c6676f88ce44fcc948dcc4040a06d8ca55bf")
    assert sha(*[objs for _, objs in result.front]) == (
        "c531775131b2a4cb4b81d02a9ae54e46b58286d3ce1ec6d0de27e30913e7c43d")
    assert repr(float(result.best_scalarized[1])) == "0.3750000000051675"
