"""Run invariants of both engines over random small configurations: runs
stay in the box, best-so-far never worsens, evaluation counts are exact, and
a run that used its whole budget records every generation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aded import EngineConfig, LocalSearchBudget, ScheduleParams, StrategyId, run_aded, run_aded_mo
from aded.benchmarks import lookup


def counted(evaluate, batched):
    """``evaluate`` that counts the points it receives, batched or one at a
    time."""
    def objective(x):
        objective.points += len(np.atleast_2d(x))
        return evaluate(x)

    objective.points = 0
    objective.batched = batched
    return objective


REFINEMENTS = st.one_of(
    st.just(LocalSearchBudget(enabled=False)),
    st.builds(LocalSearchBudget, max_iterations=st.integers(1, 3),
              probability=st.sampled_from([0.3, 1.0])),
)
SCHEDULES = st.one_of(
    st.just(ScheduleParams()),
    st.just(ScheduleParams(mode="fixed")),
    st.builds(ScheduleParams, mode=st.just("fixed"), fixed_f=st.floats(0.1, 2.0),
              fixed_cr=st.floats(0.0, 1.0)),
)
CONFIGS = st.builds(
    EngineConfig,
    population_size=st.integers(6, 12),
    max_generations=st.integers(1, 8),
    schedule=SCHEDULES,
    strategy=st.sampled_from(["adedrandbin", "rand1exp", "currenttobest1bin"]).map(
        StrategyId.parse),
    neighborhood=st.sampled_from(["dynamic", "all"]),
    local_search=REFINEMENTS,
    stagnation_limit=st.integers(2, 5),
    seed=st.integers(0, 2**16),
)


def check_count(n_evaluations, objective, cfg, plain_count):
    if cfg.local_search.enabled:
        assert n_evaluations == objective.points
    else:
        assert n_evaluations == objective.points == plain_count


def check_generations(terminated_by, cfg, generations):
    if terminated_by == "max-generations":
        assert generations == cfg.max_generations
    else:
        assert terminated_by == "stagnation"
        assert cfg.stagnation_limit <= generations <= cfg.max_generations


@settings(max_examples=40, deadline=None)
@given(cfg=CONFIGS, benchmark_id=st.sampled_from(["sphere", "rastrigin", "ackley"]),
       dim=st.integers(1, 3), batched=st.booleans())
def test_run_aded_invariants(cfg, benchmark_id, dim, batched):
    spec = lookup(benchmark_id)
    space = spec.space(dim)
    objective = counted(spec.evaluate, batched)
    result = run_aded(objective, space, cfg)
    generations = result.generations_executed
    assert space.contains(result.best_x)
    assert np.all(np.diff(result.best_f_history) <= 0.0)
    assert result.best_f == result.best_f_history[-1]
    check_count(result.n_evaluations, objective, cfg, cfg.population_size * (generations + 1))
    check_generations(result.terminated_by, cfg, generations)


@settings(max_examples=30, deadline=None)
@given(cfg=CONFIGS, dim=st.integers(2, 4), batched=st.booleans(),
       weight=st.floats(0.0, 1.0))
def test_run_aded_mo_invariants(cfg, dim, batched, weight):
    spec = lookup("zdt1")
    space = spec.space(dim)
    objective = counted(spec.evaluate, batched)
    result = run_aded_mo(objective, space, cfg, [weight, 1.0 - weight])
    generations = len(result.front_size_history)
    assert all(space.contains(x) for x, _ in result.front)
    assert space.contains(result.best_scalarized[0])
    check_count(result.n_evaluations, objective, cfg, cfg.population_size * generations)
    check_generations(result.terminated_by, cfg, generations)
