"""Run invariants of both engines over random small configurations: runs
stay in the box, best-so-far never worsens, evaluation counts are exact, no
gradient probe re-evaluates its own row's point, and a run that used its
whole budget records every generation. The refiner that evaluates each
generation refines only the rows it is asked to."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from aded import (
    EngineConfig,
    LocalSearchBudget,
    ScheduleParams,
    StrategyId,
    clip_to_bounds,
    local_refine,
    run_aded,
    run_aded_mo,
    scalarize,
)
from aded import variation
from aded.benchmarks import lookup
from aded.core import evaluate_rows
from aded.variation import lockstep_refine


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


@contextmanager
def probes_checked():
    """The refiner's gradients, checked: no batch of probes they send holds
    the point of the row it belongs to, whose value the refiner holds."""
    gradient = variation.finite_difference_gradient

    def checked(objective, x, *args, **kwargs):
        def probes(points, owners):
            assert not (points == x[owners]).all(axis=1).any()
            return objective(points, owners)

        return gradient(probes, x, *args, **kwargs)

    with mock.patch.object(variation, "finite_difference_gradient", checked):
        yield


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
    with probes_checked():
        result = run_aded(objective, space, cfg)
    generations = result.generations_executed
    assert space.contains(result.best_x)
    assert np.all(np.diff(result.best_f_history) <= 0.0)
    assert result.best_f == result.best_f_history[-1]
    check_count(result.n_evaluations, objective, cfg, cfg.population_size * (generations + 1))
    check_generations(result.terminated_by, cfg, generations)
    assert result.seed == cfg.seed
    assert result.wall_seconds > 0


@settings(max_examples=30, deadline=None)
@given(cfg=CONFIGS, dim=st.integers(2, 4), batched=st.booleans(),
       weight=st.floats(0.0, 1.0))
def test_run_aded_mo_invariants(cfg, dim, batched, weight):
    spec = lookup("zdt1")
    space = spec.space(dim)
    objective = counted(spec.evaluate, batched)
    weights = [weight, 1.0 - weight]
    with probes_checked():
        result = run_aded_mo(objective, space, cfg, weights)
    generations = result.generations_executed
    assert generations == len(result.front_size_history)
    assert all(space.contains(x) for x, _ in result.front)
    assert space.contains(result.best_x)
    # the scalarized best is a front member with the least weighted sum, and
    # no worse than the best-so-far the stop read: a point that dominates
    # another never has a larger weighted sum under non-negative weights
    values = [scalarize(objs, weights) for _, objs in result.front]
    assert result.best_f == min(values)
    assert any((x == result.best_x).all() and value == result.best_f
               for (x, _), value in zip(result.front, values))
    assert result.best_f <= result.best_f_history[-1]
    check_count(result.n_evaluations, objective, cfg, cfg.population_size * generations)
    check_generations(result.terminated_by, cfg, generations)
    assert result.seed == cfg.seed
    assert result.wall_seconds > 0


@settings(max_examples=40, deadline=None)
@given(benchmark_id=st.sampled_from(["sphere", "rastrigin", "ackley"]), dim=st.integers(1, 3),
       batched=st.booleans(), refine=st.lists(st.booleans(), min_size=1, max_size=6),
       iterations=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_lockstep_refine_refines_the_flagged_rows_only(benchmark_id, dim, batched, refine,
                                                        iterations, seed):
    spec = lookup(benchmark_id)
    space = spec.space(dim)
    objective = counted(spec.evaluate, batched)
    budget = LocalSearchBudget(max_iterations=iterations)
    refine = np.array(refine)
    m = refine.size
    # starts in a box half as wide again on each side, so that some are clipped
    x0 = np.random.default_rng(seed).uniform(space.lows - space.widths / 2,
                                             space.highs + space.widths / 2, size=(m, dim))
    evals = np.zeros(m, dtype=np.int64)

    def evaluate(points, rows):
        evals[:] += np.bincount(rows, minlength=m)
        return evaluate_rows(objective, points)

    x, values = lockstep_refine(evaluate, x0, space, budget, refine=refine)
    start = clip_to_bounds(x0, space)
    start_values = spec.evaluate(start)
    assert evals.sum() == objective.points
    assert values.tobytes() == spec.evaluate(x).tobytes()
    for r in range(m):
        if refine[r]:
            x_alone, _, evals_alone = local_refine(spec.evaluate, x0[r], space, budget)
            assert space.contains(x[r])
            assert values[r] <= start_values[r]
            assert x[r].tobytes() == x_alone.tobytes()
            assert evals[r] == evals_alone
        else:
            assert x[r].tobytes() == start[r].tobytes()
            assert values[r] == start_values[r]
            assert evals[r] == 1
