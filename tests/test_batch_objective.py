"""The batch objective protocol: an objective marked ``batched = True`` gets
an (m, d) array per call, any other callable one point per call, and both
paths give the same seeded results bit for bit."""

import traceback

import numpy as np
import pytest

from aded import (
    DomainError,
    EngineConfig,
    LocalSearchBudget,
    RngStream,
    ScheduleParams,
    SearchSpace,
    StrategyId,
    finite_difference_gradient,
    init_population,
    local_refine,
    run_aded,
    run_aded_mo,
    run_classic_de,
)
from aded.benchmarks import lookup
from aded.cli import main


def per_row(spec):
    """The same objective without the batch marker."""
    return lambda x: spec.evaluate(x)


def run_fields(result):
    return (repr(result.best_f), result.best_x.tobytes(), result.best_f_history.tobytes(),
            result.diversity_history.tobytes(), result.fdc_history.tobytes(),
            result.n_evaluations,
            result.terminated_by, result.seed)


def mo_fields(result):
    return ([(x.tobytes(), objs.tobytes()) for x, objs in result.front],
            result.best_scalarized[0].tobytes(), repr(float(result.best_scalarized[1])),
            result.front_size_history, result.n_evaluations, result.terminated_by)


REFINE = LocalSearchBudget(enabled=True, max_iterations=4, probability=0.3)


class TestPathsAgree:
    @pytest.mark.parametrize("benchmark_id", ["rastrigin", "himmelblau", "schwefel"])
    @pytest.mark.parametrize("neighborhood", ["dynamic", "all"])
    @pytest.mark.parametrize("strategy", ["adedrandbin", "currenttobest1exp", "rand2bin",
                                          "adedneighborsexp"])
    def test_run_aded(self, benchmark_id, neighborhood, strategy):
        spec = lookup(benchmark_id)
        cfg = EngineConfig(population_size=14, max_generations=8, seed=7,
                           neighborhood=neighborhood, neighborhood_size=6,
                           strategy=StrategyId.parse(strategy), local_search=REFINE)
        batched = run_aded(spec.evaluate, spec.space(), cfg)
        rows = run_aded(per_row(spec), spec.space(), cfg)
        assert run_fields(batched) == run_fields(rows)

    def test_run_aded_refining_every_trial(self):
        spec = lookup("ackley")
        cfg = EngineConfig(population_size=10, max_generations=3, seed=2,
                           local_search=LocalSearchBudget(max_iterations=5))
        assert run_fields(run_aded(spec.evaluate, spec.space(5), cfg)) == \
            run_fields(run_aded(per_row(spec), spec.space(5), cfg))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_classic_de(self, seed):
        spec = lookup("rastrigin")
        cfg = EngineConfig(population_size=20, max_generations=15, seed=seed)
        assert run_fields(run_classic_de(spec.evaluate, spec.space(), cfg)) == \
            run_fields(run_classic_de(per_row(spec), spec.space(), cfg))

    @pytest.mark.parametrize("benchmark_id", ["zdt1", "dltz1", "mo_demo"])
    def test_run_aded_mo(self, benchmark_id):
        spec = lookup(benchmark_id)
        cfg = EngineConfig(population_size=16, max_generations=6, seed=3, stagnation_limit=6,
                           schedule=ScheduleParams(initial_f=1.0, initial_cr=0.9),
                           local_search=REFINE)
        weights = np.full(spec.n_objectives, 1.0 / spec.n_objectives)
        assert mo_fields(run_aded_mo(spec.evaluate, spec.space(), cfg, weights)) == \
            mo_fields(run_aded_mo(per_row(spec), spec.space(), cfg, weights))


class CallLog:
    """Batched sphere that records the shape of every call."""

    batched = True

    def __init__(self):
        self.shapes = []

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        self.shapes.append(x.shape)
        return np.sum(x * x, axis=-1)


class TestOneCallPerBatch:
    def test_one_call_per_generation_without_refinement(self):
        log = CallLog()
        cfg = EngineConfig(population_size=12, max_generations=9, seed=0,
                           stagnation_limit=9, stagnation_tol=0.0,
                           local_search=LocalSearchBudget(enabled=False))
        result = run_aded(log, SearchSpace.cube(-1.0, 1.0, 3), cfg)
        assert log.shapes == [(12, 3)] * 10
        assert result.n_evaluations == 120

    def test_one_call_per_gradient(self):
        log = CallLog()
        grad = finite_difference_gradient(log, np.array([0.5, -1.0, 2.0]))
        assert log.shapes == [(6, 3)]
        assert np.allclose(grad, [1.0, -2.0, 4.0], atol=1e-6)

    def test_refinement_counts_every_probe(self):
        log = CallLog()
        space = SearchSpace.cube(-5.0, 5.0, 4)
        _, _, evals = local_refine(log, [1.0, 2.0, -3.0, 0.5], space,
                                   LocalSearchBudget(max_iterations=5))
        assert evals == sum(1 if len(s) == 1 else s[0] for s in log.shapes)
        gradients = [s for s in log.shapes if len(s) == 2]
        assert gradients and all(s == (8, 4) for s in gradients)

    def test_gradient_paths_agree(self):
        spec = lookup("rosenbrock")
        x = np.array([0.3, -1.2, 2.0, 0.7])
        space = spec.space(4)
        batched = finite_difference_gradient(spec.evaluate, x, lows=space.lows, highs=space.highs)
        rows = finite_difference_gradient(per_row(spec), x, lows=space.lows, highs=space.highs)
        assert batched.tobytes() == rows.tobytes()


class Faulty:
    """Sphere that fails once ``after`` points have been evaluated, at every
    point whose first coordinate exceeds ``above``: it raises, or returns NaN
    there. ``batched`` chooses the path the engine takes."""

    def __init__(self, mode, after, above=-np.inf, batched=True):
        self.mode = mode
        self.after = after
        self.above = above
        self.batched = batched
        self.seen = 0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        points = np.atleast_2d(x)
        values = np.sum(points * points, axis=-1)
        for r in range(len(points)):
            self.seen += 1
            if self.seen > self.after and points[r, 0] > self.above:
                if self.mode == "raise":
                    raise ValueError("injected fault")
                values[r] = np.nan
        return values if x.ndim == 2 else float(values[0])


POP = 10
SPACE = SearchSpace.cube(-1.0, 1.0, 2)


def fault_cfg(local_search):
    return EngineConfig(population_size=POP, max_generations=4, seed=5,
                        local_search=local_search)


def failure(objective, local_search):
    with pytest.raises(DomainError) as info:
        run_aded(objective, SPACE, fault_cfg(local_search))
    return info.value


@pytest.mark.parametrize("mode", ["raise", "nan"])
class TestFaultInjection:
    def test_at_initialization(self, mode):
        expected = int(np.argmax(init_population(SPACE, POP, RngStream(5))[:, 0] > 0.0))
        messages = {str(failure(Faulty(mode, 0, above=0.0, batched=b),
                                LocalSearchBudget(enabled=False)))
                    for b in (True, False)}
        assert len(messages) == 1
        assert f"initial member {expected}" in messages.pop()

    def test_in_a_plain_trial(self, mode):
        messages = {str(failure(Faulty(mode, POP, above=0.0, batched=b),
                                LocalSearchBudget(enabled=False)))
                    for b in (True, False)}
        assert len(messages) == 1
        message = messages.pop()
        assert "generation 0, individual " in message
        assert ("injected fault" if mode == "raise" else "returned nan") in message

    def test_inside_refinement(self, mode):
        # after the start point (and SciPy's first evaluation of it), the
        # next evaluation is the first gradient's probe batch
        errors = [failure(Faulty(mode, POP + 2, batched=b), LocalSearchBudget(max_iterations=5))
                  for b in (True, False)]
        assert str(errors[0]) == str(errors[1])
        assert "generation 0, individual 0" in str(errors[0])
        for error in errors:
            frames = {f.name for f in traceback.extract_tb(error.__traceback__)}
            assert "finite_difference_gradient" in frames


@pytest.mark.parametrize("mode", ["raise", "nan"])
def test_cli_objective_fault_exits_three(mode, tmp_path, capsys, monkeypatch):
    from aded import benchmarks

    faulty = Faulty(mode, POP, above=0.0)
    spec = benchmarks.BenchmarkSpec("faulty", faulty, "fixed-2d", ((-1.0, 1.0), (-1.0, 1.0)))
    monkeypatch.setitem(benchmarks.CATALOG, "faulty", spec)
    code = main(["run", "--benchmark", "faulty", "--pop", str(POP), "--gens", "3", "--runs", "1",
                 "--local-search", "off", "--out", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "runtime failure" in err and "generation 0, individual " in err
