"""The batch objective protocol: an objective marked ``batched = True`` gets
an (m, d) array per call, any other callable one point per call, and both
paths give the same seeded results bit for bit."""

import os
import subprocess
import sys
import traceback
from pathlib import Path

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
from aded import metrics
from aded.benchmarks import lookup
from aded.cli import main


def per_row(spec):
    """The same objective without the batch marker."""
    return lambda x: spec.evaluate(x)


def run_fields(runner, objective, space, cfg):
    """A run's outputs, with each generation's diversity and FDC recorded
    through ``on_generation``."""
    diversity, fdc = [], []

    def record(gen, x, fit):
        diversity.append(metrics.diversity(x, space))
        try:
            fdc.append(metrics.fdc(x, fit, x[np.argmin(fit)]))
        except metrics.UndefinedMetricError:
            fdc.append(float("nan"))

    result = runner(objective, space, cfg, record)
    return (repr(result.best_f), result.best_x.tobytes(), result.best_f_history.tobytes(),
            np.array(diversity).tobytes(), np.array(fdc).tobytes(), result.n_evaluations,
            result.terminated_by, result.seed)


def mo_fields(result):
    return ([(x.tobytes(), objs.tobytes()) for x, objs in result.front],
            result.best_x.tobytes(), repr(result.best_f),
            result.front_size_history.tolist(), result.n_evaluations, result.terminated_by)


REFINE = LocalSearchBudget(enabled=True, max_iterations=4, probability=0.3)


class TestPathsAgree:
    @pytest.mark.parametrize("benchmark_id", ["rastrigin", "himmelblau", "schwefel",
                                              "cross_in_tray", "goldstein_price"])
    @pytest.mark.parametrize("neighborhood", ["dynamic", "all"])
    @pytest.mark.parametrize("strategy", ["adedrandbin", "currenttobest1exp", "rand2bin",
                                          "adedneighborsexp"])
    def test_run_aded(self, benchmark_id, neighborhood, strategy):
        spec = lookup(benchmark_id)
        cfg = EngineConfig(population_size=14, max_generations=8, seed=7,
                           neighborhood=neighborhood, neighborhood_size=6,
                           strategy=StrategyId.parse(strategy), local_search=REFINE)
        assert run_fields(run_aded, spec.evaluate, spec.space(), cfg) == \
            run_fields(run_aded, per_row(spec), spec.space(), cfg)

    def test_run_aded_refining_every_trial(self):
        spec = lookup("ackley")
        cfg = EngineConfig(population_size=10, max_generations=3, seed=2,
                           local_search=LocalSearchBudget(max_iterations=5))
        assert run_fields(run_aded, spec.evaluate, spec.space(5), cfg) == \
            run_fields(run_aded, per_row(spec), spec.space(5), cfg)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_run_classic_de(self, seed):
        spec = lookup("rastrigin")
        cfg = EngineConfig(population_size=20, max_generations=15, seed=seed)
        assert run_fields(run_classic_de, spec.evaluate, spec.space(), cfg) == \
            run_fields(run_classic_de, per_row(spec), spec.space(), cfg)

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

    def test_first_call_of_each_generation_holds_every_trial(self):
        log = CallLog()
        ends = []
        cfg = EngineConfig(population_size=10, max_generations=6, seed=2,
                           stagnation_limit=6, stagnation_tol=0.0,
                           local_search=LocalSearchBudget(max_iterations=3, probability=0.5))
        result = run_aded(log, SearchSpace.cube(-1.0, 1.0, 3), cfg,
                          on_generation=lambda gen, x, fit: ends.append(len(log.shapes)))
        starts = [1] + ends[:-1]                 # call 0 is the initial population
        assert [log.shapes[i] for i in starts] == [(10, 3)] * 6
        # every generation refines some trials, so its later calls are refinement's
        assert all(end - start > 1 for start, end in zip(starts, ends))
        assert result.n_evaluations == sum(shape[0] for shape in log.shapes)

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
        # start point and line-search trial points come as one-row batches,
        # each gradient's 2d probes as one batch
        assert evals == sum(s[0] for s in log.shapes)
        assert log.shapes[:2] == [(1, 4), (8, 4)]
        assert set(log.shapes) == {(1, 4), (8, 4)}

    def test_gradient_paths_agree(self):
        spec = lookup("rosenbrock")
        x = np.array([0.3, -1.2, 2.0, 0.7])
        space = spec.space(4)
        batched = finite_difference_gradient(spec.evaluate, x, space=space)
        rows = finite_difference_gradient(per_row(spec), x, space=space)
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
        # every trial is refined: after the initial population and the POP
        # start points, the next evaluations are the first gradients' probes,
        # individual 0's first; the fault starts at its second probe
        errors = [failure(Faulty(mode, 2 * POP + 1, batched=b),
                          LocalSearchBudget(max_iterations=5))
                  for b in (True, False)]
        assert str(errors[0]) == str(errors[1])
        assert "generation 0, individual 0" in str(errors[0])
        for error in errors:
            frames = {f.name for f in traceback.extract_tb(error.__traceback__)}
            assert "finite_difference_gradient" in frames


class FailsAt:
    """Sphere, or the two objectives (|x|^2, |x - 1|^2), that raises at one
    given point and records every point it is asked for."""

    def __init__(self, point, multi, batched=True):
        self.point = point
        self.multi = multi
        self.batched = batched
        self.seen = []

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        points = np.atleast_2d(x)
        self.seen.extend(points.copy())
        if self.point is not None and (points == self.point).all(axis=1).any():
            raise ValueError("injected fault")
        values = np.sum(points * points, axis=-1)
        if self.multi:
            values = np.stack([values, np.sum((points - 1.0) ** 2, axis=-1)], axis=-1)
        return values if x.ndim == 2 else values[0]


@pytest.mark.parametrize("multi", [False, True])
def test_fault_on_one_refinement_probe_names_its_individual(multi):
    cfg = EngineConfig(population_size=POP, max_generations=3, seed=5, stagnation_limit=3,
                       local_search=LocalSearchBudget(max_iterations=5))

    def run(objective):
        if multi:
            return run_aded_mo(objective, SPACE, cfg, [0.5, 0.5])
        return run_aded(objective, SPACE, cfg)

    log = FailsAt(None, multi)
    run(log)
    # generation 0 refines every trial: run_aded first evaluates the initial
    # population, then both engines evaluate the POP start points and then
    # the 2d = 4 gradient probes of each trial, individual after individual
    individual = 3
    target = log.seen[POP * (1 if multi else 2) + 4 * individual + 1]
    assert sum(np.array_equal(p, target) for p in log.seen) == 1
    messages = set()
    for batched in (True, False):
        with pytest.raises(DomainError) as info:
            run(FailsAt(target, multi, batched))
        messages.add(str(info.value))
    assert messages == {f"objective failed at generation 0, individual {individual}: "
                        "injected fault"}


REFINING_RUNS = """
import sys
from aded import EngineConfig, LocalSearchBudget, run_aded, run_aded_mo
from aded.benchmarks import lookup

cfg = EngineConfig(population_size=10, max_generations=2, stagnation_limit=2,
                   local_search=LocalSearchBudget(max_iterations=3))
spec = lookup("rastrigin")
single = run_aded(spec.evaluate, spec.space(), cfg).n_evaluations
spec = lookup("zdt1")
multi = run_aded_mo(spec.evaluate, spec.space(3), cfg, [0.5, 0.5]).n_evaluations
print(single > 30, multi > 20, "scipy.optimize" in sys.modules)
"""


def test_refining_runs_leave_scipy_optimize_out():
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", REFINING_RUNS], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["True", "True", "False"]


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
