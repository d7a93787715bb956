import numpy as np
import pytest
from scipy.stats import chi2

from aded import (
    ConfigError,
    EngineConfig,
    LocalSearchBudget,
    RngStream,
    ScheduleParams,
    SearchSpace,
    StrategyId,
    convergence_rate,
    has_converged,
    init_population,
    run_aded,
    run_classic_de,
)
from aded import engine, metrics
from aded.benchmarks import lookup


def small_cfg(**kwargs):
    defaults = dict(population_size=16, max_generations=12, seed=0)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


class TestEngineConfig:
    def test_defaults_valid(self):
        cfg = EngineConfig()
        assert cfg.population_size == 100
        assert cfg.strategy.name == "adedrandbin"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(population_size=5),
            dict(max_generations=0),
            dict(stagnation_limit=1),
            dict(stagnation_tol=-1.0),
            dict(neighborhood="ring"),
            dict(population_size=10, neighborhood_size=10),
            dict(stagnation_tol=float("nan")),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EngineConfig(**kwargs)


def chi_square_uniform(counts) -> bool:
    """Whether counts over equally likely cells pass a chi-square test at 0.1%."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    return stat < chi2.ppf(0.999, counts.size - 1)


class TestGenerationDraws:
    """Each generation's random draws, made as arrays for a block of
    generations at a time."""

    @pytest.mark.parametrize("strategy", ["adedrandbin", "rand2exp", "currenttobest1bin"])
    def test_bases_distinct_and_non_self(self, strategy):
        n = 40
        cfg = small_cfg(population_size=n, neighborhood_size=7,
                        strategy=StrategyId.parse(strategy))
        draws = engine._draw_trials(cfg, n, 3, RngStream(11))
        for _ in range(20):
            bases = next(draws)[1]
            assert bases.shape == (n, cfg.strategy.index_count)
            for i in range(n):
                assert len(set(bases[i].tolist())) == bases.shape[1]
                assert i not in bases[i]
                assert bases[i].min() >= 0 and bases[i].max() < n

    @pytest.mark.parametrize("strategy, seed, size", [("adedrandbin", 0, 3), ("rand1bin", 1, 9),
                                                      ("rand2exp", 2, 5),
                                                      ("currenttobest1bin", 3, 19)])
    def test_dynamic_runs_equal_all_runs(self, strategy, seed, size):
        spec = lookup("rastrigin")
        results = [
            run_aded(spec.evaluate, spec.space(),
                     small_cfg(population_size=20, seed=seed, neighborhood=neighborhood,
                               neighborhood_size=size, strategy=StrategyId.parse(strategy),
                               local_search=LocalSearchBudget(max_iterations=2,
                                                              probability=0.3)))
            for neighborhood in ("dynamic", "all")
        ]
        dynamic, every = results
        assert dynamic.best_x.tobytes() == every.best_x.tobytes()
        assert dynamic.best_f == every.best_f
        assert dynamic.best_f_history.tobytes() == every.best_f_history.tobytes()
        assert dynamic.n_evaluations == every.n_evaluations
        assert dynamic.terminated_by == every.terminated_by

    @pytest.mark.parametrize("neighborhood", ["dynamic", "all"])
    def test_bases_uniform_in_every_position(self, neighborhood):
        # pooled over members: each base position holds each offset
        # (base - member) mod n in 1..n-1 with equal probability
        n, reps = 30, 300
        cfg = small_cfg(population_size=n, neighborhood=neighborhood, neighborhood_size=6,
                        strategy=StrategyId.parse("adedrandbin"))
        draws = engine._draw_trials(cfg, n, 2, RngStream(23))
        counts = np.zeros((3, n))
        for _ in range(reps):
            bases = next(draws)[1]
            offsets = (bases - np.arange(n)[:, None]) % n
            for j in range(3):
                counts[j] += np.bincount(offsets[:, j], minlength=n)
        assert (counts[:, 0] == 0).all()
        for j in range(3):
            assert chi_square_uniform(counts[j, 1:]), counts[j]

    @pytest.mark.parametrize("runner", [run_aded, run_classic_de])
    def test_rng_calls_independent_of_population_size(self, monkeypatch, runner):
        calls = []

        class Counted(RngStream):
            def random(self, size=None):
                calls.append("random")
                return super().random(size)

            def integers(self, low, high=None, size=None):
                calls.append("integers")
                return super().integers(low, high, size)

            def uniform(self, low=0.0, high=1.0, size=None):
                calls.append("uniform")
                return super().uniform(low, high, size)

        monkeypatch.setattr(engine, "RngStream", Counted)
        spec = lookup("rastrigin")
        counts = []
        for n in (10, 60):
            calls.clear()
            cfg = small_cfg(population_size=n, max_generations=5, stagnation_limit=6,
                            strategy=StrategyId.parse("currenttobest1exp"), neighborhood_size=6,
                            local_search=LocalSearchBudget(max_iterations=1, probability=0.5))
            runner(spec.evaluate, spec.space(), cfg)
            counts.append(list(calls))
        assert counts[0] == counts[1]

    def test_k_coefficients_only_for_current_to_strategies(self):
        for name, drawn in (("currenttorand1bin", True), ("rand1bin", False)):
            cfg = small_cfg(strategy=StrategyId.parse(name))
            draws = engine._draw_trials(cfg, 16, 2, RngStream(3))
            for _ in range(20):
                k = next(draws)[0]
                assert bool(k.any()) == drawn
                assert ((k >= 0.0) & (k < 1.0)).all()

    def test_rng_calls_come_per_block(self, monkeypatch):
        calls = []

        class Counted(RngStream):
            def random(self, size=None):
                calls.append("random")
                return super().random(size)

            def integers(self, low, high=None, size=None):
                calls.append("integers")
                return super().integers(low, high, size)

            def uniform(self, low=0.0, high=1.0, size=None):
                calls.append("uniform")
                return super().uniform(low, high, size)

        monkeypatch.setattr(engine, "RngStream", Counted)
        spec = lookup("rastrigin")
        lists = {}
        for generations in (1, engine.DRAW_BLOCK, engine.DRAW_BLOCK + 1):
            calls.clear()
            cfg = small_cfg(population_size=10, max_generations=generations, stagnation_limit=50,
                            strategy=StrategyId.parse("currenttobest1exp"), neighborhood_size=6,
                            local_search=LocalSearchBudget(max_iterations=1, probability=0.5))
            run_aded(spec.evaluate, spec.space(), cfg)
            lists[generations] = list(calls)
        one, block, more = lists.values()
        # a block: k coefficients, bases (2 calls), crossover (2), refinement coins
        block_calls = ["random", "integers", "integers", "integers", "random", "random"]
        assert one == block and one[-6:] == block_calls
        assert more == one + block_calls

    @pytest.mark.parametrize("n, d, generations", [(300, 2, 16), (300, 20, 10), (100, 700, 1)])
    def test_block_holds_at_most_2_16_uniforms(self, n, d, generations):
        cfg = small_cfg(population_size=n, local_search=LocalSearchBudget(enabled=False))
        uniforms = next(engine._draw_trials(cfg, n, d, RngStream(0)))[3]
        assert uniforms.shape == (n, d)
        assert uniforms.base.shape == (generations * n, d)

    def test_draws_independent_of_generation_budget(self):
        spec = lookup("rastrigin")
        short, long = (
            run_classic_de(spec.evaluate, spec.space(),
                           small_cfg(population_size=12, max_generations=generations,
                                     stagnation_limit=100, seed=5))
            for generations in (20, 45)
        )
        assert short.generations_executed == 20 and long.generations_executed == 45
        assert short.best_f_history.tobytes() == long.best_f_history[:20].tobytes()


class TestCrowdingSelect:
    def test_tie_goes_to_incumbent(self):
        # with a constant objective every trial ties its target, so the
        # population never moves off its initial sample
        space = SearchSpace.cube(-1.0, 1.0, 3)
        cfg = small_cfg(seed=4, local_search=LocalSearchBudget(enabled=False))
        initial = init_population(space, cfg.population_size, RngStream(cfg.seed))
        for runner in (run_aded, run_classic_de):
            result = runner(lambda x: 1.5, space, cfg)
            assert result.best_x.tobytes() == initial[0].tobytes(), runner.__name__
            assert result.best_f == 1.5


class TestHasConverged:
    def test_flat_tail_converges(self):
        assert has_converged([5.0, 3.0, 3.0, 3.0], 3, 0.0)

    def test_short_history_does_not(self):
        assert not has_converged([5.0, 3.0], 3, 0.0)
        for history in ([], [2.0], [2.0] * 9):
            assert not has_converged(history, 10, 0.0)
            assert not has_converged(np.asarray(history), 10, np.inf)

    def test_tolerance_band(self):
        assert has_converged([5.0, 3.0, 3.0, 2.9999], 3, 1e-2)
        assert not has_converged([5.0, 3.0, 3.0, 2.9999], 3, 1e-6)

    def test_limit_validation(self):
        with pytest.raises(ConfigError):
            has_converged([1.0, 1.0], 1, 0.0)

    def test_matches_the_whole_history_formula(self):
        # the formula over the whole history converted to an array; the
        # function converts only the window
        def reference(history, limit, tol):
            h = np.asarray(history, dtype=float)
            if h.size < limit:
                return False
            window = h[-limit:]
            return bool(np.all(np.abs(window - window[-1]) <= tol))

        data = np.random.default_rng(0)
        answers = set()
        for _ in range(400):
            # few distinct values, so that flat windows are common
            history = data.choice([1.0, 1.0, 1.0, 1.5, 1.0 + 1e-13], size=data.integers(0, 16))
            if data.random() < 0.2 and history.size:
                history[data.integers(history.size)] = np.nan
            limit = int(data.integers(2, 12))
            for tol in (0.0, 1e-12, 0.5):
                expected = reference(history, limit, tol)
                answers.add(expected)
                for given in (history.tolist(), tuple(history.tolist()), history):
                    assert has_converged(given, limit, tol) is expected
        assert answers == {False, True}


class TestRunAded:
    def test_sphere_reaches_near_zero(self):
        spec = lookup("sphere")
        cfg = EngineConfig(population_size=50, max_generations=100, seed=1)
        result = run_aded(spec.evaluate, spec.space(), cfg)
        assert result.best_f <= 1e-8

    def test_sinusoidal_headline(self):
        spec = lookup("sinusoidal")
        cfg = EngineConfig(population_size=50, max_generations=100, seed=3)
        result = run_aded(spec.evaluate, spec.space(), cfg)
        assert result.best_f == pytest.approx(-2.0, abs=1e-3)

    def test_deterministic_given_seed(self):
        spec = lookup("rastrigin")
        cfg = small_cfg(seed=5)
        a = run_aded(spec.evaluate, spec.space(), cfg)
        b = run_aded(spec.evaluate, spec.space(), cfg)
        assert (a.best_x == b.best_x).all()
        assert a.best_f == b.best_f
        assert a.best_f_history.tolist() == b.best_f_history.tolist()
        assert a.n_evaluations == b.n_evaluations

    @pytest.mark.parametrize("benchmark_id", ["sphere", "rastrigin", "mccormick"])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_best_history_non_increasing(self, benchmark_id, seed):
        spec = lookup(benchmark_id)
        result = run_aded(spec.evaluate, spec.space(), small_cfg(seed=seed))
        h = result.best_f_history
        assert (np.diff(h) <= 0).all()
        assert result.best_f == h.min() == h[-1]

    def test_evaluation_count_audited(self):
        spec = lookup("booth")
        calls = 0

        def audited(x):
            nonlocal calls
            calls += 1
            return spec.evaluate(x)

        result = run_aded(audited, spec.space(), small_cfg(seed=2))
        assert result.n_evaluations == calls

    def test_histories_aligned_with_generations(self):
        spec = lookup("matyas")
        diagnostics = []
        result = run_aded(spec.evaluate, spec.space(), small_cfg(seed=1),
                          lambda gen, x, fit: diagnostics.append(
                              (metrics.diversity(x, spec.space()),
                               metrics.fdc(x, fit, x[np.argmin(fit)]))))
        assert len(diagnostics) == result.generations_executed
        assert (convergence_rate(result.best_f_history) <= 0).all()

    def test_all_neighbors_mode(self):
        spec = lookup("sphere")
        cfg = small_cfg(neighborhood="all", seed=7)
        result = run_aded(spec.evaluate, spec.space(), cfg)
        assert result.best_f <= 1e-6

    def test_fixed_mode_runs(self):
        spec = lookup("sphere")
        cfg = small_cfg(schedule=ScheduleParams(mode="fixed", fixed_f=0.9, fixed_cr=0.5))
        result = run_aded(spec.evaluate, spec.space(), cfg)
        assert np.isfinite(result.best_f)

    @pytest.mark.parametrize("strategy,fixed_f,fixed_cr", [
        pytest.param("rand1bin", 0.5, 1.5, id="rand1bin"),
        pytest.param("rand1exp", 0.5, 1.5, id="rand1exp"),
        pytest.param("rand1bin", 0.5, -0.1, id="cr-negative"),
        pytest.param("rand1bin", 0.5, float("nan"), id="cr-nan"),
        pytest.param("rand1bin", -3.0, 0.5, id="f-negative"),
        pytest.param("rand1bin", 0.0, 0.5, id="f-zero"),
        pytest.param("rand1bin", 2.5, 0.5, id="f-above-two"),
        pytest.param("rand1bin", float("nan"), 0.5, id="f-nan"),
        pytest.param("rand1bin", float("inf"), 0.5, id="f-inf"),
    ])
    def test_out_of_range_fixed_cr_rejected(self, strategy, fixed_f, fixed_cr):
        # the pair is checked when the schedule is built, before any run
        with pytest.raises(ConfigError, match=r"fixed_(f|cr) must lie in"):
            small_cfg(strategy=StrategyId.parse(strategy),
                      schedule=ScheduleParams(mode="fixed", fixed_f=fixed_f, fixed_cr=fixed_cr))

    def test_strategy_needs_enough_neighbors(self):
        with pytest.raises(ConfigError, match="strategy rand2bin needs 5 neighbors, "
                                              "but the neighborhood supplies only 3"):
            small_cfg(strategy=StrategyId.parse("rand2bin"), neighborhood_size=3)

    def test_exponential_strategy_runs(self):
        spec = lookup("sphere")
        cfg = small_cfg(strategy=StrategyId.parse("best1exp"), seed=2)
        result = run_aded(spec.evaluate, spec.space(), cfg)
        assert np.isfinite(result.best_f)

    def test_result_stays_in_bounds(self):
        spec = lookup("eggholder")
        space = spec.space()
        result = run_aded(spec.evaluate, space, small_cfg(seed=3))
        assert space.contains(result.best_x)


class ConstantAfter:
    """Objective that collapses to a constant once `flips` evaluations passed."""

    def __init__(self, flips):
        self.flips = flips
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.flips:
            return 7.0
        return 10.0 + float(np.sum(x * x))


class TestStagnationStops:
    @pytest.mark.parametrize("runner", [run_aded, run_classic_de])
    def test_constant_objective_halts_within_limit(self, runner):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        cfg = EngineConfig(
            population_size=10,
            max_generations=300,
            stagnation_limit=5,
            stagnation_tol=0.0,
            seed=0,
            local_search=LocalSearchBudget(enabled=False),
        )
        result = runner(lambda x: 4.25, space, cfg)
        assert result.terminated_by == "stagnation"
        assert result.generations_executed == 5

    @pytest.mark.parametrize("runner", [run_aded, run_classic_de])
    def test_forced_constant_after_generation_g(self, runner):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        pop, limit = 10, 6
        flips = pop * (1 + 3)  # constant from generation 3 onwards
        objective = ConstantAfter(flips)
        cfg = EngineConfig(
            population_size=pop,
            max_generations=400,
            stagnation_limit=limit,
            stagnation_tol=0.0,
            seed=1,
            local_search=LocalSearchBudget(enabled=False),
        )
        result = runner(objective, space, cfg)
        assert result.terminated_by == "stagnation"
        assert result.generations_executed <= 3 + limit + 1


class TestRunClassicDe:
    def test_deterministic_given_seed(self):
        spec = lookup("ackley")
        cfg = small_cfg(seed=9)
        a = run_classic_de(spec.evaluate, spec.space(), cfg)
        b = run_classic_de(spec.evaluate, spec.space(), cfg)
        assert (a.best_x == b.best_x).all()
        assert a.best_f_history.tolist() == b.best_f_history.tolist()

    def test_sphere_descends(self):
        spec = lookup("sphere")
        cfg = EngineConfig(
            population_size=40, max_generations=120, seed=0,
            stagnation_tol=0.0, stagnation_limit=120,
        )
        result = run_classic_de(spec.evaluate, spec.space(), cfg)
        assert result.best_f < 1e-6

    def test_best_history_non_increasing(self):
        spec = lookup("rastrigin")
        result = run_classic_de(spec.evaluate, spec.space(), small_cfg(seed=2))
        assert (np.diff(result.best_f_history) <= 0).all()

    def test_evaluation_count_audited(self):
        spec = lookup("booth")
        calls = 0

        def audited(x):
            nonlocal calls
            calls += 1
            return spec.evaluate(x)

        result = run_classic_de(audited, spec.space(), small_cfg(seed=2))
        assert result.n_evaluations == calls
        # no local search: exactly pop * (1 + generations) evaluations
        expected = 16 * (1 + result.generations_executed)
        assert result.n_evaluations == expected

    def test_sinusoidal_rarely_certifies_global_optimum(self):
        # the baseline stalls short of -2.0 on the multimodal demo, unlike
        # the adaptive engine (see the acceptance suite)
        spec = lookup("sinusoidal")
        above_gap = 0
        for seed in range(3):
            cfg = EngineConfig(population_size=300, max_generations=200, seed=seed)
            result = run_classic_de(spec.evaluate, spec.space(), cfg)
            above_gap += result.best_f > -2.0 + 1e-6
        assert above_gap >= 2


class TestOnGeneration:
    CASES = {
        # refinement of 30% of trials, stopped by stagnation
        "aded": (run_aded, "rastrigin", dict(
            population_size=14, max_generations=60, stagnation_limit=4, stagnation_tol=1e-8,
            seed=3, local_search=LocalSearchBudget(max_iterations=4, probability=0.3))),
        "classic_de": (run_classic_de, "himmelblau", dict(
            population_size=12, max_generations=9, seed=1)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_called_once_per_generation_after_selection(self, case):
        runner, benchmark_id, fields = self.CASES[case]
        spec = lookup(benchmark_id)
        calls = []
        result = runner(spec.evaluate, spec.space(), EngineConfig(**fields),
                        lambda gen, x, fit: calls.append((gen, x.copy(), fit.copy())))
        g = result.generations_executed
        assert [gen for gen, _, _ in calls] == list(range(g))
        assert [fit.min() for _, _, fit in calls] == result.best_f_history.tolist()
        _, x, fit = calls[-1]
        assert fit.min() == result.best_f
        assert (x[np.argmin(fit)] == result.best_x).all()
        if case == "aded":
            assert result.terminated_by == "stagnation" and g < fields["max_generations"]

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hook_leaves_the_run_unchanged(self, case):
        runner, benchmark_id, fields = self.CASES[case]
        spec = lookup(benchmark_id)
        cfg = EngineConfig(**fields)
        plain = runner(spec.evaluate, spec.space(), cfg)
        hooked = runner(spec.evaluate, spec.space(), cfg, lambda gen, x, fit: None)
        assert (repr(plain.best_f), plain.best_x.tobytes(), plain.best_f_history.tobytes(),
                plain.n_evaluations, plain.terminated_by) == \
            (repr(hooked.best_f), hooked.best_x.tobytes(), hooked.best_f_history.tobytes(),
             hooked.n_evaluations, hooked.terminated_by)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_diagnostics_without_a_hook(self, case, diagnostic_calls):
        runner, benchmark_id, fields = self.CASES[case]
        spec = lookup(benchmark_id)
        runner(spec.evaluate, spec.space(), EngineConfig(**fields))
        assert diagnostic_calls == {"diversity": 0, "fdc": 0}
