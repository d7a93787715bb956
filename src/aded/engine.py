"""The single-objective engine and the run skeleton ``_Run`` of both
engines: a run's random stream, evaluation ledger, clock, generation loop
(scheduled F/CR and the stagnation stop) and result record. The adaptive
engine has uniform random mutation bases, crowding selection and optional
local refinement; classic DE is a preset of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ConfigError, RngStream, SearchSpace, _CountingObjective, _integer, init_population
from .variation import (
    LocalSearchBudget,
    ScheduleParams,
    StrategyId,
    adaptive_crossover_rate,
    adaptive_mutation_rate,
    crossover_draws,
    crossover_masks,
    draw_distinct,
    lockstep_refine,
    mutation_donors,
)

CLASSIC_F = 0.8
CLASSIC_CR = 0.9
DRAW_BLOCK = 16          # generations whose randomness one set of RNG calls draws


@dataclass(frozen=True)
class EngineConfig:
    """All parameters of a single-objective run."""

    population_size: int = 100
    max_generations: int = 100
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    strategy: StrategyId = field(default_factory=lambda: StrategyId("adedrand", "bin"))
    # "dynamic" | "all": neither field changes the draw (see run_aded);
    # neighborhood_size, None resolving to min(10, pop - 1), still refuses a
    # strategy under "dynamic" that takes more bases than it
    neighborhood: str = "dynamic"
    neighborhood_size: int | None = None
    local_search: LocalSearchBudget = field(default_factory=LocalSearchBudget)
    stagnation_limit: int = 10
    stagnation_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if _integer("population_size", self.population_size) < 6:
            raise ConfigError(f"population_size must be >= 6, got {self.population_size}")
        if _integer("max_generations", self.max_generations) < 1:
            raise ConfigError(f"max_generations must be >= 1, got {self.max_generations}")
        if _integer("stagnation_limit", self.stagnation_limit) < 2:
            raise ConfigError(f"stagnation_limit must be >= 2, got {self.stagnation_limit}")
        if not self.stagnation_tol >= 0.0:
            raise ConfigError(f"stagnation_tol must be >= 0, got {self.stagnation_tol}")
        if self.neighborhood_size is None:
            object.__setattr__(self, "neighborhood_size", min(10, self.population_size - 1))
        if not 1 <= _integer("neighborhood_size", self.neighborhood_size) < self.population_size:
            raise ConfigError(
                f"neighborhood_size must lie in [1, {self.population_size - 1}], "
                f"got {self.neighborhood_size}"
            )
        if self.neighborhood not in ("dynamic", "all"):
            raise ConfigError(f"neighborhood must be 'dynamic' or 'all', got {self.neighborhood!r}")
        if self.neighborhood == "dynamic" and self.neighborhood_size < self.strategy.index_count:
            raise ConfigError(
                f"strategy {self.strategy.name} needs {self.strategy.index_count} neighbors, "
                f"but the neighborhood supplies only {self.neighborhood_size}"
            )
        if _integer("seed", self.seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def has_converged(history, stagnation_limit: int, tol: float = 0.0) -> bool:
    """True when the last ``stagnation_limit`` best-fitness entries of the
    sequence ``history`` all lie within ``tol`` of the most recent entry.
    Only those entries are converted to an array."""
    if stagnation_limit < 2:
        raise ConfigError("stagnation_limit must be >= 2")
    if len(history) < stagnation_limit:
        return False
    window = np.asarray(history[-stagnation_limit:], dtype=float)
    return bool(np.all(np.abs(window - window[-1]) <= tol))


@dataclass
class RunResult:
    """Outcome of one seeded run of either engine. ``best_f_history`` holds,
    after each generation, the value the stagnation stop read: the
    population's best fitness for ``run_aded``. The engine computes no other
    per-generation diagnostic (see ``run_aded``'s ``on_generation``)."""

    best_x: np.ndarray
    best_f: float
    best_f_history: np.ndarray
    n_evaluations: int
    wall_seconds: float
    terminated_by: str                    # "max-generations" | "stagnation"
    seed: int = 0

    @property
    def generations_executed(self) -> int:
        return int(self.best_f_history.size)


def _draw_trials(cfg: EngineConfig, n: int, d: int, rng: RngStream):
    """Yield each generation's randomness as views of a block of generations
    drawn at once, each kind once per block and in this order: the ``(n,)``
    k coefficients, the ``(n, index_count)`` base indices, the ``(n,)``
    crossover start indices and their uniforms (which ``crossover_masks``
    thresholds at the generation's CR), and the ``(n,)`` refinement flags.

    Member i's bases are a uniform ordered pick of ``index_count`` distinct
    members other than i, whatever ``cfg.neighborhood`` says.

    A block is ``DRAW_BLOCK`` generations, fewer once n * d passes 2**12, so
    that it holds at most about 2**16 crossover uniforms; it is freed once
    the views of its last generation are dropped. Whole blocks are drawn, so
    a run's draws do not depend on its generation budget.
    """
    strategy = cfg.strategy
    g = max(1, min(DRAW_BLOCK, 2 ** 16 // (n * d)))
    m, skip = g * n, np.tile(np.arange(n), g)
    while True:
        yield from zip(*(a.reshape(g, n, *a.shape[1:]) for a in (
            rng.random(m) if strategy.uses_k else np.zeros(m),
            draw_distinct(rng, n, strategy.index_count, m, skip=skip),
            *crossover_draws(strategy.crossover, d, rng, m),
            cfg.local_search.refines(rng, m),
        )))


class _Run:
    """One seeded run of either engine: its random stream, evaluation ledger,
    clock, generation loop and result record. The engine appends the value
    the stagnation stop watches to ``history`` once per generation."""

    def __init__(self, objective, space: SearchSpace, cfg: EngineConfig, multi: bool = False):
        self.t0 = time.perf_counter()
        self.space, self.cfg = space, cfg
        self.rng = RngStream(cfg.seed)
        self.counting = _CountingObjective(objective, multi)
        self.history: list = []
        self.terminated_by = "max-generations"

    def generations(self, fixed):
        """Yield ``(gen, F, CR)`` per generation (Storn & Price, 1997), the
        rates ``fixed`` or, when None, scheduled, until the generation budget
        or until ``history`` stagnates."""
        cfg, schedule = self.cfg, self.cfg.schedule
        for gen in range(cfg.max_generations):
            f, cr = fixed if fixed is not None else (
                adaptive_mutation_rate(gen, cfg.max_generations, schedule.initial_f),
                adaptive_crossover_rate(gen, cfg.max_generations, schedule.initial_cr),
            )
            yield gen, f, cr
            if has_converged(self.history, cfg.stagnation_limit, cfg.stagnation_tol):
                self.terminated_by = "stagnation"
                return

    def evaluate(self, trials, refine, gen, scalar=None):
        """A generation's trials, clipped and those flagged in ``refine``
        refined, and their values (objective vectors with ``scalar``): one
        ``lockstep_refine`` call, whose errors name generation and individual."""
        def evaluate(points, rows):
            return self.counting.batch(points, lambda r: f"generation {gen}, individual {rows[r]}")

        return lockstep_refine(evaluate, trials, self.space, self.cfg.local_search, scalar, refine)

    def result(self, best_x, best_f, kind=RunResult, **fields) -> RunResult:
        """The run's record: a ``kind``, ``RunResult`` or a subclass given its own ``fields``."""
        return kind(best_x=best_x, best_f=float(best_f), best_f_history=np.asarray(self.history),
                    n_evaluations=self.counting.count, wall_seconds=time.perf_counter() - self.t0,
                    terminated_by=self.terminated_by, seed=self.cfg.seed, **fields)


def run_aded(objective, space: SearchSpace, cfg: EngineConfig, on_generation=None) -> RunResult:
    """Adaptive run: scheduled F/CR, strategy-built trials with crossover and
    bound repair, optional local refinement, crowding selection, and
    stagnation-based early stopping.

    Each member draws its mutation bases as a uniform ordered pick of
    distinct other members. ``neighborhood="dynamic"`` and ``"all"`` give
    identical runs: a uniform subset of ``neighborhood_size`` members, with
    the bases picked among them, would have the same law, so no subset is
    drawn. Under ``"dynamic"``, ``EngineConfig`` still refuses a strategy
    that needs more bases than ``neighborhood_size``.

    Each generation is built from the previous one as a whole, and its trials
    are bound-repaired, refined and evaluated by ``_Run.evaluate``. Nothing
    that a generation draws depends on the population, so ``_draw_trials``
    draws it ahead, for a block of up to ``DRAW_BLOCK`` generations at a
    time; each generation takes its slice and thresholds its crossover
    uniforms at its own CR.

    The engine records only the best fitness of each generation. A caller
    that wants more (diversity, FDC) passes ``on_generation``, which is
    called as ``on_generation(gen, x, fit)`` after each generation's
    selection, with the ``(n, d)`` population and its ``(n,)`` fitness; it
    must not modify them.
    """
    run = _Run(objective, space, cfg)
    n, rng = cfg.population_size, run.rng
    fixed = cfg.schedule.resolve_fixed(rng)
    x = init_population(space, n, rng)
    fit = run.counting.batch(x, lambda r: f"initial member {r}")
    draws = _draw_trials(cfg, n, space.dim, rng)
    for gen, f_rate, cr_rate in run.generations(fixed):
        k_coeff, bases, firsts, uniforms, refine = next(draws)
        masks = crossover_masks(cfg.strategy.crossover, firsts, uniforms, cr_rate)
        donors = mutation_donors(cfg.strategy, x, bases, x[int(np.argmin(fit))], f_rate, k_coeff)
        trials, trial_f = run.evaluate(np.where(masks, donors, x), refine, gen)
        # drop the views into the block, so that a spent block is freed
        # before the next one is drawn
        del k_coeff, bases, firsts, uniforms, refine
        improved = trial_f < fit                   # crowding: incumbent wins ties
        x = np.where(improved[:, None], trials, x)
        fit = np.where(improved, trial_f, fit)
        if on_generation is not None:
            on_generation(gen, x, fit)
        run.history.append(float(fit.min()))
    best_idx = int(np.argmin(fit))
    return run.result(x[best_idx].copy(), fit[best_idx])


def classic_config(cfg: EngineConfig) -> EngineConfig:
    """The config classic DE (Storn & Price) runs: ``cfg`` with rand/1/bin,
    every other member as neighbor, no local search, and F and CR fixed at
    cfg.schedule.fixed_f / fixed_cr (default 0.8 / 0.9)."""
    f = cfg.schedule.fixed_f if cfg.schedule.fixed_f is not None else CLASSIC_F
    cr = cfg.schedule.fixed_cr if cfg.schedule.fixed_cr is not None else CLASSIC_CR
    return replace(
        cfg,
        schedule=ScheduleParams(mode="fixed", fixed_f=f, fixed_cr=cr),
        strategy=StrategyId("rand1", "bin"),
        neighborhood="all",
        local_search=LocalSearchBudget(enabled=False),
    )


def run_classic_de(objective, space: SearchSpace, cfg: EngineConfig,
                   on_generation=None) -> RunResult:
    """Canonical DE baseline: ``run_aded`` under ``classic_config(cfg)``."""
    return run_aded(objective, space, classic_config(cfg), on_generation)
