"""Single-objective evolution loop: the adaptive engine with dynamic
neighborhoods, crowding selection, scheduled F/CR, optional local refinement,
and stagnation stopping. The classic fixed-parameter DE baseline is a preset
of the same loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .core import (
    ConfigError,
    DomainError,
    RngStream,
    SearchSpace,
    clip_to_bounds,
    init_population,
)
from .variation import (
    LocalSearchBudget,
    ScheduleParams,
    StrategyId,
    apply_crossover,
    local_refine,
    mutate,
)

CLASSIC_F = 0.8
CLASSIC_CR = 0.9


@dataclass(frozen=True)
class EngineConfig:
    """All parameters of a single-objective run."""

    population_size: int = 100
    max_generations: int = 100
    schedule: ScheduleParams = field(default_factory=ScheduleParams)
    strategy: StrategyId = field(default_factory=lambda: StrategyId("adedrand", "bin"))
    neighborhood: str = "dynamic"          # "dynamic" | "all"
    neighborhood_size: int | None = None   # None resolves to min(10, pop - 1)
    local_search: LocalSearchBudget = field(default_factory=LocalSearchBudget)
    stagnation_limit: int = 10
    stagnation_tol: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 6:
            raise ConfigError(f"population_size must be >= 6, got {self.population_size}")
        if self.max_generations < 1:
            raise ConfigError(f"max_generations must be >= 1, got {self.max_generations}")
        if self.stagnation_limit < 2:
            raise ConfigError(f"stagnation_limit must be >= 2, got {self.stagnation_limit}")
        if self.stagnation_tol < 0.0:
            raise ConfigError(f"stagnation_tol must be >= 0, got {self.stagnation_tol}")
        if self.neighborhood_size is None:
            object.__setattr__(self, "neighborhood_size", min(10, self.population_size - 1))
        if not 1 <= self.neighborhood_size <= self.population_size - 1:
            raise ConfigError(
                f"neighborhood_size must lie in [1, {self.population_size - 1}], "
                f"got {self.neighborhood_size}"
            )
        if self.neighborhood not in ("dynamic", "all"):
            raise ConfigError(f"neighborhood must be 'dynamic' or 'all', got {self.neighborhood!r}")


def dynamic_neighborhood(i: int, n: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform draw of min(k, n-1) distinct neighbor indices, never including i."""
    if n < 2:
        raise ConfigError("dynamic neighborhood needs a population of >= 2")
    return rng.choice(np.delete(np.arange(n), i), size=min(k, n - 1), replace=False)


def has_converged(history, stagnation_limit: int, tol: float = 0.0) -> bool:
    """True when the last ``stagnation_limit`` best-fitness entries all lie
    within ``tol`` of the most recent entry."""
    if stagnation_limit < 2:
        raise ConfigError("stagnation_limit must be >= 2")
    h = np.asarray(history, dtype=float)
    if h.size < stagnation_limit:
        return False
    window = h[-stagnation_limit:]
    return bool(np.all(np.abs(window - window[-1]) <= tol))


@dataclass
class RunResult:
    """Outcome of one seeded run, with per-generation diagnostics."""

    best_x: np.ndarray
    best_f: float
    best_f_history: np.ndarray
    diversity_history: np.ndarray
    fdc_history: np.ndarray
    convergence_rate_history: np.ndarray
    n_evaluations: int
    wall_seconds: float
    terminated_by: str                    # "max-generations" | "stagnation"
    seed: int = 0

    @property
    def generations_executed(self) -> int:
        return int(self.best_f_history.size)


class _CountingObjective:
    """Wraps the raw objective: counts every call, converts its value with
    ``convert`` (``float`` for one objective, an array for several), checks
    finiteness, and attaches generation/individual context to failures."""

    __slots__ = ("fn", "convert", "count", "context")

    def __init__(self, fn, convert=float):
        self.fn = fn
        self.convert = convert
        self.count = 0
        self.context = "initialization"

    def __call__(self, x):
        self.count += 1
        try:
            value = self.convert(self.fn(x))
        except Exception as exc:
            raise DomainError(f"objective failed at {self.context}: {exc}") from exc
        # math.isfinite on a float is a fraction of np.isfinite(...).all()'s cost
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise DomainError(f"objective returned {value} at {self.context}")
        return value


def _finish(x, fit, best_hist, div_hist, fdc_hist, counting, t0, terminated_by, seed) -> RunResult:
    best_hist = np.asarray(best_hist, dtype=float)
    best_idx = int(np.argmin(fit))
    rate = np.diff(best_hist) if best_hist.size >= 2 else np.empty(0)
    return RunResult(
        best_x=x[best_idx].copy(),
        best_f=float(fit[best_idx]),
        best_f_history=best_hist,
        diversity_history=np.asarray(div_hist, dtype=float),
        fdc_history=np.asarray(fdc_hist, dtype=float),
        convergence_rate_history=rate,
        n_evaluations=counting.count,
        wall_seconds=time.perf_counter() - t0,
        terminated_by=terminated_by,
        seed=seed,
    )


def _record(x, fit, space, best_hist, div_hist, fdc_hist):
    best_idx = int(np.argmin(fit))
    best_hist.append(float(fit[best_idx]))
    div_hist.append(metrics.diversity(x, space))
    try:
        fdc_hist.append(metrics.fdc(x, fit, x[best_idx]))
    except metrics.UndefinedMetricError:
        fdc_hist.append(float("nan"))


def run_aded(objective, space: SearchSpace, cfg: EngineConfig) -> RunResult:
    """Adaptive run: scheduled F/CR, per-individual dynamic neighborhoods,
    strategy-built trials with crossover and bound repair, optional local
    refinement, crowding selection, and stagnation-based early stopping."""
    t0 = time.perf_counter()
    rng = RngStream(cfg.seed)
    n = cfg.population_size
    pool_size = n - 1 if cfg.neighborhood == "all" else min(cfg.neighborhood_size, n - 1)
    if pool_size < cfg.strategy.index_count:
        raise ConfigError(
            f"strategy {cfg.strategy.name} needs {cfg.strategy.index_count} neighbors, "
            f"but the neighborhood supplies only {pool_size}"
        )
    fixed = cfg.schedule.resolve_fixed(rng) if cfg.schedule.mode == "fixed" else None

    counting = _CountingObjective(objective)
    ls = cfg.local_search

    x = init_population(space, n, rng)
    fit = np.empty(n)
    for i in range(n):
        counting.context = f"initial member {i}"
        fit[i] = counting(x[i])

    all_but_self = [np.delete(np.arange(n), i) for i in range(n)]
    best_hist: list = []
    div_hist: list = []
    fdc_hist: list = []
    terminated_by = "max-generations"

    for gen in range(cfg.max_generations):
        f_rate, cr_rate = cfg.schedule.rates_at(gen, cfg.max_generations, fixed)
        gen_best = x[int(np.argmin(fit))].copy()
        new_x = x.copy()
        new_fit = fit.copy()
        for i in range(n):
            if cfg.neighborhood == "dynamic":
                neighbors = dynamic_neighborhood(i, n, cfg.neighborhood_size, rng)
            else:
                neighbors = all_but_self[i]
            k_coeff = float(rng.random()) if cfg.strategy.uses_k else 0.0
            donor = mutate(cfg.strategy, x, i, gen_best, f_rate, k_coeff, rng, pool=neighbors)
            trial = apply_crossover(cfg.strategy, x[i], donor, cr_rate, rng)
            trial = clip_to_bounds(trial, space)
            counting.context = f"generation {gen}, individual {i}"
            if ls.enabled and (ls.probability >= 1.0 or rng.random() < ls.probability):
                trial, trial_f, _ = local_refine(counting, trial, space, ls)
            else:
                trial_f = counting(trial)
            if trial_f < fit[i]:                   # crowding: incumbent wins ties
                new_x[i] = trial
                new_fit[i] = trial_f
        x, fit = new_x, new_fit
        _record(x, fit, space, best_hist, div_hist, fdc_hist)
        if has_converged(best_hist, cfg.stagnation_limit, cfg.stagnation_tol):
            terminated_by = "stagnation"
            break

    return _finish(x, fit, best_hist, div_hist, fdc_hist, counting, t0, terminated_by, cfg.seed)


def run_classic_de(objective, space: SearchSpace, cfg: EngineConfig) -> RunResult:
    """Canonical DE baseline (Storn & Price): ``run_aded`` with rand/1 mutation,
    binomial crossover, every other member as neighbor, and no local search.
    F and CR stay constant at cfg.schedule.fixed_f / fixed_cr (default 0.8 / 0.9)."""
    f = cfg.schedule.fixed_f if cfg.schedule.fixed_f is not None else CLASSIC_F
    cr = cfg.schedule.fixed_cr if cfg.schedule.fixed_cr is not None else CLASSIC_CR
    classic = replace(
        cfg,
        schedule=ScheduleParams(mode="fixed", fixed_f=f, fixed_cr=cr),
        strategy=StrategyId("rand1", "bin"),
        neighborhood="all",
        local_search=LocalSearchBudget(enabled=False),
    )
    return run_aded(objective, space, classic)
