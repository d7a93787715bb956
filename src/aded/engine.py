"""Single-objective evolution loop: the adaptive engine with random
neighborhoods, crowding selection, scheduled F/CR, optional local refinement,
and stagnation stopping. The classic fixed-parameter DE baseline is a preset
of the same loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    ConfigError,
    DomainError,
    RngStream,
    ShapeError,
    SearchSpace,
    clip_to_bounds,
    init_population,
)
from .variation import (
    LocalSearchBudget,
    ScheduleParams,
    StrategyId,
    draw_crossover,
    draw_distinct,
    lockstep_refine,
    mutation_donors,
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


def dynamic_neighborhood(i, n: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform draw of min(k, n-1) distinct neighbor indices, never including
    i. For an index array ``i`` (``np.arange(n)`` for a whole generation) the
    draws are made at once, one row per entry."""
    if n < 2:
        raise ConfigError("dynamic neighborhood needs a population of >= 2")
    members = np.atleast_1d(i)
    rows = draw_distinct(rng, n, min(k, n - 1), members.size, skip=members)
    return rows if np.ndim(i) else rows[0]


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
    """Outcome of one seeded run. ``best_f_history`` holds the population's
    best fitness after each generation, which the stagnation stop reads; the
    engine computes no other per-generation diagnostic (see ``run_aded``'s
    ``on_generation``)."""

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


class _CountingObjective:
    """Wraps the raw objective: counts every evaluated point, checks
    finiteness, and attaches generation/individual context to failures.

    It takes an ``(m, d)`` batch. The batch reaches an objective that
    declares ``batched = True`` in one call, and any other objective one row
    at a time. Values are floats, or arrays when ``multi`` (several
    objectives).
    """

    __slots__ = ("fn", "fn_batched", "multi", "count")

    def __init__(self, fn, multi: bool = False):
        self.fn = fn
        self.fn_batched = bool(getattr(fn, "batched", False))
        self.multi = multi
        self.count = 0

    def _point(self, x, where: str):
        try:
            value = np.asarray(self.fn(x), dtype=float) if self.multi else float(self.fn(x))
        except Exception as exc:
            raise DomainError(f"objective failed at {where}: {exc}") from exc
        # math.isfinite on a float is a fraction of np.isfinite(...).all()'s cost
        if not (np.isfinite(value).all() if self.multi else math.isfinite(value)):
            raise DomainError(f"objective returned {value} at {where}")
        return value

    def batch(self, points, where) -> np.ndarray:
        """Values at the rows of ``points``; ``where(r)`` names row r in
        errors."""
        m = len(points)
        self.count += m
        if not self.fn_batched:
            return np.array([self._point(p, where(r)) for r, p in enumerate(points)])
        try:
            values = np.asarray(self.fn(points), dtype=float)
            if values.ndim != 1 + self.multi or values.shape[0] != m:
                raise ShapeError(f"a batch of {m} points gave values of shape {values.shape}")
        except Exception as exc:
            for r, p in enumerate(points):     # name the first point that fails alone
                self._point(p, where(r))
            raise DomainError(f"objective failed on the batch at {where(0)}: {exc}") from exc
        finite = np.isfinite(values)
        if not finite.all():
            r = int(np.argmin(finite.reshape(m, -1).all(axis=1)))
            raise DomainError(f"objective returned {values[r]} at {where(r)}")
        return values


def _draw_trials(cfg: EngineConfig, n: int, d: int, cr: float, rng: RngStream):
    """Draw one generation's randomness, one array per kind, in a fixed order:
    k coefficients, neighbors, bases, crossover, refinement coins.

    Returns the ``(n, index_count)`` base indices, the ``(n,)`` k
    coefficients, the ``(n, d)`` crossover masks and the ``(n,)`` refinement
    flags.
    """
    strategy = cfg.strategy
    need = strategy.index_count
    members = np.arange(n)
    k_coeff = rng.random(n) if strategy.uses_k else np.zeros(n)
    if cfg.neighborhood == "dynamic":
        neighbors = dynamic_neighborhood(members, n, cfg.neighborhood_size, rng)
        picks = draw_distinct(rng, neighbors.shape[1], need, n)
        bases = np.take_along_axis(neighbors, picks, axis=1)
    else:
        bases = draw_distinct(rng, n, need, n, skip=members)
    masks = draw_crossover(strategy.crossover, d, cr, rng, n)
    return bases, k_coeff, masks, cfg.local_search.refines(rng, n)


def _evaluate_trials(counting, trials, refine, gen, space, budget, scalar=None) -> np.ndarray:
    """Objective values of a generation's trials, in two calls: the trials
    not flagged in ``refine`` reach the objective as one batch, and the
    flagged ones are refined together by ``lockstep_refine``, each refined
    trial replacing its row of ``trials``.

    With ``scalar`` (multi-objective runs), refinement minimizes
    ``scalar(objective vectors)``, and the refined trials are evaluated once
    more for their objective vectors.
    """
    def named(rows):
        return lambda r: f"generation {gen}, individual {rows[r]}"

    flagged = np.flatnonzero(refine)
    plain = np.flatnonzero(~refine)
    parts = [counting.batch(trials[plain], named(plain))] if plain.size else []
    if flagged.size:
        def evaluate(points, rows):
            values = counting.batch(points, named(flagged[rows]))
            return values if scalar is None else scalar(values)

        trials[flagged], values, _ = lockstep_refine(evaluate, trials[flagged], space, budget)
        if scalar is not None:
            values = counting.batch(trials[flagged], named(flagged))
        parts.append(values)
    return np.concatenate(parts)[np.argsort(np.concatenate([plain, flagged]))]


def run_aded(objective, space: SearchSpace, cfg: EngineConfig, on_generation=None) -> RunResult:
    """Adaptive run: scheduled F/CR, strategy-built trials with crossover and
    bound repair, optional local refinement, crowding selection, and
    stagnation-based early stopping.

    With ``neighborhood="dynamic"`` each member draws its mutation bases
    from a fresh uniform subset of ``neighborhood_size`` other members. The
    bases then have the same distribution as with ``neighborhood="all"``:
    the neighborhood does not adapt to trial fitness.

    Each generation is built from the previous one as a whole, and its trials
    are evaluated by ``_evaluate_trials``.

    The engine records only the best fitness of each generation. A caller
    that wants more (diversity, FDC) passes ``on_generation``, which is
    called as ``on_generation(gen, x, fit)`` after each generation's
    selection, with the ``(n, d)`` population and its ``(n,)`` fitness; it
    must not modify them.
    """
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
    x = init_population(space, n, rng)
    fit = counting.batch(x, lambda r: f"initial member {r}")

    best_hist: list = []
    terminated_by = "max-generations"

    for gen in range(cfg.max_generations):
        f_rate, cr_rate = cfg.schedule.rates_at(gen, cfg.max_generations, fixed)
        gen_best = x[int(np.argmin(fit))]
        bases, k_coeff, masks, refine = _draw_trials(cfg, n, space.dim, cr_rate, rng)
        donors = mutation_donors(cfg.strategy, x, bases, gen_best, f_rate, k_coeff)
        trials = clip_to_bounds(np.where(masks, donors, x), space)
        trial_f = _evaluate_trials(counting, trials, refine, gen, space, cfg.local_search)
        improved = trial_f < fit                   # crowding: incumbent wins ties
        x = np.where(improved[:, None], trials, x)
        fit = np.where(improved, trial_f, fit)
        best_hist.append(float(fit.min()))
        if on_generation is not None:
            on_generation(gen, x, fit)
        if has_converged(best_hist, cfg.stagnation_limit, cfg.stagnation_tol):
            terminated_by = "stagnation"
            break

    best_idx = int(np.argmin(fit))
    return RunResult(
        best_x=x[best_idx].copy(),
        best_f=float(fit[best_idx]),
        best_f_history=np.asarray(best_hist, dtype=float),
        n_evaluations=counting.count,
        wall_seconds=time.perf_counter() - t0,
        terminated_by=terminated_by,
        seed=cfg.seed,
    )


def run_classic_de(objective, space: SearchSpace, cfg: EngineConfig,
                   on_generation=None) -> RunResult:
    """Canonical DE baseline (Storn & Price): ``run_aded`` with rand/1 mutation,
    binomial crossover, every other member as neighbor, and no local search.
    F and CR stay constant at cfg.schedule.fixed_f / fixed_cr (default 0.8 / 0.9).
    ``on_generation`` is passed on to ``run_aded``."""
    f = cfg.schedule.fixed_f if cfg.schedule.fixed_f is not None else CLASSIC_F
    cr = cfg.schedule.fixed_cr if cfg.schedule.fixed_cr is not None else CLASSIC_CR
    classic = replace(
        cfg,
        schedule=ScheduleParams(mode="fixed", fixed_f=f, fixed_cr=cr),
        strategy=StrategyId("rand1", "bin"),
        neighborhood="all",
        local_search=LocalSearchBudget(enabled=False),
    )
    return run_aded(objective, space, classic, on_generation)
