"""The single-objective engine and the parts every engine shares: the
generation loop (scheduled F/CR and the stagnation stop) and the counting
objective adapter. The adaptive engine has random neighborhoods, crowding
selection and optional local refinement; classic DE is a preset of it.
"""

from __future__ import annotations

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
    evaluate_rows,
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
        if not self.stagnation_tol >= 0.0:
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

    It takes an ``(m, d)`` batch and passes it on through
    ``core.evaluate_rows``, the one adapter for batched and per-row
    objectives. Values are floats, or arrays when ``multi`` (several
    objectives).
    """

    __slots__ = ("fn", "multi", "count")

    def __init__(self, fn, multi: bool = False):
        self.fn = fn
        self.multi = multi
        self.count = 0

    def batch(self, points, where) -> np.ndarray:
        """Values at the rows of ``points``; ``where(r)`` names row r in
        errors. When the batch fails, its rows are evaluated again one at a
        time, so that the error names the first row that fails alone."""
        m = len(points)
        self.count += m
        try:
            values = evaluate_rows(self.fn, points)
            if values.ndim != 1 + self.multi or values.shape[0] != m:
                raise ShapeError(f"a batch of {m} points gave values of shape {values.shape}")
        except Exception as exc:
            for r in range(m):
                try:
                    value = evaluate_rows(self.fn, points[r:r + 1])[0]
                except Exception as row_exc:
                    raise DomainError(f"objective failed at {where(r)}: {row_exc}") from row_exc
                if not np.isfinite(value).all():
                    raise DomainError(f"objective returned {value} at {where(r)}")
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
    ``scalar(objective vectors)`` and returns each refined trial's objective
    vector.
    """
    def named(rows):
        return lambda r: f"generation {gen}, individual {rows[r]}"

    flagged = np.flatnonzero(refine)
    plain = np.flatnonzero(~refine)
    parts = [counting.batch(trials[plain], named(plain))] if plain.size else []
    if flagged.size:
        def evaluate(points, rows):
            return counting.batch(points, named(flagged[rows]))

        trials[flagged], values, _ = lockstep_refine(evaluate, trials[flagged], space, budget,
                                                     scalar)
        parts.append(values)
    return np.concatenate(parts)[np.argsort(np.concatenate([plain, flagged]))]


def _generations(cfg: EngineConfig, fixed, step):
    """The generation loop of both engines (Storn & Price, 1997):
    ``step(gen, f, cr)`` runs a generation at its (F, CR), scheduled or
    ``fixed``, and returns the value the stagnation stop watches. Returns
    those values, one per generation, and "stagnation" or "max-generations"."""
    history: list = []
    for gen in range(cfg.max_generations):
        history.append(step(gen, *cfg.schedule.rates_at(gen, cfg.max_generations, fixed)))
        if has_converged(history, cfg.stagnation_limit, cfg.stagnation_tol):
            return np.asarray(history, dtype=float), "stagnation"
    return np.asarray(history, dtype=float), "max-generations"


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

    def step(gen, f_rate, cr_rate):
        nonlocal x, fit
        bases, k_coeff, masks, refine = _draw_trials(cfg, n, space.dim, cr_rate, rng)
        donors = mutation_donors(cfg.strategy, x, bases, x[int(np.argmin(fit))], f_rate, k_coeff)
        trials = clip_to_bounds(np.where(masks, donors, x), space)
        trial_f = _evaluate_trials(counting, trials, refine, gen, space, cfg.local_search)
        improved = trial_f < fit                   # crowding: incumbent wins ties
        x = np.where(improved[:, None], trials, x)
        fit = np.where(improved, trial_f, fit)
        if on_generation is not None:
            on_generation(gen, x, fit)
        return float(fit.min())

    history, terminated_by = _generations(cfg, fixed, step)
    best_idx = int(np.argmin(fit))
    return RunResult(
        best_x=x[best_idx].copy(),
        best_f=float(fit[best_idx]),
        best_f_history=history,
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
