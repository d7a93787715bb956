"""Variation machinery: generation-linked F/CR schedules, differential
mutation strategies, binomial/exponential crossover, and the bounded
quasi-Newton local refinement step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import (
    ConfigError,
    DomainError,
    RngStream,
    SearchSpace,
    ShapeError,
    clip_to_bounds,
)

# ---------------------------------------------------------------------------
# F / CR schedules
# ---------------------------------------------------------------------------

# Fixed-mode draw ranges when no explicit pair is supplied.
FIXED_F_RANGE = (0.5, 2.0)
FIXED_CR_RANGE = (0.1, 0.9)


def adaptive_mutation_rate(generation: int, max_generations: int, initial_f: float) -> float:
    """Linearly decaying mutation factor: initial_f * (1 - generation / max)."""
    if max_generations <= 0:
        raise ConfigError("max_generations must be positive")
    if not 0 <= generation <= max_generations:
        raise ConfigError(f"generation {generation} outside [0, {max_generations}]")
    return initial_f * (1.0 - generation / max_generations)


def adaptive_crossover_rate(generation: int, max_generations: int, initial_cr: float) -> float:
    """Linearly growing crossover rate: initial_cr * (generation / max)."""
    if max_generations <= 0:
        raise ConfigError("max_generations must be positive")
    if not 0 <= generation <= max_generations:
        raise ConfigError(f"generation {generation} outside [0, {max_generations}]")
    return initial_cr * (generation / max_generations)


@dataclass(frozen=True)
class ScheduleParams:
    """F/CR treatment for a run.

    ``scheduled`` moves F down and CR up linearly with generation count;
    ``fixed`` keeps both constant, either at the explicit ``fixed_f`` /
    ``fixed_cr`` pair or at values drawn once per run from the conventional
    U(0.5, 2.0) x U(0.1, 0.9) ranges.
    """

    initial_f: float = 0.5
    initial_cr: float = 0.5
    mode: str = "scheduled"            # "scheduled" | "fixed"
    fixed_f: float | None = None
    fixed_cr: float | None = None

    def __post_init__(self):
        if self.mode not in ("scheduled", "fixed"):
            raise ConfigError(f"unknown schedule mode {self.mode!r}")
        if not 0.0 < self.initial_f <= 2.0:
            raise ConfigError(f"initial_f must lie in (0, 2], got {self.initial_f}")
        if not 0.0 <= self.initial_cr <= 1.0:
            raise ConfigError(f"initial_cr must lie in [0, 1], got {self.initial_cr}")

    def resolve_fixed(self, rng: RngStream) -> tuple:
        """Constant (F, CR) pair for a fixed-mode run, drawing if unspecified."""
        f = self.fixed_f if self.fixed_f is not None else float(rng.uniform(*FIXED_F_RANGE))
        cr = self.fixed_cr if self.fixed_cr is not None else float(rng.uniform(*FIXED_CR_RANGE))
        return f, cr

    def rates_at(self, generation: int, max_generations: int, fixed: tuple | None = None) -> tuple:
        if self.mode == "fixed":
            if fixed is None:
                raise ConfigError("fixed-mode rates need the per-run (F, CR) pair")
            return fixed
        return (
            adaptive_mutation_rate(generation, max_generations, self.initial_f),
            adaptive_crossover_rate(generation, max_generations, self.initial_cr),
        )


# ---------------------------------------------------------------------------
# Mutation strategies
# ---------------------------------------------------------------------------

# mutation kind -> number of distinct random indices consumed per donor
MUTATION_INDEX_COUNT = {
    "rand1": 3,
    "best1": 2,
    "rand2": 5,
    "best2": 4,
    "currenttorand1": 3,
    "currenttobest1": 2,
    "randtobest1": 3,
    "adedrand": 3,        # x_i + F (r1 - x_i) + F (r2 - r3)
    "adedneighbors": 2,   # x_i + F (n1 - x_i) + F (n2 - x_i)
}

_USES_BEST = {"best1", "best2", "currenttobest1", "randtobest1"}
_USES_K = {"currenttorand1", "currenttobest1"}

CROSSOVER_KINDS = ("bin", "exp")

# The 14 canonical strategy ids used by the variant tournament.
CANONICAL_VARIANTS = tuple(
    f"{m}{c}"
    for m in ("rand1", "best1", "rand2", "best2", "currenttorand1", "currenttobest1", "randtobest1")
    for c in CROSSOVER_KINDS
)


@dataclass(frozen=True)
class StrategyId:
    """A mutation kind paired with a crossover kind, e.g. rand1 + bin."""

    mutation: str
    crossover: str

    def __post_init__(self):
        if self.mutation not in MUTATION_INDEX_COUNT:
            raise ConfigError(
                f"unknown mutation {self.mutation!r}; choose from {sorted(MUTATION_INDEX_COUNT)}"
            )
        if self.crossover not in CROSSOVER_KINDS:
            raise ConfigError(f"unknown crossover {self.crossover!r}; choose bin or exp")

    @classmethod
    def parse(cls, name: str) -> "StrategyId":
        name = name.strip().lower().replace("-", "").replace("_", "").replace("/", "")
        for suffix in CROSSOVER_KINDS:
            if name.endswith(suffix) and name[: -len(suffix)] in MUTATION_INDEX_COUNT:
                return cls(name[: -len(suffix)], suffix)
        raise ConfigError(f"cannot parse strategy id {name!r}")

    @property
    def name(self) -> str:
        return f"{self.mutation}{self.crossover}"

    @property
    def uses_best(self) -> bool:
        return self.mutation in _USES_BEST

    @property
    def uses_k(self) -> bool:
        return self.mutation in _USES_K

    @property
    def index_count(self) -> int:
        return MUTATION_INDEX_COUNT[self.mutation]


def mutate(
    strategy: StrategyId,
    pop,
    i: int,
    best,
    f: float,
    k: float,
    rng: RngStream,
    pool=None,
) -> np.ndarray:
    """Build a donor vector for individual ``i``.

    ``pool`` is the index set the random bases are drawn from (defaults to
    every index except ``i``); all drawn indices are pairwise distinct. The
    donor is returned without bound repair.
    """
    x = np.asarray(pop, dtype=float)
    if pool is None:
        pool = np.delete(np.arange(x.shape[0]), i)
    else:
        pool = np.asarray(pool, dtype=int)
    if strategy.uses_best:
        best = np.asarray(best, dtype=float)
    need = strategy.index_count
    if pool.size < need:
        raise ConfigError(
            f"strategy {strategy.name} needs {need} distinct non-self indices, "
            f"pool has {pool.size}"
        )
    r = rng.choice(pool, size=need, replace=False)
    m = strategy.mutation
    if m == "rand1":
        return x[r[0]] + f * (x[r[1]] - x[r[2]])
    if m == "best1":
        return best + f * (x[r[0]] - x[r[1]])
    if m == "rand2":
        return x[r[0]] + f * (x[r[1]] - x[r[2]] + x[r[3]] - x[r[4]])
    if m == "best2":
        return best + f * (x[r[0]] - x[r[1]] + x[r[2]] - x[r[3]])
    if m == "currenttorand1":
        return x[i] + k * (x[r[2]] - x[i]) + f * (x[r[0]] - x[r[1]])
    if m == "currenttobest1":
        return x[i] + k * (best - x[i]) + f * (x[r[0]] - x[r[1]])
    if m == "randtobest1":
        return x[r[0]] + f * (best - x[r[0]]) + f * (x[r[1]] - x[r[2]])
    if m == "adedrand":
        return x[i] + f * (x[r[0]] - x[i]) + f * (x[r[1]] - x[r[2]])
    if m == "adedneighbors":
        return x[i] + f * (x[r[0]] - x[i]) + f * (x[r[1]] - x[i])
    raise ConfigError(f"unhandled mutation {m!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def crossover_binomial(target, donor, cr: float, rng: RngStream) -> np.ndarray:
    """Per-component Bernoulli mix; at least one donor component survives."""
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ShapeError(f"target {target.shape} vs donor {donor.shape}")
    if not 0.0 <= cr <= 1.0:
        raise ConfigError(f"CR must lie in [0, 1], got {cr}")
    d = target.size
    j_rand = int(rng.integers(d))
    take = rng.random(d) < cr
    take[j_rand] = True
    return np.where(take, donor, target)


def crossover_exponential(target, donor, cr: float, rng: RngStream) -> np.ndarray:
    """Copy a circular run of consecutive donor components, length >= 1."""
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ShapeError(f"target {target.shape} vs donor {donor.shape}")
    if not 0.0 <= cr <= 1.0:
        raise ConfigError(f"CR must lie in [0, 1], got {cr}")
    d = target.size
    start = int(rng.integers(d))
    length = 1
    while length < d and rng.random() < cr:
        length += 1
    idx = (start + np.arange(length)) % d
    trial = target.copy()
    trial[idx] = donor[idx]
    return trial


def apply_crossover(strategy: StrategyId, target, donor, cr: float, rng: RngStream) -> np.ndarray:
    if strategy.crossover == "bin":
        return crossover_binomial(target, donor, cr, rng)
    return crossover_exponential(target, donor, cr, rng)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalSearchBudget:
    """Budget for the per-trial quasi-Newton refinement."""

    enabled: bool = True
    max_iterations: int = 25
    gradient_step: float = 1e-6
    probability: float = 1.0

    def __post_init__(self):
        if self.enabled and self.max_iterations < 1:
            raise ConfigError("local search needs max_iterations >= 1 when enabled")
        if not 0.0 < self.gradient_step < 1.0:
            raise ConfigError(f"gradient_step must lie in (0, 1), got {self.gradient_step}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must lie in [0, 1], got {self.probability}")


def finite_difference_gradient(objective, x, step: float = 1e-6, lows=None, highs=None) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h_j = step*max(1, |x_j|).

    When bounds are supplied, probe points are clamped inside them, which
    degrades gracefully to a one-sided difference at the box boundary (some
    objectives are only defined inside the box).
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for j in range(x.size):
        h = step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        if lows is not None:
            xp[j] = min(xp[j], highs[j])
            xm[j] = max(xm[j], lows[j])
        denom = xp[j] - xm[j]
        grad[j] = (objective(xp) - objective(xm)) / denom if denom > 0.0 else 0.0
    return grad


def local_refine(objective, x0, space: SearchSpace, budget: LocalSearchBudget):
    """Box-constrained L-BFGS descent from ``x0``.

    Gradients come from central finite differences, every probe counts as an
    objective evaluation, and the result is never worse than the start point
    nor outside the box. Returns (x, f, evals).
    """
    x0 = clip_to_bounds(x0, space)
    count = 0

    def wrapped(z):
        nonlocal count
        count += 1
        return float(objective(np.asarray(z, dtype=float)))

    f0 = wrapped(x0)
    if not np.isfinite(f0):
        raise DomainError(f"objective is non-finite at the local-search start point: {f0}")

    result = minimize(
        wrapped,
        x0,
        jac=lambda z: finite_difference_gradient(
            wrapped, z, budget.gradient_step, lows=space.lows, highs=space.highs
        ),
        method="L-BFGS-B",
        bounds=space.as_pairs(),
        options={"maxiter": budget.max_iterations, "ftol": 1e-15, "gtol": 1e-10},
    )
    x_new = clip_to_bounds(result.x, space)
    f_new = float(result.fun)
    if not np.isfinite(f_new) or f_new > f0:
        return x0, f0, count
    return x_new, f_new, count
