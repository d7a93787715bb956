"""Variation machinery: generation-linked F/CR schedules, differential
mutation strategies, binomial/exponential crossover, and the bounded
quasi-Newton local refinement step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    DomainError,
    RngStream,
    SearchSpace,
    ShapeError,
    clip_to_bounds,
    evaluate_rows,
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
    def uses_k(self) -> bool:
        return self.mutation in _USES_K

    @property
    def index_count(self) -> int:
        return MUTATION_INDEX_COUNT[self.mutation]


def draw_distinct(rng: RngStream, pool: int, k: int, m: int, skip=None) -> np.ndarray:
    """``(m, k)`` indices from ``range(pool)``, distinct within each row, each
    row a uniformly random ordered pick; row r never holds ``skip[r]`` when an
    ``(m,)`` index array ``skip`` is given.

    Every row is first drawn with replacement; the rows that hold a repeat are
    drawn again without replacement, a column at a time. A row is a uniform
    ordered pick either way, so the result is exact, in two RNG calls.
    """
    s = 0 if skip is None else 1        # indices each row leaves out
    picks = rng.integers(0, pool - s, size=(m, k))
    if s:
        picks += picks >= skip[:, None]
    ordered = np.sort(picks, axis=1)
    redo = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    taken = np.empty((redo.size, s + k), dtype=np.intp)
    if s:
        taken[:, 0] = skip[redo]
    ranks = rng.integers(0, pool - s - np.arange(k), size=(redo.size, k))
    for j in range(k):
        # column j takes the free index of rank r: r plus the count of taken
        # indices c_t (ascending, t = 0, 1, ...) with c_t - t <= r
        below = np.sort(taken[:, :s + j], axis=1) - np.arange(s + j)
        r = ranks[:, j]
        taken[:, s + j] = r + (below <= r[:, None]).sum(axis=1)
    picks[redo] = taken[:, s:]
    return picks


def mutation_donors(strategy: StrategyId, pop, bases, best, f: float, k) -> np.ndarray:
    """Donor vectors, one per row of ``bases``, without bound repair.

    Row i of ``bases`` holds the ``index_count`` random base indices into
    ``pop`` of member i, the member that the current-to-* and ADED
    strategies start from, and ``k[i]`` is its current-to-* coefficient.
    """
    x = np.asarray(pop, dtype=float)
    r = [x[bases[:, j]] for j in range(strategy.index_count)]
    k = np.asarray(k, dtype=float)[:, None]
    m = strategy.mutation
    if m == "rand1":
        return r[0] + f * (r[1] - r[2])
    if m == "best1":
        return best + f * (r[0] - r[1])
    if m == "rand2":
        return r[0] + f * (r[1] - r[2] + r[3] - r[4])
    if m == "best2":
        return best + f * (r[0] - r[1] + r[2] - r[3])
    if m == "currenttorand1":
        return x + k * (r[2] - x) + f * (r[0] - r[1])
    if m == "currenttobest1":
        return x + k * (best - x) + f * (r[0] - r[1])
    if m == "randtobest1":
        return r[0] + f * (best - r[0]) + f * (r[1] - r[2])
    if m == "adedrand":
        return x + f * (r[0] - x) + f * (r[1] - r[2])
    if m == "adedneighbors":
        return x + f * (r[0] - x) + f * (r[1] - x)
    raise ConfigError(f"unhandled mutation {m!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def draw_crossover(kind: str, d: int, cr: float, rng: RngStream, m: int) -> np.ndarray:
    """``(m, d)`` masks of the components m trials take from their donors.

    Each trial draws a start index; ``bin`` then takes each component on a
    uniform below CR, and the start one always; ``exp`` takes a circular run
    from the start whose length is 1 plus the number of leading uniforms
    below CR among d - 1.
    """
    if not 0.0 <= cr <= 1.0:
        raise ConfigError(f"CR must lie in [0, 1], got {cr}")
    firsts = rng.integers(d, size=m)
    if kind == "bin":
        take = rng.random((m, d)) < cr
        take[np.arange(m), firsts] = True      # at least one donor component
        return take
    extend = rng.random((m, d - 1)) < cr
    lengths = 1 + np.logical_and.accumulate(extend, axis=1).sum(axis=1)
    return (np.arange(d) - firsts[:, None]) % d < lengths[:, None]


def _crossover(kind: str, target, donor, cr: float, rng: RngStream) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ShapeError(f"target {target.shape} vs donor {donor.shape}")
    return np.where(draw_crossover(kind, target.size, cr, rng, 1)[0], donor, target)


def crossover_binomial(target, donor, cr: float, rng: RngStream) -> np.ndarray:
    """Per-component Bernoulli mix; at least one donor component survives."""
    return _crossover("bin", target, donor, cr, rng)


def crossover_exponential(target, donor, cr: float, rng: RngStream) -> np.ndarray:
    """Copy a circular run of consecutive donor components, length >= 1."""
    return _crossover("exp", target, donor, cr, rng)


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

    def refines(self, rng: RngStream, m: int) -> np.ndarray:
        """Mask of which of m trials are refined: one uniform per trial when
        refinement is on with a probability below 1, no draw otherwise."""
        if not self.enabled or self.probability >= 1.0:
            return np.full(m, self.enabled)
        return rng.random(m) < self.probability


def finite_difference_gradient(objective, x, step: float = 1e-6, lows=None, highs=None) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h_j = step*max(1, |x_j|).

    When bounds are supplied, probe points are clamped inside them, which
    degrades gracefully to a one-sided difference at the box boundary (some
    objectives are only defined inside the box). The 2d probes, x + h_j e_j
    then x - h_j e_j for each j, go to the objective as one ``(2d, d)`` batch
    when it is ``batched``, else one at a time in that order.
    """
    x = np.asarray(x, dtype=float)
    h = step * np.maximum(1.0, np.abs(x))
    up, down = x + h, x - h
    if lows is not None:
        up, down = np.minimum(up, highs), np.maximum(down, lows)
    j = np.arange(x.size)
    probes = np.repeat(x[None, :], 2 * x.size, axis=0)
    probes[2 * j, j] = up
    probes[2 * j + 1, j] = down
    values = evaluate_rows(objective, probes)
    denom = up - down
    grad = np.zeros_like(x)
    np.divide(values[0::2] - values[1::2], denom, out=grad, where=denom > 0.0)
    return grad


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use, so that ``import
    aded`` does not load ``scipy.optimize`` for runs that never refine."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def local_refine(objective, x0, space: SearchSpace, budget: LocalSearchBudget):
    """Box-constrained L-BFGS descent from ``x0``.

    Gradients come from central finite differences, every probe counts as an
    objective evaluation, and the result is never worse than the start point
    nor outside the box. A ``batched`` objective gets each gradient's probes
    in one call. Returns (x, f, evals).
    """
    x0 = clip_to_bounds(x0, space)
    f0 = float(objective(x0))
    if not np.isfinite(f0):
        raise DomainError(f"objective is non-finite at the local-search start point: {f0}")
    count = 1
    at_start = True

    def wrapped(z):
        nonlocal count, at_start
        z = np.asarray(z, dtype=float)
        if at_start:            # L-BFGS-B first asks for f(x0), known already
            at_start = False
            if np.array_equal(z, x0):
                return f0
        count += 1
        return float(objective(z))

    def probes(points):
        nonlocal count
        count += len(points)
        return evaluate_rows(objective, points)

    probes.batched = True

    result = minimize(
        wrapped,
        x0,
        jac=lambda z: finite_difference_gradient(
            probes, z, budget.gradient_step, lows=space.lows, highs=space.highs
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
