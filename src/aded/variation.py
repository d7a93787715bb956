"""Variation machinery: generation-linked F/CR schedules, differential
mutation strategies, binomial/exponential crossover, and the bounded
quasi-Newton local refinement: a projected L-BFGS (memory 10, Armijo
backtracking) that refines many trials in lockstep, with batched
central-difference probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    ConfigError,
    SearchSpace,
    ShapeError,
    _CountingObjective,
    _integer,
    clip_to_bounds,
    evaluate_rows,
)

# ---------------------------------------------------------------------------
# F / CR schedules
# ---------------------------------------------------------------------------

# Fixed-mode draw ranges when no explicit pair is supplied.
FIXED_F_RANGE = (0.5, 2.0)
FIXED_CR_RANGE = (0.1, 0.9)


def _progress(generation: int, max_generations: int) -> float:
    """The fraction ``generation / max_generations`` of a run gone by."""
    if max_generations <= 0:
        raise ConfigError("max_generations must be positive")
    if not 0 <= generation <= max_generations:
        raise ConfigError(f"generation {generation} outside [0, {max_generations}]")
    return generation / max_generations


def adaptive_mutation_rate(generation: int, max_generations: int, initial_f: float) -> float:
    """Linearly decaying mutation factor: initial_f * (1 - generation / max)."""
    return initial_f * (1.0 - _progress(generation, max_generations))


def adaptive_crossover_rate(generation: int, max_generations: int, initial_cr: float) -> float:
    """Linearly growing crossover rate: initial_cr * (generation / max)."""
    return initial_cr * _progress(generation, max_generations)


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
        for name, f in (("initial_f", self.initial_f), ("fixed_f", self.fixed_f)):
            if f is not None and not 0.0 < f <= 2.0:
                raise ConfigError(f"{name} must lie in (0, 2], got {f}")
        for name, cr in (("initial_cr", self.initial_cr), ("fixed_cr", self.fixed_cr)):
            if cr is not None and not 0.0 <= cr <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {cr}")
        # each rate is stored as the float it was checked as, so initial_f=1 hashes as 1.0
        for name in ("initial_f", "initial_cr", "fixed_f", "fixed_cr"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)))

    def resolve_fixed(self, rng: np.random.Generator) -> tuple | None:
        """Constant (F, CR) pair for a fixed-mode run, drawing if unspecified;
        None for a scheduled run, which draws nothing."""
        if self.mode == "scheduled":
            return None
        f = self.fixed_f if self.fixed_f is not None else float(rng.uniform(*FIXED_F_RANGE))
        cr = self.fixed_cr if self.fixed_cr is not None else float(rng.uniform(*FIXED_CR_RANGE))
        return f, cr


# ---------------------------------------------------------------------------
# Mutation strategies
# ---------------------------------------------------------------------------

# mutation kind -> (distinct random indices r consumed per donor, whether it
# draws the current-to-* coefficient k, its donors from the members x, their
# picks r, the best point, F and k)
MUTATIONS = {
    "rand1": (3, False, lambda x, r, best, f, k: r[0] + f * (r[1] - r[2])),
    "best1": (2, False, lambda x, r, best, f, k: best + f * (r[0] - r[1])),
    "rand2": (5, False, lambda x, r, best, f, k: r[0] + f * (r[1] - r[2] + r[3] - r[4])),
    "best2": (4, False, lambda x, r, best, f, k: best + f * (r[0] - r[1] + r[2] - r[3])),
    "currenttorand1": (3, True, lambda x, r, best, f, k: x + k * (r[2] - x) + f * (r[0] - r[1])),
    "currenttobest1": (2, True, lambda x, r, best, f, k: x + k * (best - x) + f * (r[0] - r[1])),
    "randtobest1": (3, False,
                    lambda x, r, best, f, k: r[0] + f * (best - r[0]) + f * (r[1] - r[2])),
    "adedrand": (3, False, lambda x, r, best, f, k: x + f * (r[0] - x) + f * (r[1] - r[2])),
    "adedneighbors": (2, False, lambda x, r, best, f, k: x + f * (r[0] - x) + f * (r[1] - x)),
}

CROSSOVER_KINDS = ("bin", "exp")


@dataclass(frozen=True)
class StrategyId:
    """A mutation kind paired with a crossover kind, e.g. rand1 + bin."""

    mutation: str
    crossover: str

    def __post_init__(self):
        if self.mutation not in MUTATIONS:
            raise ConfigError(f"unknown mutation {self.mutation!r}; "
                              f"choose from {sorted(MUTATIONS)}")
        if self.crossover not in CROSSOVER_KINDS:
            raise ConfigError(f"unknown crossover {self.crossover!r}; choose bin or exp")

    @classmethod
    def parse(cls, name: str) -> "StrategyId":
        name = name.strip().lower().replace("-", "").replace("_", "").replace("/", "")
        for suffix in CROSSOVER_KINDS:
            if name.endswith(suffix) and name[: -len(suffix)] in MUTATIONS:
                return cls(name[: -len(suffix)], suffix)
        raise ConfigError(f"cannot parse strategy id {name!r}")

    @property
    def name(self) -> str:
        return f"{self.mutation}{self.crossover}"

    @property
    def uses_k(self) -> bool:
        return MUTATIONS[self.mutation][1]

    @property
    def index_count(self) -> int:
        return MUTATIONS[self.mutation][0]


def draw_distinct(rng: np.random.Generator, pool: int, k: int, m: int, skip=None) -> np.ndarray:
    """``(m, k)`` indices from ``range(pool)``, distinct within each row, each
    row a uniformly random ordered pick; row r never holds ``skip[r]`` when an
    ``(m,)`` index array ``skip`` is given.

    Every row is first drawn with replacement; the rows that hold a repeat,
    found by comparing each pair of its k columns (k(k - 1)/2 compares of
    ``(m,)`` columns, about a third of the cost of a row sort at k = 3), are drawn
    again without replacement, a column at a time. A row is a uniform
    ordered pick either way, so the result is exact, in two RNG calls.
    """
    s = 0 if skip is None else 1        # indices each row leaves out
    picks = rng.integers(0, pool - s, size=(m, k))
    if s:
        picks += picks >= skip[:, None]
    repeats = np.zeros(m, dtype=bool)
    for i, j in combinations(range(k), 2):
        repeats |= picks[:, i] == picks[:, j]
    redo = repeats.nonzero()[0]
    # a redo row is [skip | ranks], rank j among the indices still free;
    # decoded last column first, each later entry steps over each earlier one
    codes = np.empty((redo.size, s + k), dtype=np.intp)
    if s:
        codes[:, 0] = skip[redo]
    codes[:, s:] = rng.integers(0, pool - s - np.arange(k), size=(redo.size, k))
    for i in range(s + k - 2, -1, -1):
        tail = codes[:, i + 1:]
        tail += tail >= codes[:, i:i + 1]
    picks[redo] = codes[:, s:]
    return picks


def mutation_donors(strategy: StrategyId, pop, bases, best, f: float, k) -> np.ndarray:
    """Donor vectors, one per row of ``bases``, without bound repair.

    Row i of ``bases`` holds the ``index_count`` random base indices into
    ``pop`` of member i, the member that the current-to-* and ADED
    strategies start from, and ``k[i]`` is its current-to-* coefficient.
    """
    x = np.asarray(pop, dtype=float)
    r = x.take(bases.T, axis=0)         # r[j][i] is member i's j-th base
    donor = MUTATIONS[strategy.mutation][2]
    return donor(x, r, best, f, np.asarray(k, dtype=float)[:, None])


# ---------------------------------------------------------------------------
# Crossover
# ---------------------------------------------------------------------------

def crossover_draws(kind: str, d: int, rng: np.random.Generator, m: int) -> tuple:
    """The randomness of m trials' crossover, which no CR enters: ``(m,)``
    start indices, then ``(m, d)`` uniforms for ``bin`` or ``(m, d - 1)``
    for ``exp``, in two RNG calls."""
    return rng.integers(d, size=m), rng.random((m, d if kind == "bin" else d - 1))


def crossover_masks(kind: str, firsts, uniforms, cr: float) -> np.ndarray:
    """``(m, d)`` masks of the components m trials take from their donors,
    from their ``crossover_draws`` thresholded at ``cr``.

    ``bin`` takes each component on a uniform below CR, and the start one
    always; ``exp`` takes a circular run from the start whose length is 1
    plus the number of leading uniforms below CR among d - 1.
    """
    if not 0.0 <= cr <= 1.0:
        raise ConfigError(f"CR must lie in [0, 1], got {cr}")
    take = uniforms < cr
    if kind == "bin":
        # at least one donor component
        take.put(np.arange(0, take.size, take.shape[1]) + firsts, True)
        return take
    d = take.shape[1] + 1
    lengths = 1 + np.logical_and.accumulate(take, axis=1).sum(axis=1)
    return (np.arange(d) - firsts[:, None]) % d < lengths[:, None]


def _crossover(kind: str, target, donor, cr: float, rng: np.random.Generator) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    donor = np.asarray(donor, dtype=float)
    if target.shape != donor.shape:
        raise ShapeError(f"target {target.shape} vs donor {donor.shape}")
    take = crossover_masks(kind, *crossover_draws(kind, target.size, rng, 1), cr)[0]
    return np.where(take, donor, target)


def crossover_binomial(target, donor, cr: float, rng: np.random.Generator) -> np.ndarray:
    """Per-component Bernoulli mix; at least one donor component survives."""
    return _crossover("bin", target, donor, cr, rng)


def crossover_exponential(target, donor, cr: float, rng: np.random.Generator) -> np.ndarray:
    """Copy a circular run of consecutive donor components, length >= 1."""
    return _crossover("exp", target, donor, cr, rng)


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------

LBFGS_MEMORY = 10        # correction pairs kept per row
FTOL = 1e-15             # a row stops once a step lowers f by at most this, relative
GTOL = 1e-10             # a row stops once no projected-gradient component exceeds this
ARMIJO = 1e-4            # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 20      # step reductions before a row's line search fails
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LocalSearchBudget:
    """Budget for the refinement of trials: projected L-BFGS (memory
    ``LBFGS_MEMORY`` = 10) with central-difference gradients and Armijo
    backtracking, at most ``max_iterations`` steps per trial, applied to each
    trial with ``probability``. A generation's refined trials are refined
    together, their probes sent to the objective in batches. A gradient costs
    a trial at most 2d evaluations: a probe that the box clamps back onto
    the trial's point takes its known value."""

    enabled: bool = True
    max_iterations: int = 25
    gradient_step: float = 1e-6
    probability: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", _integer("max_iterations", self.max_iterations))
        if self.max_iterations < 1 and self.enabled:
            raise ConfigError("local search needs max_iterations >= 1 when enabled")
        if not 0.0 < self.gradient_step < 1.0:
            raise ConfigError(f"gradient_step must lie in (0, 1), got {self.gradient_step}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must lie in [0, 1], got {self.probability}")
        for name in ("gradient_step", "probability"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def refines(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """Mask of which of m trials are refined: one uniform per trial when
        refinement is on with a probability below 1, no draw otherwise."""
        if not self.enabled or self.probability >= 1.0:
            return np.full(m, self.enabled)
        return rng.random(m) < self.probability


def finite_difference_gradient(objective, x, step: float = 1e-6,
                               space: SearchSpace | None = None, *, fx=None) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h_j = step*max(1, |x_j|),
    of one point ``(d,)`` or of each row of an ``(m, d)`` array.

    A ``space`` clamps the probe points inside its box, which degrades
    gracefully to a one-sided difference at the box boundary (some
    objectives are only defined inside the box); without one the probes go
    unclamped. The 2d probes of a point, x + h_j e_j then x - h_j e_j for
    each j, follow one another, point after point; they go to the objective
    as one ``(m * 2d, d)`` batch when it is ``batched``, else one at a time
    in that order.

    ``fx``, the objective's values at the rows of ``x``, spares the probes
    that the clamp leaves equal to their row (those of a coordinate at a
    bound): each takes its row's value. ``objective(points, owners)`` then
    gets the other probes as one batch of at most ``m * 2d`` rows, in the
    same order, and ``owners[k]``, the row of ``x`` that probe k belongs to.
    """
    if not 0.0 < step < np.inf:
        raise ConfigError(f"step must be finite and > 0, got {step}")
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    m, d = rows.shape
    h = step * np.maximum(1.0, np.abs(rows))
    up, down = rows + h, rows - h
    if space is not None:
        up, down = np.minimum(up, space.highs), np.maximum(down, space.lows)
    probes = np.repeat(rows, 2 * d, axis=0)
    # a row's probes, flattened, hold x + h_j e_j's coordinate j at j(2d + 1)
    # and x - h_j e_j's at j(2d + 1) + d
    moved = probes.reshape(m, -1)
    moved[:, ::2 * d + 1] = up
    moved[:, d::2 * d + 1] = down
    if fx is None:
        values = evaluate_rows(objective, probes)
    else:
        up_held, down_held = up == rows, down == rows
        if np.count_nonzero(up_held) or np.count_nonzero(down_held):
            sent = np.flatnonzero(~np.concatenate((up_held[..., None], down_held[..., None]),
                                                  axis=-1))
            values = np.repeat(np.asarray(fx, dtype=float), 2 * d)
            values[sent] = objective(probes.take(sent, axis=0), sent // (2 * d))
        else:
            values = objective(probes, np.arange(m).repeat(2 * d))
    values = values.reshape(m, d, 2)
    denom = up - down
    grad = np.zeros_like(rows)
    np.divide(values[..., 0] - values[..., 1], denom, out=grad, where=denom > 0.0)
    return grad if x.ndim == 2 else grad[0]


def _rowdot(a, b) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("ij,ij->i", a, b)


def _projected_gradient(x, g, space: SearchSpace) -> np.ndarray:
    """Largest component of each row's projected gradient x - P(x - g)."""
    return np.abs(x - (x - g).clip(space.lows, space.highs)).max(axis=1)


def _two_loop(g, s, y, rho, gamma, used: int) -> np.ndarray:
    """The L-BFGS product H g of each row (the two-loop recursion of Nocedal
    & Wright, Algorithm 7.4) over the newest ``used`` slots of the pair
    buffers, the newest last. An empty slot has rho 0 and changes nothing."""
    q = g.copy()
    alphas = []
    slots = range(LBFGS_MEMORY - used, LBFGS_MEMORY)
    for j in reversed(slots):
        alphas.append(rho[:, j] * _rowdot(s[:, j], q))
        q -= alphas[-1][:, None] * y[:, j]
    q *= gamma[:, None]
    for j, alpha in zip(slots, reversed(alphas)):
        beta = rho[:, j] * _rowdot(y[:, j], q)
        q += (alpha - beta)[:, None] * s[:, j]
    return q


def lockstep_refine(evaluate, x0, space: SearchSpace, budget: LocalSearchBudget,
                    scalar=None, refine=None):
    """Evaluate every row of the ``(m, d)`` array ``x0``, clipped into the
    box, in one batch, and refine the rows flagged in ``refine`` (every row
    when it is None) together by ``_descend``. ``evaluate(points, rows)``
    returns the objective's values at the rows of ``points``, point k
    belonging to row ``rows[k]`` of ``x0``; with ``scalar``, they are
    vectors and the descent minimizes ``scalar(values)``.

    Returns (x, values): the rows, inside the box, a refined row never worse
    than its start and an unflagged row its clipped start; and the
    objective's own values there.
    """
    x = clip_to_bounds(x0, space)
    raw = evaluate(x, np.arange(len(x)))
    flagged = np.arange(len(x)) if refine is None else refine.nonzero()[0]
    if flagged.size:         # the descent's state is sized to the flagged rows
        x[flagged], raw[flagged] = _descend(lambda points, rows: evaluate(points, flagged[rows]),
                                            x.take(flagged, axis=0), raw.take(flagged, axis=0),
                                            space, budget, scalar)
    return x, raw


def _descend(evaluate, x, raw, space: SearchSpace, budget: LocalSearchBudget, scalar):
    """Projected L-BFGS descent from every row of the ``(m, d)`` array ``x``
    at once, ``raw`` holding the objective's values there and ``evaluate``
    taking rows of ``x``: the limited-memory BFGS of Liu & Nocedal (1989)
    with bounds handled by projection, as in L-BFGS-B (Byrd, Lu, Nocedal &
    Zhu 1995). Each iteration's central-difference probes of the rows still
    going go out as one batch, and each backtracking round's trial points
    as one batch. The gradient gets ``f``, the values descended on at
    ``x``, so a probe that the box clamps back onto its row (a coordinate
    at a bound) is not evaluated, as L-BFGS-B leaves bound-held variables
    out of its work; this changes evaluation counts, not results.

    Each iteration a row takes its L-BFGS step (the two-loop recursion on
    the gradient, with the components held at a bound by the gradient left
    at zero), or the steepest-descent step -g when it has no pairs or the
    L-BFGS step does not descend, and projects the stepped point onto the
    box. It then backtracks along the segment to that point: the first
    trial is the projected point, and each further one is the minimizer of
    the quadratic through f, its slope along the segment and the last
    trial's value, within [0.1, 0.5] of the last step, until the Armijo
    condition holds. An Armijo demand of at most ``FTOL * max(|f|, 1)``
    counts as zero, since the ``FTOL`` stop below counts a decrease that
    small as no progress: such a row takes its first trial no worse than f,
    and stops unless that trial lowered f by more (a trial the full demand
    takes too). At a floor of the objective's rounding (f = 0.0 exactly near
    the minimum of rastrigin or ackley) no trial can lower f, and the full
    demand would only run the line search out of trials; the approximate
    Wolfe conditions of Hager & Zhang (2005) relax sufficient decrease at
    the objective's resolution for the same reason. A row stops on its own:
    after ``budget.max_iterations`` iterations; when a step lowers f by at
    most ``FTOL`` relative; when its projected gradient is at most
    ``GTOL``; or when a line search fails on a steepest-descent step (a
    failed L-BFGS step drops the row's pairs and retries). Row arithmetic is
    elementwise or a reduction along the row, so each row's result is the
    same whichever rows it is refined with.

    Returns the refined rows and the objective's values there.
    """
    m, d = x.shape

    def values(points, rows):
        """The objective's values at ``points`` and the values descended on."""
        raw = evaluate(points, rows)
        return raw, (raw if scalar is None else scalar(raw))

    def gradient(rows):
        return finite_difference_gradient(lambda points, owners: values(points, rows[owners])[1],
                                          x.take(rows, axis=0), budget.gradient_step, space,
                                          fx=f[rows])

    f = raw if scalar is None else scalar(raw)
    g = gradient(np.arange(m))
    s_pairs = np.zeros((m, LBFGS_MEMORY, d))
    y_pairs = np.zeros((m, LBFGS_MEMORY, d))
    rho = np.zeros((m, LBFGS_MEMORY))
    gamma = np.ones(m)
    pairs = np.zeros(m, dtype=np.intp)
    going = _projected_gradient(x, g, space) > GTOL

    # every row still going has taken the same number of iterations: a row
    # only leaves, and a retried row re-enters within its iteration
    for iteration in range(1, budget.max_iterations + 1):
        if not going.any():
            break
        # rows are gathered by take and compress: at m <= 300, fancy
        # indexing of rows costs 2-3.5 times as much
        a = going.nonzero()[0]
        xa, fa, ga = x.take(a, axis=0), f[a], g.take(a, axis=0)
        held = ((xa <= space.lows) & (ga > 0.0)) | ((xa >= space.highs) & (ga < 0.0))
        free_g = np.where(held, 0.0, ga)
        quasi_newton = -_two_loop(free_g, s_pairs.take(a, axis=0), y_pairs.take(a, axis=0),
                                  rho.take(a, axis=0), gamma[a], pairs[a].max())
        direction = (xa + np.where(held, 0.0, quasi_newton)).clip(space.lows, space.highs) - xa
        slope = _rowdot(ga, direction)
        steepest = (pairs[a] == 0) | (slope >= 0.0)
        direction = np.where(steepest[:, None], (xa - ga).clip(space.lows, space.highs) - xa,
                             direction)
        slope = np.where(steepest, _rowdot(ga, direction), slope)

        # backtrack along the segment from x to x + direction, inside the box;
        # s indexes the rows of a still searching, and ts holds their steps
        moved = np.zeros(a.size, dtype=bool)
        floor = FTOL * np.maximum(np.abs(fa), 1.0)      # an Armijo demand this small is zero
        s, ts, slopes = np.arange(a.size), np.ones(a.size), slope
        for _ in range(MAX_BACKTRACKS + 1):
            rows = a[s]
            points = xa.take(s, axis=0) + ts[:, None] * direction.take(s, axis=0)
            points.clip(space.lows, space.highs, out=points)
            trial_raw, trial_f = values(points, rows)
            demand = ARMIJO * ts * slopes
            demand[-demand <= floor[s]] = 0.0
            ok = trial_f <= fa[s] + demand
            done = rows[ok]
            x[done], f[done] = points.compress(ok, axis=0), trial_f[ok]
            if scalar is not None:
                raw[done] = trial_raw.compress(ok, axis=0)
            moved[s[ok]] = True
            if ok.all():
                break
            keep = ~ok
            s, ts, trial_f = s[keep], ts[keep], trial_f[keep]
            slopes = slope[s]
            # minimizer of the quadratic through f(x), the slope and f(trial),
            # kept within [0.1, 0.5] of the step (0.5 when f(trial) is not finite)
            ts = np.fmax(0.1 * ts, np.fmin(0.5 * ts, -slopes * ts * ts / (
                2.0 * (trial_f - fa[s] - slopes * ts))))

        budget_left = iteration < budget.max_iterations
        scale = np.maximum(np.maximum(np.abs(fa), np.abs(f[a])), 1.0)
        go_on = moved & budget_left & ((fa - f[a]) / scale > FTOL)
        retry = a[~moved & budget_left & (pairs[a] > 0)]
        s_pairs[retry] = y_pairs[retry] = rho[retry] = 0.0
        pairs[retry] = 0
        going[a] = False
        going[retry] = True

        c = a[go_on]
        if c.size:
            g_new = gradient(c)
            xc = x.take(c, axis=0)
            s = xc - xa.compress(go_on, axis=0)
            y = g_new - ga.compress(go_on, axis=0)
            sy, yy = _rowdot(s, y), _rowdot(y, y)
            keep = sy > EPS * yy     # curvature condition
            k = c[keep]
            for buf, new in ((s_pairs, s.compress(keep, axis=0)),
                             (y_pairs, y.compress(keep, axis=0)), (rho, 1.0 / sy[keep])):
                buf[k, :-1] = buf[k, 1:]    # drop the oldest pair, newest last
                buf[k, -1] = new
            gamma[k] = sy[keep] / yy[keep]
            pairs[k] = np.minimum(pairs[k] + 1, LBFGS_MEMORY)
            g[c] = g_new
            going[c] = _projected_gradient(xc, g_new, space) > GTOL

    return x, raw


def local_refine(objective, x0, space: SearchSpace, budget: LocalSearchBudget):
    """Refinement of one point: ``lockstep_refine`` with m = 1.

    Gradients come from central finite differences, and the result is never
    worse than the start point nor outside the box. A ``batched`` objective
    gets each batch of points in one call. Every point goes through the
    evaluation ledger, as in the engines: ``evals`` is its count, and a
    value that is not finite, at any point, raises ``DomainError``. Returns
    (x, f, evals).
    """
    counting = _CountingObjective(objective)

    def evaluate(points, rows):
        return counting.batch(points, lambda r: f"local-search point {points[r]}")

    x, f = lockstep_refine(evaluate, np.asarray(x0, dtype=float)[None], space, budget)
    return x[0], float(f[0]), counting.count
