"""Multi-objective optimization: Pareto-dominance primitives, weighted
scalarization, non-dominated filtering, and the multi-objective engine: the
adaptive engine's generation loop with dominance-gated admission.

Objective vectors are compared one objective at a time: one elementwise
comparison per objective, joined with ``&`` and ``|``. An ``all``/``any``
reduction over a last axis of two or three objectives costs over ten times
as much as those comparisons, and the engine makes such comparisons between
every pair of trials, and between trials and archive, in each generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SearchSpace, ShapeError, init_population
from .engine import EngineConfig, _Run
from .variation import StrategyId, draw_distinct, mutation_donors

# each trial is its donor, with no crossover: x + F (x_a - x) + F (x_b - x), x_a, x_b members
_PULL = StrategyId("adedneighbors", "bin")


def _dominates(a, b):
    """Pareto dominance (minimization) over the last axis, broadcasting over
    the leading ones: no worse everywhere and strictly better somewhere.
    Built one objective at a time, with the booleans of ``np.all(a <= b, -1)
    & np.any(a < b, -1)`` and without their slow short-axis reductions."""
    no_worse = a[..., 0] <= b[..., 0]
    better = a[..., 0] < b[..., 0]
    for j in range(1, a.shape[-1]):
        no_worse &= a[..., j] <= b[..., j]
        better |= a[..., j] < b[..., j]
    return no_worse & better


def _equal(a, b):
    """Objective vectors equal in every objective, broadcasting like
    ``_dominates``: ``np.all(a == b, -1)`` one objective at a time."""
    same = a[..., 0] == b[..., 0]
    for j in range(1, a.shape[-1]):
        same &= a[..., j] == b[..., j]
    return same


def pareto_dominates(a, b) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly better
    somewhere (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    if a.ndim != 1 or a.size == 0:
        raise ShapeError(f"expected non-empty objective vectors (k,), got shape {a.shape}")
    return bool(_dominates(a, b))


def scalarize(objs, weights) -> float:
    """Weighted sum of objectives; weights must be non-negative, not all zero."""
    objs = np.asarray(objs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if objs.shape != weights.shape:
        raise ShapeError(f"objectives {objs.shape} vs weights {weights.shape}")
    _check_weights(weights)
    return float(_weighted(objs, weights))


def _weighted(objs, weights):
    """Weighted sum over the last axis, of one objective vector or of each
    row of a batch; a row's value does not depend on the other rows."""
    return (objs * weights).sum(axis=-1)


def _check_weights(weights) -> None:
    if not (np.isfinite(weights).all() and (weights >= 0.0).all() and weights.sum() > 0.0):
        raise ConfigError(f"weights must be finite, non-negative and not all 0, got {weights}")


def nondominated_filter(points) -> np.ndarray:
    """Indices of points dominated by no other point, in ascending order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ConfigError("nondominated_filter needs at least one point")
    return np.flatnonzero([not _dominates(pts, p).any() for p in pts])


@dataclass
class MoResult:
    """Outcome of a multi-objective run."""

    front: list                        # [(x, objective_vector), ...] mutually non-dominated
    best_scalarized: tuple             # (x, weighted objective value)
    front_size_history: list
    n_evaluations: int
    wall_seconds: float
    terminated_by: str
    seed: int = 0


def _admit(trial_objs) -> np.ndarray:
    """Mask of the trials admitted in index order: trial i is admitted when
    no earlier admitted trial dominates it. A later trial that dominates an
    admitted one does not evict it. By transitivity, an earlier trial that
    dominates trial i and was not admitted was itself dominated by an earlier
    admitted one, so trial i is admitted when no earlier trial dominates it."""
    # row j, column i: trial j dominates trial i; j < i above the diagonal
    return ~np.triu(_dominates(trial_objs[:, None], trial_objs), 1).any(axis=0)


def _archive_add(arch_x, arch_obj, new_x, new_obj):
    """The archive after inserting the new points in order, each unless an
    archived point dominates or equals it, and each evicting what it
    dominates. By transitivity, that keeps the points of old + new that none
    dominates, each objective vector once, in insertion order."""
    m = len(arch_obj)
    objs = np.concatenate([arch_obj, new_obj])
    beaten = _dominates(new_obj[:, None], objs).any(axis=0)
    beaten[m:] |= _dominates(arch_obj[:, None], new_obj).any(axis=0)
    # new point j is row m + j: a repeat of any earlier row is dropped
    beaten[m:] |= np.tril(_equal(new_obj[:, None], objs), m - 1).any(axis=1)
    return np.concatenate([arch_x, new_x])[~beaten], objs[~beaten]


def _best_so_far(best, objs):
    """The best objective vector after scanning the rows of ``objs`` in order:
    a row replaces the best when it dominates it, and the first row replaces
    None. Each link of that chain is the first row after the current best's
    (from the start, for a given best) that dominates it: one dominance call
    per link instead of one per row."""
    i = -1
    if best is None:
        best, i = objs[0], 0
    while True:
        hits = np.flatnonzero(_dominates(objs[i + 1:], best))
        if hits.size == 0:
            return best
        i += 1 + int(hits[0])
        best = objs[i]


def run_aded_mo(objectives, space: SearchSpace, cfg: EngineConfig, weights) -> MoResult:
    """Multi-objective adaptive run.

    Per generation each individual spawns a trial pulled toward two random
    population members, optionally refined against the scalarized objective.
    Trials are admitted in index order: a trial joins the next population
    only if no earlier admitted trial of the generation dominates it, so a
    trial admitted early stays even when a later trial dominates it. The
    archive does prune such a trial: it holds the points admitted so far
    that no admitted point dominates, and it is the reported front. Random
    points fill the population back up. The generations are those of
    ``run_aded``, from the same ``_Run``: the run stops on generation budget
    or when the scalarized best stagnates.
    """
    weights = np.asarray(weights, dtype=float)
    _check_weights(weights)
    run = _Run(objectives, space, cfg, multi=True)

    def scalar(objs):
        return _weighted(objs, weights)

    n, rng = cfg.population_size, run.rng
    x = init_population(space, n, rng)
    fixed = cfg.schedule.resolve_fixed(rng)
    arch_x = arch_obj = best_obj = None
    front_size_hist: list = []
    for gen, f_rate, _cr in run.generations(fixed):
        pulls = draw_distinct(rng, n, 2, n)
        refine = cfg.local_search.refines(rng, n)
        donors = mutation_donors(_PULL, x, pulls, None, f_rate, np.zeros(n))
        trials, trial_objs = run.evaluate(donors, refine, gen, scalar)
        admitted = _admit(trial_objs)
        if arch_obj is None:                   # the objective count is known now
            arch_x, arch_obj = trials[:0], trial_objs[:0]
        arch_x, arch_obj = _archive_add(arch_x, arch_obj, trials[admitted], trial_objs[admitted])
        best_obj = _best_so_far(best_obj, trial_objs)
        front_size_hist.append(len(arch_obj))
        x = trials[admitted]
        if len(x) < n:
            fill = rng.uniform(space.lows, space.highs, size=(n - len(x), space.dim))
            x = np.vstack([x, fill])
        run.history.append(float(scalar(best_obj)))
    scal_values = scalar(arch_obj)
    best_idx = int(np.argmin(scal_values))
    return MoResult(
        front=list(zip(arch_x, arch_obj)),
        best_scalarized=(arch_x[best_idx], float(scal_values[best_idx])),
        front_size_history=front_size_hist,
        **run.record(),
    )
