"""Multi-objective optimization: Pareto-dominance primitives, weighted
scalarization, non-dominated filtering, and the multi-objective engine: the
adaptive engine's generation loop with dominance-gated admission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, RngStream, SearchSpace, ShapeError, clip_to_bounds, init_population
from .engine import EngineConfig, _CountingObjective, _evaluate_trials, _generations
from .variation import StrategyId, draw_distinct, mutation_donors

# each trial is its donor, with no crossover: x + F (x_a - x) + F (x_b - x), x_a, x_b members
_PULL = StrategyId("adedneighbors", "bin")


def _dominates(a, b):
    """Pareto dominance (minimization) over the last axis, broadcasting over
    the leading ones: no worse everywhere and strictly better somewhere."""
    return np.all(a <= b, axis=-1) & np.any(a < b, axis=-1)


def pareto_dominates(a, b) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly better
    somewhere (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
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
    beaten[m:] |= np.tril(np.all(new_obj[:, None] == objs, axis=-1), m - 1).any(axis=1)
    return np.concatenate([arch_x, new_x])[~beaten], objs[~beaten]


def run_aded_mo(objectives, space: SearchSpace, cfg: EngineConfig, weights) -> MoResult:
    """Multi-objective adaptive run.

    Per generation each individual spawns a trial pulled toward two random
    population members, optionally refined against the scalarized objective.
    Trials are admitted in index order: a trial joins the next population
    only if no earlier admitted trial of the generation dominates it, so a
    trial admitted early stays even when a later trial dominates it. The
    archive does prune such a trial: it holds the points admitted so far
    that no admitted point dominates, and it is the reported front. Random
    points fill the population back up. The loop is ``run_aded``'s: it stops
    on generation budget or when the scalarized best stagnates.
    """
    t0 = time.perf_counter()
    weights = np.asarray(weights, dtype=float)
    _check_weights(weights)
    rng = RngStream(cfg.seed)
    counting = _CountingObjective(objectives, multi=True)

    def scalar(objs):
        return _weighted(objs, weights)

    n = cfg.population_size
    x = init_population(space, n, rng)
    fixed = cfg.schedule.resolve_fixed(rng) if cfg.schedule.mode == "fixed" else None
    arch_x = arch_obj = best_obj = None
    front_size_hist: list = []

    def step(gen, f_rate, _cr):
        nonlocal x, arch_x, arch_obj, best_obj
        pulls = draw_distinct(rng, n, 2, n)
        refine = cfg.local_search.refines(rng, n)
        trials = clip_to_bounds(mutation_donors(_PULL, x, pulls, None, f_rate, np.zeros(n)), space)
        trial_objs = _evaluate_trials(counting, trials, refine, gen, space, cfg.local_search, scalar)
        admitted = _admit(trial_objs)
        if arch_obj is None:                   # the objective count is known now
            arch_x, arch_obj = trials[:0], trial_objs[:0]
        arch_x, arch_obj = _archive_add(arch_x, arch_obj, trials[admitted], trial_objs[admitted])
        for objs in trial_objs:
            if best_obj is None or _dominates(objs, best_obj):
                best_obj = objs
        front_size_hist.append(len(arch_obj))
        x = trials[admitted]
        if len(x) < n:
            fill = rng.uniform(space.lows, space.highs, size=(n - len(x), space.dim))
            x = np.vstack([x, fill])
        return float(scalar(best_obj))

    _, terminated_by = _generations(cfg, fixed, step)
    scal_values = scalar(arch_obj)
    best_idx = int(np.argmin(scal_values))
    return MoResult(
        front=list(zip(arch_x, arch_obj)),
        best_scalarized=(arch_x[best_idx], float(scal_values[best_idx])),
        front_size_history=front_size_hist,
        n_evaluations=counting.count,
        wall_seconds=time.perf_counter() - t0,
        terminated_by=terminated_by,
        seed=cfg.seed,
    )
