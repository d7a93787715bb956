"""Multi-objective optimization: Pareto-dominance primitives, weighted
scalarization, non-dominated filtering, and the multi-objective variant of
the adaptive engine (dominance-gated admission with an archive front).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ConfigError, RngStream, SearchSpace, ShapeError, clip_to_bounds, init_population
from .engine import EngineConfig, _CountingObjective, has_converged
from .variation import local_refine


def pareto_dominates(a, b) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly better
    somewhere (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ShapeError(f"objective vectors differ in shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def scalarize(objs, weights) -> float:
    """Weighted sum of objectives; weights must be non-negative, not all zero."""
    objs = np.asarray(objs, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if objs.shape != weights.shape:
        raise ShapeError(f"objectives {objs.shape} vs weights {weights.shape}")
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ConfigError("weights must be non-negative with a positive sum")
    return float(objs @ weights)


def nondominated_filter(points) -> np.ndarray:
    """Indices of points dominated by no other point, in ascending order."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ConfigError("nondominated_filter needs at least one point")
    n = pts.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        dominated = np.all(pts <= pts[i], axis=1) & np.any(pts < pts[i], axis=1)
        if dominated.any():
            keep[i] = False
    return np.flatnonzero(keep)


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


def _archive_insert(archive_x: list, archive_obj: list, x, objs) -> None:
    """Keep the archive mutually non-dominated; exact duplicates are skipped."""
    if archive_obj:
        a = np.array(archive_obj)
        if np.any(np.all(a == objs, axis=1)):
            return
        if np.any(np.all(a <= objs, axis=1) & np.any(a < objs, axis=1)):
            return
        survivors = ~(np.all(objs <= a, axis=1) & np.any(objs < a, axis=1))
        if not survivors.all():
            archive_x[:] = [v for v, s in zip(archive_x, survivors) if s]
            archive_obj[:] = [v for v, s in zip(archive_obj, survivors) if s]
    archive_x.append(np.array(x))
    archive_obj.append(np.array(objs))


def run_aded_mo(objectives, space: SearchSpace, cfg: EngineConfig, weights) -> MoResult:
    """Multi-objective adaptive run.

    Per generation each individual spawns a trial pulled toward two random
    population members, optionally refined against the scalarized objective;
    a trial joins the next population only if no already-admitted trial
    dominates it. The reported front is the non-dominated set over every
    admitted point, and the run stops on generation budget or when the
    scalarized best stagnates.
    """
    t0 = time.perf_counter()
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0.0) or weights.sum() <= 0.0:
        raise ConfigError("weights must be non-negative with a positive sum")
    rng = RngStream(cfg.seed)
    counting = _CountingObjective(objectives, convert=partial(np.asarray, dtype=float))
    ls = cfg.local_search

    def scalar_objective(z):
        return scalarize(counting(z), weights)

    n = cfg.population_size
    x = init_population(space, n, rng)

    archive_x: list = []
    archive_obj: list = []
    best_x = None
    best_obj = None
    scal_hist: list = []
    front_size_hist: list = []
    terminated_by = "max-generations"

    fixed = cfg.schedule.resolve_fixed(rng) if cfg.schedule.mode == "fixed" else None

    for gen in range(cfg.max_generations):
        f_rate, _ = cfg.schedule.rates_at(gen, cfg.max_generations, fixed)
        new_x: list = []
        new_obj: list = []
        for i in range(n):
            counting.context = f"generation {gen}, individual {i}"
            r = rng.choice(n, size=2, replace=False)
            trial = x[i] + f_rate * (x[r[0]] - x[i]) + f_rate * (x[r[1]] - x[i])
            trial = clip_to_bounds(trial, space)
            if ls.enabled and (ls.probability >= 1.0 or rng.random() < ls.probability):
                trial, _, _ = local_refine(scalar_objective, trial, space, ls)
            objs = counting(trial)
            dominated = any(pareto_dominates(o, objs) for o in new_obj)
            if not dominated:
                new_x.append(trial)
                new_obj.append(objs)
                _archive_insert(archive_x, archive_obj, trial, objs)
            if best_obj is None or pareto_dominates(objs, best_obj):
                best_x, best_obj = trial, objs
        scal_hist.append(scalarize(best_obj, weights))
        front_size_hist.append(len(archive_obj))
        if len(new_x) < n:
            fill = rng.uniform(space.lows, space.highs, size=(n - len(new_x), space.dim))
            x = np.vstack([new_x, fill]) if new_x else fill
        else:
            x = np.array(new_x)
        if has_converged(scal_hist, cfg.stagnation_limit, cfg.stagnation_tol):
            terminated_by = "stagnation"
            break

    keep = nondominated_filter(np.array(archive_obj))
    front = [(archive_x[i], archive_obj[i]) for i in keep]
    scal_values = [scalarize(o, weights) for _, o in front]
    best_idx = int(np.argmin(scal_values))
    return MoResult(
        front=front,
        best_scalarized=(front[best_idx][0], scal_values[best_idx]),
        front_size_history=front_size_hist,
        n_evaluations=counting.count,
        wall_seconds=time.perf_counter() - t0,
        terminated_by=terminated_by,
        seed=cfg.seed,
    )
