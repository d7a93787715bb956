"""Diagnostic metrics: fitness-distance correlation, population diversity,
convergence rate, success/quality measures over lists of run results, and the
generational-distance and spread indicators for multi-objective fronts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SearchSpace, ShapeError


class UndefinedMetricError(ValueError):
    """The metric is not defined for the given input (no variance, singleton, ...)."""


def _positions(population) -> np.ndarray:
    x = np.asarray(population, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected an (n, dim) population matrix, got shape {x.shape}")
    return x


# ---------------------------------------------------------------------------
# Per-generation diagnostics
# ---------------------------------------------------------------------------

def fdc(population, fitnesses, reference) -> float:
    """Pearson correlation between fitness and Euclidean distance to ``reference``.

    The reference point is conventionally the current population best. Raises
    UndefinedMetricError when either fitness or distance has zero variance.
    """
    x = _positions(population)
    f = np.asarray(fitnesses, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if x.shape[0] != f.size:
        raise ShapeError(f"{x.shape[0]} members but {f.size} fitness values")
    if x.shape[0] < 3:
        raise UndefinedMetricError("fitness-distance correlation needs at least 3 members")
    d = np.linalg.norm(x - ref, axis=1)
    fv = f - f.mean()
    dv = d - d.mean()
    denom = np.sqrt(np.sum(fv * fv) * np.sum(dv * dv))
    if denom == 0.0:
        raise UndefinedMetricError("zero variance in fitness or distance")
    return float(np.clip(np.sum(fv * dv) / denom, -1.0, 1.0))


# Elements in one block of pairwise differences (8 bytes each: 256 KB, which
# measured faster than 1 MB blocks and keeps the temporaries out of peak RSS).
_DISTANCE_BLOCK = 1 << 15


def _squared_distances(p, q) -> np.ndarray:
    """Squared Euclidean distances from each row of ``p`` (r, d) to each row
    of ``q`` (m, d), as an (r, m) array, with the bits of
    ``np.add.reduce(diff * diff, axis=-1)`` over the row differences. NumPy
    adds fewer than 8 terms left to right; so does this, a coordinate at a
    time, which is much faster than its reduction over a short last axis."""
    if p.shape[1] >= 8:
        diff = p[:, None, :] - q[None, :, :]
        return np.add.reduce(diff * diff, axis=-1)
    sq = 0.0
    for pc, qc in zip(p.T, q.T):
        diff = pc[:, None] - qc[None, :]
        sq = sq + diff * diff
    return sq


def diversity(population, space: SearchSpace) -> float:
    """Mean pairwise Euclidean distance, normalized by the box diagonal.

    Distances are computed a block of members at a time. The distances from
    member i to the members after it are summed as one vector, and these
    sums are added in member order.
    """
    x = _positions(population)
    n, d = x.shape
    if n < 2:
        raise UndefinedMetricError("diversity needs at least 2 members")
    rows = max(1, _DISTANCE_BLOCK // (n * d))
    total = 0.0
    for a in range(0, n - 1, rows):
        # distances of members a + i and a + 1 + j
        dist = np.sqrt(_squared_distances(x[a:a + rows], x[a + 1:]))
        for i in range(dist.shape[0]):
            total += float(np.add.reduce(dist[i, i:]))
    mean_pairwise = total / (n * (n - 1) / 2)
    return mean_pairwise / space.diagonal()


def convergence_rate(history) -> np.ndarray:
    """First differences of a best-fitness series (non-positive for elitist runs)."""
    h = np.asarray(history, dtype=float)
    if h.ndim != 1 or h.size < 2:
        raise ShapeError("convergence rate needs a 1-d history of length >= 2")
    return np.diff(h)


# ---------------------------------------------------------------------------
# Batch measures
# ---------------------------------------------------------------------------

# A run succeeds when its final best fitness lies within this distance of the
# benchmark's known optimum.
SUCCESS_TOL = 1e-4


def _finals(results) -> np.ndarray:
    """Final best fitness of each run result."""
    if not results:
        raise ConfigError("batch measures need at least one run result")
    return np.array([r.best_f for r in results], dtype=float)


def _successes(results, optimum) -> np.ndarray:
    if optimum is None:
        raise ConfigError("success measures need a known optimum")
    return np.abs(_finals(results) - optimum) <= SUCCESS_TOL


def success_rate(results, optimum) -> float:
    """Fraction of runs that landed within SUCCESS_TOL of the known optimum."""
    mask = _successes(results, optimum)
    return float(mask.sum() / mask.size)


@dataclass(frozen=True)
class QMeasure:
    """Evaluations-per-success quality measure and its two factors."""

    c: float            # mean evaluations over successful runs
    p: float            # probability of convergence
    q: float            # c / p; +inf when nothing converged
    n_success: int
    n_runs: int


def q_measure(results, optimum) -> QMeasure:
    """Feoktistov's Q-measure C/P over a list of run results."""
    mask = _successes(results, optimum)
    n_runs = mask.size
    n_success = int(mask.sum())
    if n_success == 0:
        return QMeasure(float("inf"), 0.0, float("inf"), 0, n_runs)
    evaluations = np.array([r.n_evaluations for r in results], dtype=float)
    c = float(evaluations[mask].sum() / n_success)
    p = n_success / n_runs
    return QMeasure(c, p, c / p, n_success, n_runs)


def convergence_speed(results) -> float:
    """Minimum final best fitness across the runs (fastest full descent)."""
    return float(_finals(results).min())


def aov(results) -> float:
    """Average objective value: mean of per-run best fitness."""
    return float(_finals(results).mean())


# ---------------------------------------------------------------------------
# Front indicators
# ---------------------------------------------------------------------------

def _fronts(obtained, reference) -> tuple:
    """The obtained front and the reference front it is scored against, as
    2-D float arrays: both non-empty, with one objective count."""
    obtained = np.atleast_2d(np.asarray(obtained, dtype=float))
    reference = np.atleast_2d(np.asarray(reference, dtype=float))
    if obtained.size == 0 or reference.size == 0:
        raise ConfigError("both fronts must be non-empty")
    if obtained.shape[1] != reference.shape[1]:
        raise ShapeError(f"objective counts differ: {obtained.shape[1]} vs {reference.shape[1]}")
    return obtained, reference


def generational_distance(obtained, reference) -> float:
    """Root-mean-square distance from each reference point to its nearest
    obtained point: the inverted GD of Coello Coello & Reyes Sierra (2004),
    not Van Veldhuizen's GD over the obtained points. Distances are
    computed a block of reference points at a time against the whole
    obtained front, one objective at a time (see ``_squared_distances``),
    with the bits of a per-point ``np.sum((obtained - p) ** 2, axis=1)``."""
    obtained, reference = _fronts(obtained, reference)
    rows = max(1, _DISTANCE_BLOCK // obtained.size)
    sq = np.concatenate([
        _squared_distances(reference[a:a + rows], obtained).min(axis=1)
        for a in range(0, reference.shape[0], rows)
    ])
    return float(np.sqrt(sq.mean()))


def spread(obtained, reference) -> float:
    """Dispersion of the obtained front: consecutive-gap deviation plus the
    distances from the reference extremes to the obtained boundary points."""
    q, reference = _fronts(obtained, reference)
    if q.shape[0] < 2:
        raise UndefinedMetricError("spread needs at least 2 obtained points")
    order = np.lexsort(q.T[::-1])          # sort by f1, then f2, ...
    q = q[order]
    ref = reference[np.lexsort(reference.T[::-1])]
    d_f = float(np.linalg.norm(ref[0] - q[0]))
    d_l = float(np.linalg.norm(ref[-1] - q[-1]))
    gaps = np.linalg.norm(np.diff(q, axis=0), axis=1)
    d_bar = float(gaps.mean())
    numerator = d_f + d_l + float(np.sum(np.abs(gaps - d_bar)))
    denominator = d_f + d_l + (q.shape[0] - 1) * d_bar
    if denominator == 0.0:
        return 0.0
    return numerator / denominator
