"""Diagnostic metrics: fitness-distance correlation, population diversity,
convergence rate, success/quality measures over run batches, and the
generational-distance and spread indicators for multi-objective fronts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
_DIVERSITY_BLOCK = 1 << 15


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
    rows = max(1, _DIVERSITY_BLOCK // (n * d))
    columns = np.ascontiguousarray(x.T)
    total = 0.0
    for a in range(0, n - 1, rows):
        # squared distances of members a + i and a + 1 + j
        if d < 8:
            # NumPy adds fewer than 8 terms left to right; so does this, a
            # coordinate at a time, which is much faster than its reduction
            # over a short last axis
            sq = 0.0
            for c in columns:
                diff = c[a:a + rows, None] - c[None, a + 1:]
                sq = sq + diff * diff
        else:
            diff = x[a:a + rows, None, :] - x[None, a + 1:, :]
            sq = np.add.reduce(diff * diff, axis=-1)
        dist = np.sqrt(sq)
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

@dataclass
class RunBatch:
    """Runs of one benchmark under one configuration, distinct seeds."""

    results: list
    known_optimum: float | None = None
    success_tol: float = 1e-4
    benchmark_id: str | None = None
    config_key: str | None = None

    def __post_init__(self):
        if not self.results:
            raise ConfigError("a run batch needs at least one result")

    def finals(self) -> np.ndarray:
        return np.array([r.best_f for r in self.results], dtype=float)

    def evaluations(self) -> np.ndarray:
        return np.array([r.n_evaluations for r in self.results], dtype=float)

    def success_mask(self) -> np.ndarray:
        if self.known_optimum is None:
            raise ConfigError("success measures need a known optimum")
        return np.abs(self.finals() - self.known_optimum) <= self.success_tol


def success_rate(batch: RunBatch) -> float:
    """Fraction of runs that landed within success_tol of the known optimum."""
    mask = batch.success_mask()
    return float(mask.sum() / mask.size)


@dataclass(frozen=True)
class QMeasure:
    """Evaluations-per-success quality measure and its two factors."""

    c: float            # mean evaluations over successful runs
    p: float            # probability of convergence
    q: float            # c / p; +inf when nothing converged
    n_success: int
    n_runs: int

    @property
    def is_finite(self) -> bool:
        return self.n_success > 0


def q_measure(batch: RunBatch) -> QMeasure:
    mask = batch.success_mask()
    n_runs = mask.size
    n_success = int(mask.sum())
    if n_success == 0:
        return QMeasure(float("inf"), 0.0, float("inf"), 0, n_runs)
    c = float(batch.evaluations()[mask].sum() / n_success)
    p = n_success / n_runs
    return QMeasure(c, p, c / p, n_success, n_runs)


def convergence_speed(batch: RunBatch) -> float:
    """Minimum final best fitness across the batch (fastest full descent)."""
    return float(batch.finals().min())


def aov(batch: RunBatch) -> float:
    """Average objective value: mean of per-run best fitness."""
    return float(batch.finals().mean())


# ---------------------------------------------------------------------------
# Front indicators
# ---------------------------------------------------------------------------

@dataclass
class FrontPair:
    """Obtained non-dominated front plus the reference front it is scored against."""

    obtained: np.ndarray
    reference: np.ndarray

    def __post_init__(self):
        self.obtained = np.atleast_2d(np.asarray(self.obtained, dtype=float))
        self.reference = np.atleast_2d(np.asarray(self.reference, dtype=float))
        if self.obtained.size == 0 or self.reference.size == 0:
            raise ConfigError("both fronts must be non-empty")
        if self.obtained.shape[1] != self.reference.shape[1]:
            raise ShapeError(
                f"objective counts differ: {self.obtained.shape[1]} vs {self.reference.shape[1]}"
            )


def generational_distance(pair: FrontPair) -> float:
    """Root-mean-square distance from each reference point to its nearest
    obtained point."""
    sq = np.empty(pair.reference.shape[0])
    for idx, p in enumerate(pair.reference):
        sq[idx] = np.min(np.sum((pair.obtained - p) ** 2, axis=1))
    return float(np.sqrt(sq.mean()))


def spread(pair: FrontPair) -> float:
    """Dispersion of the obtained front: consecutive-gap deviation plus the
    distances from the reference extremes to the obtained boundary points."""
    q = pair.obtained
    if q.shape[0] < 2:
        raise UndefinedMetricError("spread needs at least 2 obtained points")
    order = np.lexsort(q.T[::-1])          # sort by f1, then f2, ...
    q = q[order]
    ref = pair.reference[np.lexsort(pair.reference.T[::-1])]
    d_f = float(np.linalg.norm(ref[0] - q[0]))
    d_l = float(np.linalg.norm(ref[-1] - q[-1]))
    gaps = np.linalg.norm(np.diff(q, axis=0), axis=1)
    d_bar = float(gaps.mean())
    numerator = d_f + d_l + float(np.sum(np.abs(gaps - d_bar)))
    denominator = d_f + d_l + (q.shape[0] - 1) * d_bar
    if denominator == 0.0:
        return 0.0
    return numerator / denominator
