"""Core domain types shared by every other module.

Provides box-bounded search spaces, the deterministic random stream, the
sampling primitives (bounded initialization, bound repair) and the
evaluation ledger. A population is a plain ``(n, dim)`` array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A run or request was configured with invalid parameters."""


class SpaceError(ValueError):
    """Malformed search-space bounds (mismatched or degenerate)."""


class ShapeError(ValueError):
    """Dimension mismatch between a vector and its expected shape."""


class DomainError(ValueError):
    """A value is non-finite where a finite one is required."""


class RngStream:
    """Deterministic random stream backed by the counter-based Philox generator.

    Identical seeds reproduce identical draw sequences across platforms. A
    batch of seeded runs gives each run its own seed, so the runs can
    execute in any order, or in parallel, without perturbing each other.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        seq = np.random.SeedSequence(entropy=self.seed)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def random(self, size=None):
        """Uniform draw(s) on [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of feasible decision vectors."""

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self):
        lows = np.atleast_1d(np.asarray(self.lows, dtype=float))
        highs = np.atleast_1d(np.asarray(self.highs, dtype=float))
        if lows.shape != highs.shape or lows.ndim != 1:
            raise SpaceError(f"bounds shapes differ: {lows.shape} vs {highs.shape}")
        if lows.size == 0:
            raise SpaceError("search space needs at least one dimension")
        if not (np.isfinite(lows).all() and np.isfinite(highs).all()):
            raise SpaceError("bounds must be finite")
        if not (lows < highs).all():
            bad = int(np.argmin(highs - lows))
            raise SpaceError(f"lows must be strictly below highs (dimension {bad})")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @classmethod
    def cube(cls, low: float, high: float, dim: int) -> "SearchSpace":
        """Box with the same (low, high) interval in every dimension."""
        return cls(np.full(dim, float(low)), np.full(dim, float(high)))

    @property
    def dim(self) -> int:
        return self.lows.size

    @property
    def widths(self) -> np.ndarray:
        return self.highs - self.lows

    def diagonal(self) -> float:
        """Euclidean length of the box diagonal."""
        return float(np.linalg.norm(self.widths))

    def contains(self, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(x.shape == self.lows.shape and (x >= self.lows).all() and (x <= self.highs).all())

    def as_pairs(self) -> list:
        """Bounds as a list of (low, high) tuples, one per dimension."""
        return [(float(lo), float(hi)) for lo, hi in zip(self.lows, self.highs)]


def init_population(space: SearchSpace, n: int, rng: RngStream) -> np.ndarray:
    """Sample an ``(n, dim)`` matrix of points uniformly inside the box.

    Requires n >= 4, the smallest population that supports difference-based
    mutation with distinct non-self indices.
    """
    if n < 4:
        raise ConfigError(f"population size must be >= 4, got {n}")
    return rng.uniform(space.lows, space.highs, size=(n, space.dim))


def clip_to_bounds(x, space: SearchSpace) -> np.ndarray:
    """Clamp every coordinate of a point, or of each row of an ``(m, dim)``
    batch, into the box; in-bounds input passes through."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != space.dim:
        raise ShapeError(f"array of shape {x.shape} does not match space dim {space.dim}")
    return x.clip(space.lows, space.highs)


def evaluate_rows(objective, points) -> np.ndarray:
    """Values of ``objective`` at the rows of ``points``: in one call when the
    objective declares ``batched = True`` (it then takes an ``(m, d)`` array),
    else one call per row."""
    if getattr(objective, "batched", False):
        return np.asarray(objective(points), dtype=float)
    return np.array([objective(p) for p in points], dtype=float)


class _CountingObjective:
    """The evaluation ledger: wraps the raw objective, counts every evaluated
    point, checks finiteness, and names the failing point in errors.

    It takes an ``(m, d)`` batch and passes it on through ``evaluate_rows``.
    Values are floats, or arrays when ``multi`` (several objectives).
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
