"""Benchmark battery: 22 single-objective test functions, the convex/sinusoidal
demo objectives, and the ZDT/DTLZ-style multi-objective suite with analytic
Pareto fronts.

Every function is one ``BenchmarkSpec`` in one catalog; a multi-objective
function is a spec with ``n_objectives > 1``. ``SINGLE_OBJECTIVE`` and
``MULTI_OBJECTIVE`` are the catalog split by that count.

All evaluators are pure and total on finite inputs. Where a function has
several circulating transcriptions, the canonical form whose minimum matches
the tabulated optimum is used (see the per-function notes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, SearchSpace, ShapeError, _integer

PI = np.pi


class UnknownBenchmarkError(KeyError):
    """Benchmark id not present in the catalog."""


# ---------------------------------------------------------------------------
# Single-objective evaluators
#
# Every evaluator takes a batch ``(m, d)``, one point per row, and returns an
# ``(m,)`` array of values. A spec evaluates a single point as a one-row batch,
# so a point's value is the same alone and inside any batch.
# ---------------------------------------------------------------------------

def sphere(x):
    return np.sum(x * x, axis=-1)


def sinusoidal(x):
    """Non-convex demo objective sin(x0) + sin(x1), global minimum -2."""
    return np.sin(x[..., 0]) + np.sin(x[..., 1])


def ackley(x):
    d = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / d))
        - np.exp(np.sum(np.cos(2 * PI * x), axis=-1) / d)
        + 20.0
        + np.e
    )


def bukin_n6(x):
    # absolute values inside both terms keep the surface real-valued
    x0, x1 = x[..., 0], x[..., 1]
    return 100.0 * np.sqrt(np.abs(x1 - 0.01 * x0 ** 2)) + 0.01 * np.abs(x0 + 10.0)


def rastrigin(x):
    return 10.0 * x.shape[-1] + np.sum(x * x - 10.0 * np.cos(2 * PI * x), axis=-1)


def cross_in_tray(x):
    x0, x1 = x[..., 0], x[..., 1]
    inner = np.abs(np.sin(x0) * np.sin(x1) * np.exp(np.abs(100.0 - np.hypot(x0, x1) / PI)))
    return -0.0001 * (inner + 1.0) ** 0.1


def levy_n13(x):
    x0, x1 = x[..., 0], x[..., 1]
    return (
        np.sin(3 * PI * x0) ** 2
        + (x0 - 1.0) ** 2 * (1.0 + np.sin(3 * PI * x1) ** 2)
        + (x1 - 1.0) ** 2 * (1.0 + np.sin(2 * PI * x1) ** 2)
    )


def eggholder(x):
    x0, x1 = x[..., 0], x[..., 1]
    a = -(x1 + 47.0) * np.sin(np.sqrt(np.abs(x1 + x0 / 2.0 + 47.0)))
    b = -x0 * np.sin(np.sqrt(np.abs(x0 - (x1 + 47.0))))
    return a + b


def schaffer_n2(x):
    x0, x1 = x[..., 0], x[..., 1]
    num = np.sin(x0 ** 2 - x1 ** 2) ** 2 - 0.5
    den = (1.0 + 0.001 * (x0 ** 2 + x1 ** 2)) ** 2
    return 0.5 + num / den


def schwefel(x):
    return 418.9829 * x.shape[-1] - np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def shubert(x):
    i = np.arange(1, 6)
    x0, x1 = x[..., 0, None], x[..., 1, None]
    return (np.sum(i * np.cos((i + 1) * x0 + i), axis=-1)
            * np.sum(i * np.cos((i + 1) * x1 + i), axis=-1))


def drop_wave(x):
    # leading minus: the surface dips to -1 at the origin
    r2 = x[..., 0] ** 2 + x[..., 1] ** 2
    return -(1.0 + np.cos(12.0 * np.sqrt(r2))) / (0.5 * r2 + 2.0)


def himmelblau(x):
    x0, x1 = x[..., 0], x[..., 1]
    return (x0 ** 2 + x1 - 11.0) ** 2 + (x0 + x1 ** 2 - 7.0) ** 2


def booth(x):
    x0, x1 = x[..., 0], x[..., 1]
    return (x0 + 2 * x1 - 7.0) ** 2 + (2 * x0 + x1 - 5.0) ** 2


def matyas(x):
    x0, x1 = x[..., 0], x[..., 1]
    return 0.26 * (x0 ** 2 + x1 ** 2) - 0.48 * x0 * x1


def mccormick(x):
    x0, x1 = x[..., 0], x[..., 1]
    return np.sin(x0 + x1) + (x0 - x1) ** 2 - 1.5 * x0 + 2.5 * x1 + 1.0


def three_hump_camel(x):
    x0, x1 = x[..., 0], x[..., 1]
    return 2 * x0 ** 2 - 1.05 * x0 ** 4 + x0 ** 6 / 6.0 + x0 * x1 + x1 ** 2


def six_hump_camel(x):
    x0, x1 = x[..., 0], x[..., 1]
    return (
        (4.0 - 2.1 * x0 ** 2 + x0 ** 4 / 3.0) * x0 ** 2
        + x0 * x1
        + (-4.0 + 4.0 * x1 ** 2) * x1 ** 2
    )


def rosenbrock(x):
    head, tail = x[..., :-1], x[..., 1:]
    return np.sum(100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2, axis=-1)


def dixon_price(x):
    i = np.arange(2, x.shape[-1] + 1)
    return (x[..., 0] - 1.0) ** 2 + np.sum(i * (2 * x[..., 1:] ** 2 - x[..., :-1]) ** 2, axis=-1)


def beale(x):
    x0, x1 = x[..., 0], x[..., 1]
    return (
        (1.5 - x0 + x0 * x1) ** 2
        + (2.25 - x0 + x0 * x1 ** 2) ** 2
        + (2.625 - x0 + x0 * x1 ** 3) ** 2
    )


def goldstein_price(x):
    x0, x1 = x[..., 0], x[..., 1]
    a = 1.0 + (x0 + x1 + 1.0) ** 2 * (
        19.0 - 14.0 * x0 + 3.0 * x0 ** 2 - 14.0 * x1 + 6.0 * x0 * x1 + 3.0 * x1 ** 2
    )
    b = 30.0 + (2.0 * x0 - 3.0 * x1) ** 2 * (
        18.0 - 32.0 * x0 + 12.0 * x0 ** 2 + 48.0 * x1 - 36.0 * x0 * x1 + 27.0 * x1 ** 2
    )
    return a * b


def forrester(x):
    """One-dimensional test curve (6x-2)^2 sin(12x-4) on [0, 1]."""
    x0 = x[..., 0]
    return (6.0 * x0 - 2.0) ** 2 * np.sin(12.0 * x0 - 4.0)


def devilliersglasser02(x):
    """Convex 2D quadratic on [1, 60]^2; box-constrained minimum 74 at (1, 1).

    Note this is not the 5D curve-fitting DeVilliersGlasser02 of the wider
    benchmarking literature; it is the 2D quadratic variant used here.
    """
    x0, x1 = x[..., 0], x[..., 1]
    return (
        (2.0 * x0 - 3.0 * x1) ** 2
        + 18.0 * x0
        - 32.0 * x1
        + 12.0 * x0 ** 2
        + 48.0 * x1
        + 27.0 * x1 ** 2
    )


# ---------------------------------------------------------------------------
# Multi-objective evaluators: an ``(m, k)`` array, one objective vector per row
# ---------------------------------------------------------------------------

def zdt1(x):
    f1 = x[..., 0]
    g = 1.0 + 9.0 * np.sum(x[..., 1:], axis=-1) / (x.shape[-1] - 1)
    f2 = g * (1.0 - np.sqrt(f1 / g))
    return np.stack([f1, f2], axis=-1)


def zdt2(x):
    f1 = x[..., 0]
    g = 1.0 + 9.0 * np.sum(x[..., 1:], axis=-1) / (x.shape[-1] - 1)
    f2 = g * (1.0 - (f1 / g) ** 2)
    return np.stack([f1, f2], axis=-1)


def dltz1(x):
    """Three-objective simplex problem, 2 position + 5 distance variables."""
    x0, x1, tail = x[..., 0], x[..., 1], x[..., 2:]
    g = 100.0 * (tail.shape[-1]
                 + np.sum((tail - 0.5) ** 2 - np.cos(20.0 * PI * (tail - 0.5)), axis=-1))
    h = 0.5 * (1.0 + g)
    return np.stack([h * x0 * x1, h * x0 * (1.0 - x1), h * (1.0 - x0)], axis=-1)


def mo_demo(x):
    """Bi-objective demo: a sinusoid against a Gaussian bump centred at (5, 5)."""
    x0, x1 = x[..., 0], x[..., 1]
    return np.stack(
        [np.sin(x0) + np.cos(x1), np.exp(-(x0 - 5.0) ** 2 - (x1 - 5.0) ** 2)], axis=-1
    )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    """Benchmark function: evaluator, bounds and width rule; the known optimum
    and argmins of a single-objective function; the objective count and the
    optional analytic front sampler of a multi-objective one. A ``fixed-*``
    rule takes one coordinate per ``bounds`` pair; ``any-n`` takes
    ``min_dim`` or more, all in the one pair, and ``default_dim`` by default."""

    id: str
    fn: Callable
    dim_rule: str                 # "fixed-1d" | "fixed-2d" | "fixed-n" | "any-n"
    bounds: tuple                 # ((low, high), ...) fixed dims, or ((low, high),) template
    known_optimum: float | None = None
    argmins: tuple = ()
    min_dim: int = 1
    default_dim: int = 2
    n_objectives: int = 1
    front_sampler: Callable | None = None

    def space(self, dim: int | None = None) -> SearchSpace:
        d = self.dim if dim is None else _integer("dim", dim)
        self._check_width(d)
        if self.dim_rule == "any-n":
            lo, hi = self.bounds[0]
            return SearchSpace.cube(lo, hi, d)
        return SearchSpace(
            np.array([b[0] for b in self.bounds]), np.array([b[1] for b in self.bounds])
        )

    def _check_width(self, d: int) -> None:
        """Raise ShapeError unless the function takes ``d`` coordinates."""
        if self.dim_rule == "any-n":
            if d < self.min_dim:
                raise ShapeError(f"{self.id} needs at least {self.min_dim} dimensions, got {d}")
        elif d != len(self.bounds):
            raise ShapeError(f"{self.id} is fixed at {len(self.bounds)} dimensions, got {d}")

    @property
    def dim(self) -> int:
        return self.default_dim if self.dim_rule == "any-n" else len(self.bounds)

    @property
    def argmin_examples(self) -> list:
        return [np.array(a, dtype=float) for a in self.argmins]

    def evaluate(self, x):
        """Value at one point ``(d,)`` or at each row of an ``(m, d)`` batch,
        after checking the input, and checking that ``fn`` returned one value
        per row. A value is a float for a single-objective function and a
        ``(k,)`` objective vector otherwise, so a batch gives ``(m,)`` or
        ``(m, k)``. A point is evaluated as the one-row batch ``x[None]``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2):
            raise ShapeError(f"expected a point (d,) or a batch (m, d), got shape {x.shape}")
        batch = x if x.ndim == 2 else x[None]
        if not np.isfinite(batch).all():
            where = "" if x.ndim == 1 else f" in row {int(np.argmin(np.isfinite(batch).all(axis=1)))}"
            raise DomainError(f"non-finite input to {self.id}{where}")
        self._check_width(x.shape[-1])
        values = np.asarray(self.fn(batch), dtype=float)
        shape = batch.shape[:1] + (() if self.n_objectives == 1 else (self.n_objectives,))
        if values.shape != shape:
            raise ShapeError(f"{self.id} returned shape {values.shape}, expected {shape}")
        if x.ndim == 2:
            return values
        return float(values[0]) if self.n_objectives == 1 else values[0]

    evaluate.batched = True


def _zdt1_front(k: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, k)
    return np.column_stack([f1, 1.0 - np.sqrt(f1)])


def _zdt2_front(k: int) -> np.ndarray:
    f1 = np.linspace(0.0, 1.0, k)
    return np.column_stack([f1, 1.0 - f1 ** 2])


def _dltz1_front(k: int) -> np.ndarray:
    """k distinct points of the triangle f1 + f2 + f3 = 0.5, f >= 0: its three
    vertices, then k - 3 points of the lattice 0.5 * (i, j, n - i - j) / n of
    the smallest order n with at least k points. Of the lattice's m other
    points, in (i, j) order, those at positions floor(t * m / (k - 3)),
    t = 0 .. k - 4, are kept, so the dropped ones are spread evenly. Below
    k = 3, the first k vertices."""
    vertices = 0.5 * np.eye(3)
    if k <= 3:
        return vertices[:k]
    n = 2
    while (n + 1) * (n + 2) // 2 < k:
        n += 1
    i, j = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)
    rest = np.flatnonzero((i < n) & (j < n) & (i + j > 0))
    kept = rest[np.arange(k - 3) * len(rest) // (k - 3)]
    lattice = np.column_stack([i[kept], j[kept], n - i[kept] - j[kept]])
    return np.concatenate([vertices, 0.5 * lattice / n])


_HALF_PI = float(PI / 2.0)

_SPECS = (
    BenchmarkSpec("sphere", sphere, "any-n", ((-10.0, 10.0),), 0.0, ((0.0, 0.0),)),
    BenchmarkSpec("sinusoidal", sinusoidal, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  -2.0, ((-_HALF_PI, -_HALF_PI),)),
    BenchmarkSpec("ackley", ackley, "any-n", ((-32.768, 32.768),), 0.0, ((0.0, 0.0),)),
    BenchmarkSpec("bukin_n6", bukin_n6, "fixed-2d", ((-15.0, -5.0), (-3.0, 3.0)),
                  0.0, ((-10.0, 1.0),)),
    BenchmarkSpec("rastrigin", rastrigin, "any-n", ((-5.12, 5.12),), 0.0, ((0.0, 0.0),)),
    BenchmarkSpec("cross_in_tray", cross_in_tray, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  -2.06261187082, ((1.3494066, 1.3494066), (1.3494066, -1.3494066),
                                   (-1.3494066, 1.3494066), (-1.3494066, -1.3494066))),
    BenchmarkSpec("levy_n13", levy_n13, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  0.0, ((1.0, 1.0),)),
    BenchmarkSpec("eggholder", eggholder, "fixed-2d", ((-512.0, 512.0), (-512.0, 512.0)),
                  -959.6407, ((512.0, 404.2319),)),
    BenchmarkSpec("schaffer_n2", schaffer_n2, "fixed-2d", ((-100.0, 100.0), (-100.0, 100.0)),
                  0.0, ((0.0, 0.0),)),
    BenchmarkSpec("schwefel", schwefel, "any-n", ((-500.0, 500.0),),
                  0.0, ((420.9687, 420.9687),)),
    BenchmarkSpec("shubert", shubert, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  -186.7309, ((-1.42512843, -0.80032110),)),
    BenchmarkSpec("drop_wave", drop_wave, "fixed-2d", ((-5.12, 5.12), (-5.12, 5.12)),
                  -1.0, ((0.0, 0.0),)),
    BenchmarkSpec("himmelblau", himmelblau, "fixed-2d", ((-5.0, 5.0), (-5.0, 5.0)),
                  0.0, ((3.0, 2.0), (-2.805118086952745, 3.131312518250573),
                        (-3.779310253377747, -3.283185991286170),
                        (3.584428340330492, -1.848126526964404))),
    BenchmarkSpec("booth", booth, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  0.0, ((1.0, 3.0),)),
    BenchmarkSpec("matyas", matyas, "fixed-2d", ((-10.0, 10.0), (-10.0, 10.0)),
                  0.0, ((0.0, 0.0),)),
    BenchmarkSpec("mccormick", mccormick, "fixed-2d", ((-1.5, 4.0), (-3.0, 4.0)),
                  -1.9133, ((-0.54719755, -1.54719755),)),
    BenchmarkSpec("three_hump_camel", three_hump_camel, "fixed-2d", ((-5.0, 5.0), (-5.0, 5.0)),
                  0.0, ((0.0, 0.0),)),
    BenchmarkSpec("six_hump_camel", six_hump_camel, "fixed-2d", ((-3.0, 3.0), (-2.0, 2.0)),
                  -1.0316, ((0.08984201, -0.71265640), (-0.08984201, 0.71265640))),
    BenchmarkSpec("rosenbrock", rosenbrock, "any-n", ((-5.0, 10.0),),
                  0.0, ((1.0, 1.0),), min_dim=2),
    BenchmarkSpec("dixon_price", dixon_price, "any-n", ((-10.0, 10.0),),
                  0.0, ((1.0, 0.7071067811865476),), min_dim=2),
    BenchmarkSpec("beale", beale, "fixed-2d", ((-4.5, 4.5), (-4.5, 4.5)),
                  0.0, ((3.0, 0.5),)),
    BenchmarkSpec("goldstein_price", goldstein_price, "fixed-2d", ((-2.0, 2.0), (-2.0, 2.0)),
                  3.0, ((0.0, -1.0),)),
    BenchmarkSpec("forrester", forrester, "fixed-1d", ((0.0, 1.0),),
                  -6.020740055767083, ((0.7572487578741974,),)),
    BenchmarkSpec("devilliersglasser02", devilliersglasser02, "fixed-2d",
                  ((1.0, 60.0), (1.0, 60.0)), 74.0, ((1.0, 1.0),)),
    BenchmarkSpec("zdt1", zdt1, "any-n", ((0.0, 1.0),), min_dim=2, default_dim=30,
                  n_objectives=2, front_sampler=_zdt1_front),
    BenchmarkSpec("zdt2", zdt2, "any-n", ((0.0, 1.0),), min_dim=2, default_dim=30,
                  n_objectives=2, front_sampler=_zdt2_front),
    BenchmarkSpec("dltz1", dltz1, "fixed-n", ((0.0, 1.0),) * 7, n_objectives=3,
                  front_sampler=_dltz1_front),
    BenchmarkSpec("mo_demo", mo_demo, "any-n", ((-10.0, 10.0),), min_dim=2, n_objectives=2),
)

CATALOG: dict = {spec.id: spec for spec in _SPECS}
SINGLE_OBJECTIVE: dict = {i: spec for i, spec in CATALOG.items() if spec.n_objectives == 1}
MULTI_OBJECTIVE: dict = {i: spec for i, spec in CATALOG.items() if spec.n_objectives > 1}

# The 22-function battery: everything single-objective except the two demo objectives.
BATTERY_IDS = tuple(i for i in SINGLE_OBJECTIVE if i not in ("sphere", "sinusoidal"))


def lookup(benchmark_id: str):
    """Fetch a benchmark spec by id, raising with the valid ids on a miss."""
    try:
        return CATALOG[benchmark_id]
    except KeyError:
        raise UnknownBenchmarkError(
            f"unknown benchmark {benchmark_id!r}; valid ids: {', '.join(CATALOG)}"
        ) from None


def analytic_front(benchmark_id: str, k: int) -> np.ndarray:
    """k points on the true Pareto front, as a (k, n_objectives) array."""
    spec = lookup(benchmark_id)
    if spec.front_sampler is None:
        raise UnknownBenchmarkError(f"no analytic front available for {benchmark_id!r}")
    k = _integer("k", k)
    if k < 2:
        raise ShapeError("front sample needs k >= 2")
    return spec.front_sampler(k)
