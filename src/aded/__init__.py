"""Adaptive differential evolution with diversification.

A library and benchmark harness for single- and multi-objective optimization:
the adaptive engine (scheduled F/CR, uniform random mutation bases,
crowding selection, local refinement, stagnation stopping) with classic DE as
one of its presets, a 22-function benchmark battery plus ZDT/DTLZ-style suites,
diagnostic metrics, and Welch-test / ranking comparison tooling.
"""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    DomainError,
    RngStream,
    SearchSpace,
    ShapeError,
    SpaceError,
    clip_to_bounds,
    init_population,
)
from .benchmarks import (
    BenchmarkSpec,
    CATALOG,
    UnknownBenchmarkError,
    analytic_front,
    lookup,
)
from .variation import (
    LocalSearchBudget,
    ScheduleParams,
    StrategyId,
    adaptive_crossover_rate,
    adaptive_mutation_rate,
    crossover_binomial,
    crossover_exponential,
    finite_difference_gradient,
    local_refine,
)
from .engine import (
    EngineConfig,
    RunResult,
    has_converged,
    run_aded,
    run_classic_de,
)
from .moo import MoResult, nondominated_filter, pareto_dominates, run_aded_mo, scalarize
from .metrics import (
    UndefinedMetricError,
    aov,
    convergence_rate,
    convergence_speed,
    diversity,
    fdc,
    generational_distance,
    q_measure,
    spread,
    success_rate,
)
from .stats import (
    ComparisonRow,
    DegenerateSampleError,
    TTestResult,
    VariantScore,
    compare_batches,
    rank_variants,
    welch_t,
)

__all__ = [
    "ConfigError", "DomainError", "RngStream", "SearchSpace", "ShapeError", "SpaceError",
    "clip_to_bounds", "init_population", "BenchmarkSpec", "CATALOG", "UnknownBenchmarkError",
    "analytic_front", "lookup",
    "LocalSearchBudget", "ScheduleParams", "StrategyId", "adaptive_crossover_rate",
    "adaptive_mutation_rate", "crossover_binomial", "crossover_exponential",
    "finite_difference_gradient", "local_refine", "EngineConfig", "RunResult",
    "has_converged", "run_aded", "run_classic_de", "MoResult",
    "nondominated_filter", "pareto_dominates", "run_aded_mo", "scalarize",
    "UndefinedMetricError", "aov", "convergence_rate", "convergence_speed",
    "diversity", "fdc", "generational_distance", "q_measure", "spread", "success_rate",
    "ComparisonRow", "DegenerateSampleError", "TTestResult", "VariantScore", "compare_batches",
    "rank_variants", "welch_t",
]
