"""Adaptive differential evolution with diversification.

A library and benchmark harness for single- and multi-objective optimization:
the adaptive engine (scheduled F/CR, a random neighborhood per member,
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
    MultiObjectiveSpec,
    UnknownBenchmarkError,
    analytic_front,
    evaluate_multi,
    evaluate_single,
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
    dynamic_neighborhood,
    has_converged,
    run_aded,
    run_classic_de,
)
from .moo import MoResult, nondominated_filter, pareto_dominates, run_aded_mo, scalarize
from .metrics import (
    FrontPair,
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
    "clip_to_bounds", "init_population", "BenchmarkSpec", "CATALOG", "MultiObjectiveSpec",
    "UnknownBenchmarkError", "analytic_front", "evaluate_multi", "evaluate_single", "lookup",
    "LocalSearchBudget", "ScheduleParams", "StrategyId", "adaptive_crossover_rate",
    "adaptive_mutation_rate", "crossover_binomial", "crossover_exponential",
    "finite_difference_gradient", "local_refine", "EngineConfig", "RunResult",
    "dynamic_neighborhood", "has_converged", "run_aded", "run_classic_de", "MoResult",
    "nondominated_filter", "pareto_dominates", "run_aded_mo", "scalarize", "FrontPair",
    "UndefinedMetricError", "aov", "convergence_rate", "convergence_speed",
    "diversity", "fdc", "generational_distance", "q_measure", "spread", "success_rate",
    "ComparisonRow", "DegenerateSampleError", "TTestResult", "VariantScore", "compare_batches",
    "rank_variants", "welch_t",
]
