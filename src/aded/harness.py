"""Experiment harness: named presets, seeded batch execution, algorithm
comparisons, the 14-variant strategy tournament, multi-objective evaluation,
and CSV/JSON report emission. Every command's runs go through one runner,
which uses at most one process pool per command.

Raw CSV artifacts are pure functions of (config, seed): they carry no wall
times, so repeated invocations are byte-identical. Timings live only in the
JSON reports.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, metrics
from .benchmarks import CATALOG, analytic_front, lookup
from .core import ConfigError, ShapeError, _integer
from .engine import EngineConfig, classic_config, run_aded
from .metrics import (
    aov,
    convergence_speed,
    generational_distance,
    q_measure,
    spread,
    success_rate,
)
from .moo import _check_weights, run_aded_mo
from .stats import compare_batches, rank_variants
from .variation import LocalSearchBudget, ScheduleParams, StrategyId

OUT_DIR_ENV = "ADED_OUT"
DEFAULT_OUT_DIR = "aded-out"

ALGORITHMS = ("aded", "classic_de", "aded_mo")

# Variant ids with their fixed (F, CR) pairs used by the strategy tournament.
TOURNAMENT_PAIRS = (
    ("rand1bin", 0.9, 0.5),
    ("rand1exp", 0.9, 0.0),
    ("best1bin", 0.1, 0.1),
    ("best1exp", 0.9, 0.7),
    ("rand2bin", 0.3, 0.2),
    ("rand2exp", 0.9, 0.3),
    ("best2bin", 0.1, 0.7),
    ("best2exp", 0.9, 0.3),
    ("currenttorand1bin", 0.5, 0.4),
    ("currenttorand1exp", 0.9, 0.3),
    ("currenttobest1bin", 0.2, 0.8),
    ("currenttobest1exp", 0.9, 0.1),
    ("randtobest1bin", 0.1, 0.8),
    ("randtobest1exp", 0.9, 0.4),
)

TOURNAMENT_BENCHMARKS = ("sphere", "sinusoidal")

# Named experiment presets. Values are option overrides in the same flat
# vocabulary the CLI and config files use.
PRESETS = {
    # sinusoidal demo
    "sinusoidal": {"benchmark": "sinusoidal", "algorithm": "aded",
                   "pop": 50, "gens": 100, "runs": 10},
    # full 2-D battery settings used by the comparison tables
    "battery-2d": {"pop": 300, "gens": 200, "runs": 30},
    # classic DE on the convex demo objective, run to full depth
    "classic-convex": {
        "benchmark": "sphere", "algorithm": "classic_de",
        "pop": 300, "gens": 200, "runs": 30,
        "stagnation_tol": 0.0, "stagnation_limit": 200,
    },
    # desk-scale strategy tournament
    "tournament-desk": {"pop": 40, "gens": 40, "runs": 5},
    # multi-objective runs: high initial F keeps the admitted archive spread
    # across the whole front while a light local-search touch pulls it tight
    "moo-zdt1": {
        "benchmark": "zdt1", "pop": 100, "gens": 100, "runs": 3, "f0": 2.0,
        "stagnation_limit": 40, "ls_iterations": 5, "ls_probability": 0.1,
    },
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


# ---------------------------------------------------------------------------
# Option resolution
# ---------------------------------------------------------------------------

# Every option a preset, a config file or a flag can set (a file may also name
# a ``preset``): its type, its flag's help, and the EngineConfig field it sets,
# or None for a key the command reads itself. The field's type checks a value.
OPTIONS = {
    "benchmark": (str, "benchmark id, or a comma-separated list", None),
    "algorithm": (str, "single-objective engine", None),
    "pop": (int, "population size", "population_size"),
    "gens": (int, "maximum generations", "max_generations"),
    "runs": (int, "number of seeded runs", None),
    "seed": (int, "base seed (run i uses seed + i)", "seed"),
    "strategy": (str, "strategy id, e.g. rand1bin, best1exp, adedrandbin", "strategy"),
    "local_search": (str, "'on' or 'off'", "local_search.enabled"),
    "ls_iterations": (int, "refinement steps per trial", "local_search.max_iterations"),
    "ls_probability": (float, "chance that a trial is refined", "local_search.probability"),
    "ls_step": (float, "relative gradient step", "local_search.gradient_step"),
    "stagnation_limit": (int, "generations without change to stop", "stagnation_limit"),
    "stagnation_tol": (float, "change in best that counts as none", "stagnation_tol"),
    "mode": (str, "F/CR treatment: 'scheduled' or 'fixed'", "schedule.mode"),
    "f0": (float, "initial mutation factor", "schedule.initial_f"),
    "cr0": (float, "initial crossover rate", "schedule.initial_cr"),
    "fixed_f": (float, "mutation factor in fixed mode", "schedule.fixed_f"),
    "fixed_cr": (float, "crossover rate in fixed mode", "schedule.fixed_cr"),
    "dim": (int, "dimensionality for any-n benchmarks", None),
    "jobs": (int, "worker processes for the command's runs", None),
    "out": (str, "output directory (default: $ADED_OUT or ./aded-out)", None),
}


def load_config_file(path) -> dict:
    """Flat ``key = value`` config file; a ``preset`` key inherits that preset.
    A key outside OPTIONS and ``preset`` is an error."""
    options: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in OPTIONS and key != "preset":
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        options[key] = value
    return options


def resolve_options(preset: str | None = None, config_file=None, overrides: dict | None = None) -> dict:
    """Merge preset < config file < explicit overrides into one option dict,
    each value read as its option's type."""
    merged: dict = {}
    file_options = load_config_file(config_file) if config_file else {}
    file_preset = file_options.pop("preset", None)
    preset = preset or file_preset
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: {', '.join(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(file_options)
    merged.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    for key, value in merged.items():
        if key not in OPTIONS:
            raise ConfigError(f"unknown option {key!r}")
        kind = OPTIONS[key][0]
        if kind is int and not isinstance(value, str):
            _integer(key, value)                # int() would truncate 37.9
        try:
            merged[key] = kind(value)
        except ValueError:
            raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None
    return merged


def build_engine_config(options: dict) -> EngineConfig:
    """The config the options set; a field no option sets keeps its default.
    A key outside OPTIONS is an error, not a silent no-op."""
    for key in options:
        if key not in OPTIONS:
            raise ConfigError(f"unknown option {key!r}")
    kwargs = {"schedule": {}, "local_search": {}, "": {}}
    for key, (_, _, path) in OPTIONS.items():
        if path is None or key not in options:
            continue
        value = options[key]
        if key == "local_search":
            if value not in ("on", "off"):
                raise ConfigError(f"local_search must be 'on' or 'off', got {value!r}")
            value = value == "on"
        elif key == "strategy":
            value = StrategyId.parse(value)
        part, _, name = path.rpartition(".")
        kwargs[part][name] = value
    return EngineConfig(schedule=ScheduleParams(**kwargs["schedule"]),
                        local_search=LocalSearchBudget(**kwargs["local_search"]), **kwargs[""])


@dataclass
class ExperimentPlan:
    """A resolved batch of seeded runs for one or more benchmarks, whose runs
    run ``config``: a classic DE plan holds ``classic_config`` of the one given."""

    benchmarks: list
    config: EngineConfig = field(default_factory=EngineConfig)
    algorithm: str = "aded"
    n_runs: int = 10
    base_seed: int = 0
    dim: int | None = None
    jobs: int = 1
    out_dir: str | Path | None = None
    fmt: str = "csv"       # not read: the commands always write CSV and JSON

    def __post_init__(self):
        if not self.benchmarks:
            raise ConfigError("no benchmark selected (use --benchmark or a preset)")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        for name in ("n_runs", "jobs", "base_seed"):     # stored as the ints they are checked as
            setattr(self, name, _integer(name, getattr(self, name)))
            if name != "base_seed" and getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        self.dim = None if self.dim is None else _integer("dim", self.dim)
        for i, benchmark_id in enumerate(self.benchmarks):
            if benchmark_id in self.benchmarks[:i]:
                raise ConfigError(f"benchmark {benchmark_id!r} is listed more than once")
            lookup(benchmark_id).space(self.dim)
        if self.algorithm == "classic_de":     # idempotent, so dataclasses.replace keeps it
            self.config = classic_config(self.config)


def resolve_out_dir(options: dict) -> str:
    """Output directory: ``out`` option, else $ADED_OUT, else ./aded-out."""
    return options.get("out") or os.environ.get(OUT_DIR_ENV) or DEFAULT_OUT_DIR


def build_plan(options: dict) -> ExperimentPlan:
    """The plan the options set; an option that is not set keeps its default.
    ``benchmark`` is a comma-separated list of at least one id."""
    benchmarks = [b.strip() for b in str(options.get("benchmark") or "").split(",") if b.strip()]
    names = {"algorithm": "algorithm", "runs": "n_runs", "seed": "base_seed", "dim": "dim",
             "jobs": "jobs"}
    return ExperimentPlan(
        benchmarks=benchmarks,
        config=build_engine_config(options),
        out_dir=resolve_out_dir(options),
        **{name: options[key] for key, name in names.items() if key in options},
    )


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------

def _execute_run(benchmark_id: str, cfg: EngineConfig, dim, weights, on_generation=None):
    """One run of ``cfg``; the benchmark's objective count picks the engine."""
    spec = lookup(benchmark_id)
    if spec.n_objectives > 1:
        return run_aded_mo(spec.evaluate, spec.space(dim), cfg, weights)
    return run_aded(spec.evaluate, spec.space(dim), cfg, on_generation)


def _execute_recorded_run(benchmark_id: str, cfg: EngineConfig, dim, weights):
    """``_execute_run`` of a single-objective run that also records, after
    each generation, the population's diversity and its FDC to the
    generation's best member (NaN where FDC is undefined). Returns the result
    and the list of ``(diversity, fdc)`` pairs, one per generation."""
    space = lookup(benchmark_id).space(dim)
    history = []

    def record(gen, x, fit):
        try:
            correlation = metrics.fdc(x, fit, x[int(np.argmin(fit))])
        except metrics.UndefinedMetricError:
            correlation = float("nan")
        history.append((metrics.diversity(x, space), correlation))

    return _execute_run(benchmark_id, cfg, dim, weights, record), history


def _seeded_runs(plan: ExperimentPlan, benchmark_id: str, weights=None) -> list:
    """``_execute_run`` arguments of the plan's runs on one benchmark, run i
    on seed base_seed + i. Only `moo` gives weights, and only it takes a
    multi-objective benchmark."""
    if weights is None and lookup(benchmark_id).n_objectives > 1:
        raise ConfigError(f"{benchmark_id!r} is multi-objective; use `moo` instead")
    return [(benchmark_id, replace(plan.config, seed=plan.base_seed + i), plan.dim, weights)
            for i in range(plan.n_runs)]


def _execute_batches(batches: list, jobs: int, execute=_execute_run) -> list:
    """Results of ``execute`` over a command's runs, given as a list of
    batches (each a list of ``_seeded_runs`` items) and returned in the same
    shape and order.

    When there is more than one worker to use (``min(jobs, runs) > 1``) every
    run goes to one process pool; otherwise the runs execute here, one after
    another. Either way a failure raises the first failing run's error.
    """
    runs = [run for batch in batches for run in batch]
    workers = min(jobs, len(runs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # loaded only for a pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute, *zip(*runs)))
    else:
        results = [execute(*run) for run in runs]
    flat = iter(results)
    return [[next(flat) for _ in batch] for batch in batches]


def config_hash(cfg: EngineConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _header(plan: ExperimentPlan) -> dict:
    """The run record that opens the reports of `run`, `tournament` and `moo`:
    the version, the config that ran and its hash, the run count and base seed."""
    return {"version": __version__, "config": asdict(plan.config),
            "config_hash": config_hash(plan.config), "n_runs": plan.n_runs, "base_seed": plan.base_seed}


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

def _vector_cell(x) -> str:
    """A decision vector as one CSV cell: its coordinates' reprs joined by ';'."""
    return ";".join(map(repr, np.asarray(x, dtype=float).tolist()))


def _csv(header: list, rows: list) -> str:
    """A CSV table, quoted as RFC 4180 asks; None is an empty cell, and a row
    shorter than the header is padded with empty cells."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [header, *(row + [None] * (len(header) - len(row)) for row in rows)])
    return out.getvalue()


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"


def _write(out_dir, files: dict) -> None:
    """Write each ``{name: text}`` file into ``out_dir``, made if missing; a
    plan without an output directory writes nothing."""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text)


def _summary_stats(results: list) -> dict:
    finals = np.array([r.best_f for r in results], dtype=float)
    return {
        "mean_best_f": aov(results),
        "sd_best_f": float(finals.std(ddof=1)) if finals.size > 1 else 0.0,
        "min_best_f": convergence_speed(results),
        "max_best_f": float(finals.max()),
        "mean_evaluations": float(np.mean([r.n_evaluations for r in results])),
        "wall_seconds": [r.wall_seconds for r in results],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_list_benchmarks(fmt: str = "csv") -> str:
    """Catalog listing: id, kind, dimension rule, default dim, bounds, known
    optimum. The bounds are the box at the default dim, one (low, high) pair
    per coordinate, for every function."""
    entries = []
    for spec in CATALOG.values():
        entries.append({
            "id": spec.id,
            "kind": "single" if spec.n_objectives == 1 else f"multi({spec.n_objectives})",
            "dim_rule": spec.dim_rule,
            "dim": spec.dim,
            "bounds": spec.space().as_pairs(),
            "optimum": spec.known_optimum,
        })
    if fmt == "json":
        return json.dumps(entries, indent=2) + "\n"
    return _csv(["id", "kind", "dim_rule", "dim", "bounds", "optimum"], [
        [e["id"], e["kind"], e["dim_rule"], e["dim"],
         ";".join(f"[{lo},{hi}]" for lo, hi in e["bounds"]),
         None if e["optimum"] is None else float(e["optimum"])] for e in entries])


def cmd_run(plan: ExperimentPlan) -> dict:
    """Execute the plan and emit raw history, per-run summary, and a report,
    which records the config that ran (``classic_config`` for classic DE)."""
    if plan.algorithm == "aded_mo":
        raise ConfigError("multi-objective plans go through the `moo` command")
    recorded = dict(zip(plan.benchmarks, _execute_batches(
        [_seeded_runs(plan, b) for b in plan.benchmarks], plan.jobs, _execute_recorded_run)))
    report = {**_header(plan), "algorithm": plan.algorithm, "benchmarks": {}}
    batches, history_rows, summary_rows = {}, [], []
    for benchmark_id, runs in recorded.items():
        results = batches[benchmark_id] = [r for r, _ in runs]
        stats = _summary_stats(results)
        optimum = lookup(benchmark_id).known_optimum
        if optimum is not None:
            stats["success_rate"] = success_rate(results, optimum)
        report["benchmarks"][benchmark_id] = stats
        for run_idx, (r, history) in enumerate(runs):
            rate = np.diff(r.best_f_history)
            history_rows.extend([benchmark_id, run_idx, r.seed, g, float(r.best_f_history[g]),
                                 diversity_g, fdc_g, float(rate[g - 1]) if g >= 1 else None]
                                for g, (diversity_g, fdc_g) in enumerate(history))
            summary_rows.append([benchmark_id, run_idx, r.seed, float(r.best_f), r.n_evaluations,
                                 r.generations_executed, r.terminated_by, _vector_cell(r.best_x)])
    _write(plan.out_dir, {
        "raw_history.csv": _csv(["benchmark", "run", "seed", "generation", "best_f",
                                 "diversity", "fdc", "convergence_rate"], history_rows),
        "run_summary.csv": _csv(["benchmark", "run", "seed", "best_f", "n_evaluations",
                                 "generations", "terminated_by", "best_x"], summary_rows),
        "report.json": _json(report),
    })
    report["results"] = batches
    return report


def _comparison_text(rows: list) -> str:
    header = (f"{'benchmark':<22}{'algorithm':<14}{'mean':>14}{'sd':>12}{'evals':>12}"
              f"{'t':>10}{'p':>10}  sig")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.benchmark:<22}{row.label_a:<14}{row.mean_a:>14.6g}{row.sd_a:>12.4g}"
            f"{row.evals_a:>12.1f}{row.t:>10.3f}{row.p:>10.4f}  {row.stars}"
        )
        lines.append(f"{'':<22}{row.label_b:<14}{row.mean_b:>14.6g}{row.sd_b:>12.4g}"
                     f"{row.evals_b:>12.1f}")
    return "\n".join(lines)


def cmd_compare(plan: ExperimentPlan) -> dict:
    """Run the plan under the adaptive engine and under classic DE, and emit
    a Welch comparison per benchmark. Both arms' runs share one runner; the
    report gives each arm's config hash, classic DE's of ``classic_config``.
    Only an ``aded`` plan is taken."""
    if plan.algorithm != "aded":
        raise ConfigError(f"compare does not take algorithm {plan.algorithm!r}")
    labels = ("aded", "classic_de")
    arms = [replace(plan, algorithm=algorithm) for algorithm in labels]
    batches = [_seeded_runs(arm, b) for b in plan.benchmarks for arm in arms]
    if plan.n_runs < 2:
        raise ConfigError(f"compare needs --runs >= 2 (Welch's test), got {plan.n_runs}")
    results = iter(_execute_batches(batches, plan.jobs))
    rows = []
    per_benchmark = {}
    for benchmark_id in plan.benchmarks:
        pair = next(results), next(results)
        rows.append(compare_batches(benchmark_id, *pair, *labels))
        per_benchmark[benchmark_id] = pair
    report = {
        "version": __version__,
        "labels": list(labels),
        "config_hash": [config_hash(arm.config) for arm in arms],
        "rows": [asdict(r) | {"stars": r.stars} for r in rows],
    }
    _write(plan.out_dir, {
        "comparison.csv": _csv(
            ["benchmark", "label_a", "mean_a", "sd_a", "label_b", "mean_b", "sd_b",
             "t", "p", "df", "sig"],
            [[r.benchmark, r.label_a, r.mean_a, r.sd_a, r.label_b, r.mean_b, r.sd_b,
              r.t, r.p, r.df, r.stars] for r in rows]),
        "comparison.txt": _comparison_text(rows) + "\n",
        "comparison.json": _json(report),
    })
    report["pairs"] = per_benchmark
    return report


def cmd_tournament(plan: ExperimentPlan) -> dict:
    """Run every strategy variant with its fixed (F, CR) pair over the plan's
    benchmarks, score AOV / convergence speed / Q, and rank by average rank.

    Each variant runs the plan with its own strategy and F/CR; every other
    setting comes from the plan. Only an ``aded`` plan is taken."""
    if plan.algorithm != "aded":
        raise ConfigError(f"tournament does not take algorithm {plan.algorithm!r}")
    variants = [replace(plan, config=replace(
        plan.config, strategy=StrategyId.parse(name),
        schedule=ScheduleParams(mode="fixed", fixed_f=fixed_f, fixed_cr=fixed_cr),
    )) for name, fixed_f, fixed_cr in TOURNAMENT_PAIRS]
    results = iter(_execute_batches(
        [_seeded_runs(variant, b) for variant in variants for b in plan.benchmarks], plan.jobs))
    detail_rows = []
    scores = []
    for variant, _, _ in TOURNAMENT_PAIRS:
        per_function = []
        for benchmark_id in plan.benchmarks:
            runs = next(results)
            qm = q_measure(runs, lookup(benchmark_id).known_optimum)
            entry = {
                "variant": variant,
                "benchmark": benchmark_id,
                "aov": aov(runs),
                "cs": convergence_speed(runs),
                "q": qm.q,
                "n_success": qm.n_success,
            }
            per_function.append(entry)
            detail_rows.append(entry)
        scores.append((
            variant,
            float(np.mean([e["aov"] for e in per_function])),
            float(np.mean([e["cs"] for e in per_function])),
            float(np.mean([e["q"] for e in per_function])),
        ))
    ranked = rank_variants(scores)
    pairs = {v: (f, cr) for v, f, cr in TOURNAMENT_PAIRS}
    report = {
        **_header(plan),
        "benchmarks": list(plan.benchmarks),
        "pop": plan.config.population_size,
        "gens": plan.config.max_generations,
        "table": [asdict(s) | {"f": pairs[s.variant][0], "cr": pairs[s.variant][1]}
                  for s in ranked],
        "detail": detail_rows,
    }
    _write(plan.out_dir, {
        "tournament.csv": _csv(
            ["variant", "f", "cr", "aov", "aov_rank", "cs", "cs_rank",
             "q_measure", "q_rank", "average_rank"],
            [[s.variant, pairs[s.variant][0], pairs[s.variant][1], s.aov, s.aov_rank,
              s.cs, s.cs_rank, s.q, s.q_rank, s.average_rank] for s in ranked]),
        "tournament_detail.csv": _csv(
            ["variant", "benchmark", "aov", "cs", "q_measure", "n_success"],
            [[e["variant"], e["benchmark"], e["aov"], e["cs"], e["q"], e["n_success"]]
             for e in detail_rows]),
        "tournament.json": _json(report),
    })
    report["ranked"] = ranked
    return report


def cmd_moo(plan: ExperimentPlan, weights=None, reference_size: int = 1000) -> dict:
    """Seeded multi-objective runs with front export and GD / spread scoring.

    Every run uses the multi-objective engine; a classic DE plan is refused.
    The weights are checked for every benchmark before any run starts."""
    if plan.algorithm == "classic_de":
        raise ConfigError("classic_de is single-objective; `moo` runs the adaptive engine")
    report = {**_header(plan), "benchmarks": {}}
    batches = []
    for benchmark_id in plan.benchmarks:
        spec = lookup(benchmark_id)
        if spec.n_objectives == 1:
            raise ConfigError(f"{benchmark_id!r} is single-objective; use `run` instead")
        w = np.asarray(weights, dtype=float) if weights is not None else (
            np.full(spec.n_objectives, 1.0 / spec.n_objectives))
        if w.shape != (spec.n_objectives,):
            raise ShapeError(f"{benchmark_id} has {spec.n_objectives} objectives, weights {w.shape}")
        _check_weights(w)
        batches.append(_seeded_runs(plan, benchmark_id, w))
    all_results, front_rows, metric_rows = {}, [], []
    for benchmark_id, results in zip(plan.benchmarks, _execute_batches(batches, plan.jobs)):
        reference = (analytic_front(benchmark_id, reference_size)
                     if lookup(benchmark_id).front_sampler is not None else None)
        runs = []
        for run_idx, result in enumerate(results):
            front = np.array([objs for _, objs in result.front])
            entry = {
                "seed": result.seed,
                "front_size": len(result.front),
                "n_evaluations": result.n_evaluations,
                "terminated_by": result.terminated_by,
                "wall_seconds": result.wall_seconds,
                "best_scalarized": result.best_f,
            }
            if reference is not None:
                entry["gd"] = generational_distance(front, reference)
                entry["spread"] = spread(front, reference) if front.shape[0] >= 2 else None
            runs.append((result, entry))
            front_rows.extend([benchmark_id, run_idx, result.seed, _vector_cell(x), *objs.tolist()]
                              for x, objs in result.front)
            metric_rows.append([benchmark_id, run_idx, result.seed, entry.get("gd"),
                                entry.get("spread"), entry["front_size"], entry["n_evaluations"],
                                entry["terminated_by"]])
        all_results[benchmark_id] = runs
        report["benchmarks"][benchmark_id] = [e for _, e in runs]
    n_objs = max(len(row) - 4 for row in front_rows)
    _write(plan.out_dir, {
        "front.csv": _csv(["benchmark", "run", "seed", "x"] + [f"f{i + 1}" for i in range(n_objs)],
                          front_rows),
        "moo_metrics.csv": _csv(["benchmark", "run", "seed", "gd", "spread", "front_size",
                                 "n_evaluations", "terminated_by"], metric_rows),
        "moo_report.json": _json(report),
    })
    report["results"] = all_results
    return report
