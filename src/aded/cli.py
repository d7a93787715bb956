"""Command-line entry point.

Subcommands: list-benchmarks, run, compare, tournament, moo. Options resolve
as preset defaults < config file < command-line flags. Exit codes: 0 on
success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import UnknownBenchmarkError
from .core import ConfigError, DomainError, ShapeError, SpaceError
from .harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    OPTIONS,
    _given,
    benchmark_list,
    build_plan,
    cmd_compare,
    cmd_list_benchmarks,
    cmd_moo,
    cmd_run,
    cmd_tournament,
    resolve_options,
    resolve_out_dir,
)

_CONFIG_ERRORS = (ConfigError, SpaceError, ShapeError, UnknownBenchmarkError, ValueError)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """--preset, --config and a string flag per option but ``algorithm``."""
    parser.add_argument("--preset", help="named preset to start from")
    parser.add_argument("--config", help="flat key=value config file")
    for key, (_, help_text, _) in OPTIONS.items():
        if key != "algorithm":
            parser.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)


# The only options `tournament` uses; any other is refused, not ignored.
_TOURNAMENT_KEYS = ("benchmark", "runs", "pop", "gens", "seed", "jobs", "out")


def _options_from_args(args) -> dict:
    overrides = {k: getattr(args, k, None) for k in OPTIONS}
    return resolve_options(
        preset=getattr(args, "preset", None),
        config_file=getattr(args, "config", None),
        overrides=overrides,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aded",
        description="Adaptive differential evolution: benchmark and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list-benchmarks", help="print the benchmark catalog")
    p_list.add_argument("--format", choices=["csv", "json"], default="csv")

    p_run = sub.add_parser("run", help="seeded batch of optimizer runs")
    _add_common_options(p_run)
    p_run.add_argument("--algorithm", choices=["aded", "classic_de"], help=OPTIONS["algorithm"][1])

    p_cmp = sub.add_parser("compare", help="adaptive engine vs classic DE on shared benchmarks")
    _add_common_options(p_cmp)

    p_tour = sub.add_parser("tournament", help="rank the 14 strategy variants")
    _add_common_options(p_tour)

    p_moo = sub.add_parser("moo", help="multi-objective runs with GD/spread scoring")
    _add_common_options(p_moo)
    p_moo.add_argument("--weights", help="comma-separated scalarization weights")

    return parser


def _dispatch(args) -> int:
    if args.command == "list-benchmarks":
        print(cmd_list_benchmarks(args.format))
        return EXIT_OK

    if args.command == "run":
        options = _options_from_args(args)
        plan = build_plan(options)
        report = cmd_run(plan)
        for benchmark_id, stats in report["benchmarks"].items():
            print(f"{benchmark_id}: mean best_f = {stats['mean_best_f']:.6g} "
                  f"(min {stats['min_best_f']:.6g}) over {plan.n_runs} runs")
        if plan.out_dir is not None:
            print(f"artifacts written to {plan.out_dir}")
        return EXIT_OK

    if args.command == "compare":
        options = _options_from_args(args)
        plan_a = build_plan({**options, "algorithm": "aded"})
        plan_b = build_plan({**options, "algorithm": "classic_de"})
        report = cmd_compare(plan_a, plan_b)
        for row in report["rows"]:
            print(f"{row['benchmark']}: {row['label_a']} mean {row['mean_a']:.6g} vs "
                  f"{row['label_b']} mean {row['mean_b']:.6g} "
                  f"(t={row['t']:.3f}, p={row['p']:.4f}{row['stars']})")
        if plan_a.out_dir is not None:
            print(f"artifacts written to {plan_a.out_dir}")
        return EXIT_OK

    if args.command == "tournament":
        options = _options_from_args(args)
        unsupported = [k for k in options if k not in _TOURNAMENT_KEYS]
        if unsupported:
            raise ConfigError(
                "tournament does not take "
                + ", ".join(f"--{k.replace('_', '-')}" for k in unsupported)
                + "; every variant runs at its own fixed F/CR with the default engine settings"
            )
        kwargs = _given(options, {"runs": "n_runs", "pop": "pop", "gens": "gens",
                                  "seed": "base_seed", "jobs": "jobs"})
        if "benchmark" in options:
            kwargs["benchmarks"] = benchmark_list(options["benchmark"])
        out = resolve_out_dir(options)
        report = cmd_tournament(out_dir=out, **kwargs)
        for row in report["table"]:
            print(f"{row['variant']:<20} aov={row['aov']:.6g} cs={row['cs']:.6g} "
                  f"q={row['q']:.6g} avg_rank={row['average_rank']:.4f}")
        print(f"artifacts written to {out}")
        return EXIT_OK

    if args.command == "moo":
        options = _options_from_args(args)
        plan = build_plan(options)
        weights = ([float(w) for w in args.weights.split(",")]
                   if getattr(args, "weights", None) else None)
        report = cmd_moo(plan, weights=weights)
        for benchmark_id, entries in report["benchmarks"].items():
            for entry in entries:
                gd = entry.get("gd")
                gd_text = f"gd={gd:.6g} " if gd is not None else ""
                print(f"{benchmark_id} seed {entry['seed']}: {gd_text}"
                      f"front size {entry['front_size']}")
        if plan.out_dir is not None:
            print(f"artifacts written to {plan.out_dir}")
        return EXIT_OK

    raise ConfigError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (DomainError, RuntimeError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except _CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
