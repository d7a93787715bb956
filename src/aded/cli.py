"""Command-line entry point.

Subcommands: list-benchmarks, run, compare, tournament, moo. Options resolve
as preset defaults < config file < command-line flags. Exit codes: 0 on
success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys

from .benchmarks import UnknownBenchmarkError
from .core import ConfigError, DomainError
from .harness import (
    ALGORITHMS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    OPTIONS,
    PRESETS,
    TOURNAMENT_BENCHMARKS,
    build_plan,
    cmd_compare,
    cmd_list_benchmarks,
    cmd_moo,
    cmd_run,
    cmd_tournament,
    resolve_options,
)

_CONFIG_ERRORS = (UnknownBenchmarkError, ValueError)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    """--preset, --config and a string flag per option but ``algorithm``. The
    flag of an option the command refuses is parsed, so that the refusal reads
    the same as from a file, but left out of --help."""
    parser.add_argument("--preset", help="named preset to start from")
    parser.add_argument("--config", help="flat key=value config file")
    refused = _NOT_TAKEN.get(parser.prog.split()[-1], ())
    for key, (_, help_text, _) in OPTIONS.items():
        if key != "algorithm":
            parser.add_argument("--" + key.replace("_", "-"), dest=key,
                                help=argparse.SUPPRESS if key in refused else help_text)


# Options a command, or `run`'s classic_de algorithm, refuses rather than ignores: compare
# runs both engines, each tournament variant sets these itself, the multi-objective engine
# builds its own donor and reads F only, and classic DE replaces these (engine.classic_config).
_NOT_TAKEN = {
    "compare": ("algorithm",),
    "tournament": ("algorithm", "strategy", "mode", "f0", "cr0", "fixed_f", "fixed_cr"),
    "moo": ("strategy", "algorithm", "cr0", "fixed_cr"),
    "classic_de": ("strategy", "local_search", "ls_iterations", "ls_probability", "ls_step",
                   "mode", "f0", "cr0"),
}

# The tournament's lowest layer, under its preset, config file and flags.
_TOURNAMENT_DEFAULTS = {"benchmark": ",".join(TOURNAMENT_BENCHMARKS),
                        **PRESETS["tournament-desk"]}


def _options_from_args(args) -> dict:
    options = resolve_options(
        preset=getattr(args, "preset", None),
        config_file=getattr(args, "config", None),
        overrides={k: getattr(args, k, None) for k in OPTIONS},
    )
    algorithm = options.get("algorithm")
    for taker in (args.command, algorithm if algorithm in ALGORITHMS else None):
        refused = [k for k in _NOT_TAKEN.get(taker, ()) if k in options]
        if refused:
            raise ConfigError(f"{taker} does not take {', '.join(refused)}")
    return options


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
    p_run.add_argument("--algorithm", help=OPTIONS["algorithm"][1])

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
        print(cmd_list_benchmarks(args.format), end="")
        return EXIT_OK

    options = _options_from_args(args)
    plan = build_plan({**_TOURNAMENT_DEFAULTS, **options} if args.command == "tournament"
                      else options)
    if args.command == "run":
        report = cmd_run(plan)
        for benchmark_id, stats in report["benchmarks"].items():
            print(f"{benchmark_id}: mean best_f = {stats['mean_best_f']:.6g} "
                  f"(min {stats['min_best_f']:.6g}) over {plan.n_runs} runs")
    elif args.command == "compare":
        report = cmd_compare(plan)
        for row in report["rows"]:
            print(f"{row['benchmark']}: {row['label_a']} mean {row['mean_a']:.6g} vs "
                  f"{row['label_b']} mean {row['mean_b']:.6g} "
                  f"(t={row['t']:.3f}, p={row['p']:.4f}{row['stars']})")
    elif args.command == "tournament":
        report = cmd_tournament(plan)
        for row in report["table"]:
            print(f"{row['variant']:<20} aov={row['aov']:.6g} cs={row['cs']:.6g} "
                  f"q={row['q']:.6g} avg_rank={row['average_rank']:.4f}")
    else:
        try:
            weights = None if args.weights is None else [float(w) for w in args.weights.split(",")]
        except ValueError:
            raise ConfigError(f"weights must be comma-separated numbers, got {args.weights!r}") from None
        report = cmd_moo(plan, weights=weights)
        for benchmark_id, entries in report["benchmarks"].items():
            for entry in entries:
                gd = entry.get("gd")
                gd_text = f"gd={gd:.6g} " if gd is not None else ""
                print(f"{benchmark_id} seed {entry['seed']}: {gd_text}"
                      f"front size {entry['front_size']}")
    print(f"artifacts written to {plan.out_dir}")
    return EXIT_OK


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
