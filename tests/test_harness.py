import csv
import dataclasses
import hashlib
import json
import multiprocessing
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aded.cli
from aded import ConfigError, EngineConfig, RngStream, harness
from aded.benchmarks import BATTERY_IDS, UnknownBenchmarkError, analytic_front, lookup
from aded.cli import main
from aded.engine import classic_config
from aded.harness import (
    OPTIONS,
    PRESETS,
    TOURNAMENT_PAIRS,
    ExperimentPlan,
    build_engine_config,
    build_plan,
    cmd_compare,
    cmd_list_benchmarks,
    cmd_moo,
    cmd_run,
    cmd_tournament,
    config_hash,
    load_config_file,
    resolve_options,
    resolve_out_dir,
)
from aded.moo import pareto_dominates
from aded.stats import rank_variants
from aded.variation import LocalSearchBudget, ScheduleParams, StrategyId


def tiny_options(**kwargs):
    options = {"benchmark": "sphere", "pop": 12, "gens": 6, "runs": 2, "seed": 0,
               "ls_iterations": 8}
    options.update(kwargs)
    return options


class TestOptionResolution:
    def test_preset_known_values(self):
        # frozen snapshot of the experiment presets
        assert PRESETS["sinusoidal"] == {
            "benchmark": "sinusoidal", "algorithm": "aded", "pop": 50, "gens": 100, "runs": 10,
        }
        assert PRESETS["battery-2d"] == {"pop": 300, "gens": 200, "runs": 30}
        assert PRESETS["classic-convex"]["algorithm"] == "classic_de"
        assert PRESETS["moo-zdt1"] == {
            "benchmark": "zdt1", "pop": 100, "gens": 100, "runs": 3, "f0": 2.0,
            "stagnation_limit": 40, "ls_iterations": 5, "ls_probability": 0.1,
        }

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve_options(preset="nope")

    # a retired key or a typo from a library caller is refused, not ignored
    @pytest.mark.parametrize("key", ["neighborhood", "neighborhood_size", "popp"])
    @pytest.mark.parametrize("build", [
        build_plan, build_engine_config, lambda options: resolve_options(overrides=options),
    ], ids=["build_plan", "build_engine_config", "resolve_options"])
    def test_unknown_option_rejected(self, build, key):
        with pytest.raises(ConfigError, match=f"unknown option '{key}'"):
            build({"benchmark": "sphere", key: "3"})

    def test_no_two_presets_give_the_same_plan(self):
        plans = {}
        for name in PRESETS:
            plan = build_plan({"benchmark": "sphere", **resolve_options(preset=name)})
            key = (config_hash(plan.config), tuple(plan.benchmarks), plan.algorithm, plan.n_runs)
            assert key not in plans, f"{name} runs the plan of {plans.get(key)}"
            plans[key] = name

    def test_precedence_flags_over_file_over_preset(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = sinusoidal\npop = 20\n# comment\ngens=33\n")
        options = resolve_options(config_file=cfg, overrides={"pop": 11})
        assert options["pop"] == 11          # flag wins
        assert options["gens"] == 33         # file wins over preset
        assert options["benchmark"] == "sinusoidal"  # preset value survives

    def test_preset_flag_wins_over_file_preset(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = sinusoidal\npop = 20\n")
        options = resolve_options(preset="battery-2d", config_file=cfg)
        assert options == {**PRESETS["battery-2d"], "pop": 20}

    def test_malformed_file_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg)

    def test_every_preset_key_and_ls_step_load_from_a_file(self, tmp_path):
        for name, preset in PRESETS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in preset.items())
                           + "ls-step = 1e-7\n")
            assert resolve_options(config_file=cfg) == {**preset, "ls_step": 1e-7}

    def test_unknown_file_key_rejected_with_its_line(self, tmp_path):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("benchmark = sphere\n# pop size\npopsize = 7\n")
        with pytest.raises(ConfigError, match=r"typo\.cfg:3: unknown key 'popsize'"):
            load_config_file(cfg)

    def test_build_engine_config_fields(self):
        cfg = build_engine_config({"pop": 24, "gens": 7, "strategy": "best1exp",
                                   "local_search": "off", "stagnation_tol": 0.0})
        assert isinstance(cfg, EngineConfig)
        assert cfg.population_size == 24
        assert cfg.strategy.name == "best1exp"
        assert not cfg.local_search.enabled
        assert cfg.stagnation_tol == 0.0

    def test_local_search_takes_on_or_off(self):
        assert build_engine_config({"local_search": "on"}).local_search.enabled
        assert not build_engine_config({"local_search": "off"}).local_search.enabled
        for typo in ("offf", "false", "0", "On"):
            with pytest.raises(ConfigError, match=f"local_search.*{typo!r}"):
                build_engine_config({"local_search": typo})

    def test_tournament_variant_config(self):
        # the tournament's per-variant config spelled out field by field; an
        # unset neighborhood_size resolves to min(10, pop - 1)
        cfg = build_engine_config({"pop": 8, "gens": 5, "mode": "fixed", "fixed_f": 0.9,
                                   "fixed_cr": 0.5, "strategy": "rand1bin", "seed": 3})
        assert cfg == EngineConfig(
            population_size=8,
            max_generations=5,
            schedule=ScheduleParams(mode="fixed", fixed_f=0.9, fixed_cr=0.5),
            strategy=StrategyId.parse("rand1bin"),
            neighborhood="dynamic",
            neighborhood_size=7,
            seed=3,
        )

    def test_config_hash_unchanged_by_option_defaults(self):
        # recorded when every option default was spelled out in build_engine_config;
        # moo-zdt1 re-recorded when the preset stopped setting cr0, which its
        # engine does not read
        recorded = {
            None: "dfcd716bce3c1569",
            "sinusoidal": "3a0a30154814b56f",
            "battery-2d": "ac4177e839f5be09",
            "classic-convex": "a2e6a1f8c2185f10",
            "tournament-desk": "a758484386bb5686",
            "moo-zdt1": "412ab533123e9a14",
        }
        assert set(recorded) == {None, *PRESETS}
        for preset, expected in recorded.items():
            options = dict(PRESETS[preset]) if preset else {}
            assert config_hash(build_engine_config(options)) == expected, preset

    def test_out_dir_precedence(self, monkeypatch):
        monkeypatch.delenv("ADED_OUT", raising=False)
        assert resolve_out_dir({}) == "aded-out"
        monkeypatch.setenv("ADED_OUT", "from-env")
        assert resolve_out_dir({}) == "from-env"
        assert resolve_out_dir({"out": "from-flag"}) == "from-flag"

    def test_build_plan_requires_benchmark(self):
        with pytest.raises(ConfigError):
            build_plan({})

    def test_build_plan_unknown_benchmark(self):
        with pytest.raises(UnknownBenchmarkError):
            build_plan({"benchmark": "zdt99"})

    def test_classic_plan_holds_classic_config_of_the_default(self):
        plan = build_plan({"benchmark": "sphere", "algorithm": "classic_de"})
        assert plan.config == classic_config(EngineConfig())

    def test_classic_plan_holds_classic_config_and_replace_keeps_it(self):
        given = EngineConfig(population_size=12, schedule=ScheduleParams(fixed_f=0.6))
        plan = ExperimentPlan(["sphere"], config=given, algorithm="classic_de")
        assert plan.config == classic_config(given) != given
        assert dataclasses.replace(plan, n_runs=3).config == plan.config


# A count or a seed that is not an integer is refused by name, not truncated
@pytest.mark.parametrize("name,build", [
    ("seed", lambda: EngineConfig(seed=1.5)),
    ("population_size", lambda: EngineConfig(population_size=10.5)),
    ("max_generations", lambda: EngineConfig(max_generations=2.5)),
    ("stagnation_limit", lambda: EngineConfig(stagnation_limit=2.5)),
    ("neighborhood_size", lambda: EngineConfig(neighborhood_size=3.0)),
    ("max_iterations", lambda: LocalSearchBudget(max_iterations=1.5)),
    ("dim", lambda: lookup("sphere").space(2.7)),
    ("pop", lambda: resolve_options(overrides={"pop": 37.9})),
    ("n_runs", lambda: ExperimentPlan(["sphere"], n_runs=2.5)),
    ("jobs", lambda: ExperimentPlan(["sphere"], jobs=1.5)),
    ("base_seed", lambda: ExperimentPlan(["sphere"], base_seed=np.float64(1.0))),
    ("dim", lambda: ExperimentPlan(["rastrigin"], dim=3.9)),
    ("seed", lambda: RngStream(1.5)),
    ("k", lambda: analytic_front("zdt1", 2.5)),
], ids=["seed", "population_size", "max_generations", "stagnation_limit",
        "neighborhood_size", "max_iterations", "space-dim", "pop", "n_runs", "jobs",
        "base_seed", "plan-dim", "rng-seed", "front-k"])
def test_count_or_seed_that_is_not_an_integer_is_refused(name, build):
    with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
        build()


def test_plan_with_a_seed_that_is_not_an_integer_writes_nothing(tmp_path):
    with pytest.raises(ConfigError, match="^seed must be an integer, got 1.5$"):
        cmd_run(build_plan(tiny_options(seed=1.5, out=str(tmp_path / "out"))))
    assert list(tmp_path.iterdir()) == []


def test_numpy_integers_are_taken_and_run_as_python_integers():
    given = EngineConfig(population_size=np.int64(12), max_generations=np.int32(3),
                         stagnation_limit=np.int16(4), neighborhood_size=np.int64(5),
                         seed=np.int64(3), local_search=LocalSearchBudget(max_iterations=np.int64(2)))
    plan = ExperimentPlan(["rastrigin"], config=given, n_runs=np.int64(2), jobs=np.int8(1),
                          base_seed=np.int64(7), dim=np.int64(3))
    want_config = EngineConfig(population_size=12, max_generations=3, stagnation_limit=4,
                               neighborhood_size=5, seed=3,
                               local_search=LocalSearchBudget(max_iterations=2))
    counts = [(given, "population_size"), (given, "max_generations"), (given, "stagnation_limit"),
              (given, "neighborhood_size"), (given, "seed"), (given.local_search, "max_iterations"),
              (plan, "n_runs"), (plan, "jobs"), (plan, "base_seed"), (plan, "dim")]
    for holder, name in counts:
        assert type(getattr(holder, name)) is int, name
    assert given == want_config
    assert config_hash(given) == config_hash(want_config)
    assert '"base_seed": 7,' in harness._json(harness._header(plan))
    assert resolve_options(overrides={"pop": np.int64(12)})["pop"] == 12
    spec = lookup("rastrigin")
    got = aded.engine.run_aded(spec.evaluate, spec.space(plan.dim), plan.config)
    want = aded.engine.run_aded(spec.evaluate, spec.space(3), want_config)
    assert (got.best_f, got.n_evaluations) == (want.best_f, want.n_evaluations)
    assert np.array_equal(got.best_x, want.best_x)


def test_float_fields_given_as_integers_are_stored_as_floats():
    def config(f, cr, probability, tol, step):
        return EngineConfig(
            schedule=ScheduleParams(initial_f=f, initial_cr=cr, fixed_f=f, fixed_cr=cr),
            local_search=LocalSearchBudget(gradient_step=step, probability=probability),
            stagnation_tol=tol)

    from_ints = config(1, 1, 1, 0, 1e-6)
    from_floats = config(1.0, 1.0, 1.0, 0.0, 1e-6)
    from_float32 = config(*map(np.float32, (1, 1, 1, 0, 1e-6)))
    for cfg in (from_ints, from_float32):
        fields = [(cfg.schedule, name) for name in ("initial_f", "initial_cr", "fixed_f", "fixed_cr")]
        fields += [(cfg.local_search, "gradient_step"), (cfg.local_search, "probability"),
                   (cfg, "stagnation_tol")]
        for holder, name in fields:
            assert type(getattr(holder, name)) is float, name
    assert from_ints == from_floats
    assert config_hash(from_ints) == config_hash(from_floats)


class TestListBenchmarks:
    def test_contains_entire_catalog(self):
        listing = cmd_list_benchmarks()
        for benchmark_id in BATTERY_IDS:
            assert benchmark_id in listing
        for benchmark_id in ("sphere", "sinusoidal", "zdt1", "zdt2", "dltz1"):
            assert benchmark_id in listing
        assert "rastrigin" in listing and "[-5.12,5.12]" in listing

    def test_stable_ordering(self):
        assert cmd_list_benchmarks() == cmd_list_benchmarks()

    @pytest.mark.parametrize("fmt", ["xml", "CSV", "", None])
    def test_unknown_format_is_refused(self, fmt):
        with pytest.raises(ConfigError, match=re.escape(repr(fmt))):
            cmd_list_benchmarks(fmt)

    def test_json_format(self):
        entries = json.loads(cmd_list_benchmarks("json"))
        ids = [e["id"] for e in entries]
        assert len(ids) == len(set(ids))
        assert set(BATTERY_IDS) <= set(ids)
        rules = {e["id"]: e["dim_rule"] for e in entries if e["kind"].startswith("multi")}
        assert rules == {"zdt1": "any-n", "zdt2": "any-n", "dltz1": "fixed-n", "mo_demo": "any-n"}

    def test_bounds_are_the_default_box_for_every_kind(self):
        """One pair per coordinate at the default dim, single- and
        multi-objective alike."""
        entries = {e["id"]: e for e in json.loads(cmd_list_benchmarks("json"))}
        for e in entries.values():
            assert len(e["bounds"]) == e["dim"], e["id"]
        assert entries["sphere"]["bounds"] == [[-10.0, 10.0]] * 2
        assert entries["mo_demo"]["bounds"] == [[-10.0, 10.0]] * 2
        assert entries["zdt1"]["bounds"] == [[0.0, 1.0]] * 30
        assert entries["bukin_n6"]["bounds"] == [[-15.0, -5.0], [-3.0, 3.0]]
        csv_rows = {line.split(",")[0]: line for line in cmd_list_benchmarks().splitlines()}
        assert csv_rows["mo_demo"] == 'mo_demo,multi(2),any-n,2,"[-10.0,10.0];[-10.0,10.0]",'


class TestCmdRun:
    def test_artifacts_and_row_counts(self, tmp_path):
        plan = build_plan(tiny_options(out=str(tmp_path)))
        report = cmd_run(plan)
        raw = (tmp_path / "raw_history.csv").read_text().splitlines()
        summary = (tmp_path / "run_summary.csv").read_text().splitlines()
        results = report["results"]["sphere"]
        expected_rows = sum(r.generations_executed for r in results)
        assert len(raw) - 1 == expected_rows
        assert len(summary) - 1 == plan.n_runs
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config_hash"] == report["config_hash"]
        assert "mean_best_f" in payload["benchmarks"]["sphere"]

    def test_raw_csv_byte_identical_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cmd_run(build_plan(tiny_options(out=str(a))))
        cmd_run(build_plan(tiny_options(out=str(b))))
        assert (a / "raw_history.csv").read_bytes() == (b / "raw_history.csv").read_bytes()
        assert (a / "run_summary.csv").read_bytes() == (b / "run_summary.csv").read_bytes()

    def test_parallel_jobs_match_serial_bytes(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        cmd_run(build_plan(tiny_options(out=str(serial))))
        cmd_run(build_plan(tiny_options(out=str(parallel), jobs=2)))
        assert (serial / "raw_history.csv").read_bytes() == \
            (parallel / "raw_history.csv").read_bytes()

    # sha256 of raw_history.csv and of run_summary.csv without its
    # n_evaluations column, and that column
    PINNED_ARTIFACTS = {
        "refine-0.3": (
            {"ls_probability": 0.3, "ls_iterations": 4},
            "0b945cc9b98d621086e223859d823ea2c3043634636bf29ddcaf0523c62da8f0",
            "feac40d746771875cfeb3aedccf50d1b3df22e52a811247cb7058481c119e3ec",
            [["709"], ["872"], ["815"], ["653"], ["818"], ["736"]],
        ),
        "local-search-off": (
            {"local_search": "off"},
            "9746f148c902a1d5c618eb6c97ffc38e6f981f3ca097affcfdc2000fa4ebd2d3",
            "707d282ab74c4df98b0271c38b2cee247aaacee6bd9442d865e4784f0cdea55e",
            [["108"]] * 6,
        ),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_artifact_bytes_pinned(self, name, jobs, tmp_path):
        extra, raw_sha, summary_sha, evaluations = self.PINNED_ARTIFACTS[name]
        cmd_run(build_plan({"benchmark": "rastrigin,himmelblau", "pop": 12, "gens": 8,
                            "runs": 3, "seed": 0, "jobs": jobs, "out": str(tmp_path),
                            **extra}))
        summary = tmp_path / "run_summary.csv"
        assert _digest((tmp_path / "raw_history.csv").read_bytes()) == raw_sha
        assert _digest(_drop_column(summary, "n_evaluations")) == summary_sha
        assert _columns(summary, "n_evaluations") == evaluations

    def test_multiple_benchmarks(self, tmp_path):
        plan = build_plan(tiny_options(benchmark="sphere,booth", out=str(tmp_path)))
        report = cmd_run(plan)
        assert set(report["benchmarks"]) == {"sphere", "booth"}

    def test_multi_objective_plan_rejected(self):
        plan = build_plan(tiny_options(benchmark="zdt1", algorithm="aded_mo"))
        with pytest.raises(ConfigError):
            cmd_run(plan)


@pytest.mark.parametrize("algorithm", ["classic_de", "aded_mo"])
@pytest.mark.parametrize("name", ["compare", "tournament"])
def test_command_refuses_a_plan_of_another_algorithm(name, algorithm, tmp_path, monkeypatch):
    """compare and tournament pick their own engines: a plan of another
    algorithm is a ConfigError naming the command, before any run or file."""
    batches = []
    monkeypatch.setattr(harness, "_execute_batches", lambda *args: batches.append(args))
    plan = build_plan(tiny_options(algorithm=algorithm, out=str(tmp_path / "out")))
    with pytest.raises(ConfigError, match=f"^{name} does not take algorithm '{algorithm}'"):
        getattr(harness, f"cmd_{name}")(plan)
    assert batches == [] and list(tmp_path.iterdir()) == []


class TestCmdCompare:
    def test_row_per_benchmark_and_direction(self, tmp_path):
        report = cmd_compare(build_plan(tiny_options(benchmark="sphere,matyas",
                                                     out=str(tmp_path), runs=3)))
        assert len(report["rows"]) == 2
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "comparison.txt").exists()

    def test_self_comparison_gives_zero_t(self, tmp_path, monkeypatch):
        # both arms run classic DE: classic_config of a classic config is itself
        monkeypatch.setattr(harness, "run_aded", aded.engine.run_classic_de)
        report = cmd_compare(build_plan(tiny_options(runs=3, out=str(tmp_path))))
        assert report["rows"][0]["t"] == 0.0

    def test_reports_mean_evaluations_per_arm(self, tmp_path):
        report = cmd_compare(build_plan(tiny_options(benchmark="sphere,matyas",
                                                     out=str(tmp_path), runs=3)))
        payload = json.loads((tmp_path / "comparison.json").read_text())
        text = (tmp_path / "comparison.txt").read_text().splitlines()
        for i, row in enumerate(payload["rows"]):
            results_a, results_b = report["pairs"][row["benchmark"]]
            assert row["evals_a"] == np.mean([r.n_evaluations for r in results_a])
            assert row["evals_b"] == np.mean([r.n_evaluations for r in results_b])
            assert f"{row['evals_a']:.1f}" in text[2 + 2 * i].split()
            assert f"{row['evals_b']:.1f}" in text[3 + 2 * i].split()
        # the CSV keeps its columns: the evaluations go to the JSON and text reports
        assert hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest() == \
            "6dab16c680dc9758b99374cef7401a0b1c5df18a4bc87711af1b2871e127b6ce"

    def test_records_the_config_each_arm_ran(self, tmp_path):
        plan = build_plan(tiny_options(runs=2, out=str(tmp_path)))
        cmd_compare(plan)
        payload = json.loads((tmp_path / "comparison.json").read_text())
        assert payload["config_hash"] == [config_hash(plan.config),
                                          config_hash(classic_config(plan.config))]
        assert payload["config_hash"][0] != payload["config_hash"][1]


class TestCmdTournament:
    def test_micro_tournament_shape_and_ranks(self, tmp_path):
        report = cmd_tournament(build_plan({"benchmark": "sphere,sinusoidal", "runs": 2,
                                            "pop": 16, "gens": 8, "out": str(tmp_path)}))
        assert len(report["table"]) == 14
        emitted_names = {row["variant"] for row in report["table"]}
        assert emitted_names == {v for v, _, _ in TOURNAMENT_PAIRS}
        # rank arithmetic must match an independent recomputation
        scores = [(row["variant"], row["aov"], row["cs"], row["q"])
                  for row in report["table"]]
        recomputed = {s.variant: s for s in rank_variants(scores)}
        for row in report["table"]:
            again = recomputed[row["variant"]]
            assert row["aov_rank"] == again.aov_rank
            assert row["cs_rank"] == again.cs_rank
            assert row["q_rank"] == again.q_rank
            assert row["average_rank"] == pytest.approx(again.average_rank)
        csv_lines = (tmp_path / "tournament.csv").read_text().splitlines()
        assert len(csv_lines) - 1 == 14
        detail = (tmp_path / "tournament_detail.csv").read_text().splitlines()
        assert len(detail) - 1 == 28  # 14 variants x 2 objectives

    def test_pairs_table_is_frozen(self):
        assert TOURNAMENT_PAIRS[0] == ("rand1bin", 0.9, 0.5)
        assert TOURNAMENT_PAIRS[2] == ("best1bin", 0.1, 0.1)
        assert len(TOURNAMENT_PAIRS) == 14


def moo_options(**kwargs):
    options = {"benchmark": "zdt1", "algorithm": "aded_mo", "pop": 16, "gens": 10,
               "runs": 1, "seed": 0, "f0": 1.0, "cr0": 0.9, "ls_iterations": 5,
               "ls_probability": 0.2, "stagnation_limit": 10}
    options.update(kwargs)
    return options


class TestCmdMoo:
    def test_zdt1_report_and_front(self, tmp_path):
        plan = build_plan(moo_options(out=str(tmp_path)))
        report = cmd_moo(plan)
        entry = report["benchmarks"]["zdt1"][0]
        assert "gd" in entry and np.isfinite(entry["gd"])
        front_csv = (tmp_path / "front.csv").read_text().splitlines()
        assert len(front_csv) - 1 == entry["front_size"]
        result = report["results"]["zdt1"][0][0]
        objs = [o for _, o in result.front]
        for i, a in enumerate(objs):
            for j, b in enumerate(objs):
                if i != j:
                    assert not pareto_dominates(a, b)

    def test_single_objective_benchmark_rejected(self):
        plan = ExperimentPlan(benchmarks=["sphere"], algorithm="aded_mo", n_runs=1)
        with pytest.raises(ConfigError):
            cmd_moo(plan)

    def test_aded_plan_writes_the_aded_mo_plan_front(self, tmp_path):
        """The benchmark's objective count picks the engine, not the plan's
        algorithm name."""
        for algorithm in ("aded", "aded_mo"):
            cmd_moo(build_plan(moo_options(algorithm=algorithm, out=str(tmp_path / algorithm))))
        assert (tmp_path / "aded" / "front.csv").read_bytes() == \
            (tmp_path / "aded_mo" / "front.csv").read_bytes()

    def test_classic_de_plan_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="classic_de is single-objective"):
            cmd_moo(build_plan(moo_options(algorithm="classic_de", out=str(tmp_path))))
        assert list(tmp_path.iterdir()) == []

    def test_gd_of_reference_against_itself_is_zero(self):
        from aded import analytic_front, generational_distance

        ref = analytic_front("zdt2", 200)
        assert generational_distance(obtained=ref, reference=ref) == 0.0

    def test_demo_benchmark_runs_without_reference(self, tmp_path):
        plan = build_plan(moo_options(benchmark="mo_demo", out=str(tmp_path)))
        report = cmd_moo(plan)
        entry = report["benchmarks"]["mo_demo"][0]
        assert "gd" not in entry
        assert entry["front_size"] >= 1


class TestReports:
    def test_plan_without_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run = cmd_run(ExperimentPlan(benchmarks=["sphere"], n_runs=2,
                                     config=build_engine_config(tiny_options())))
        moo = cmd_moo(ExperimentPlan(benchmarks=["zdt1"], algorithm="aded_mo", n_runs=1,
                                     config=build_engine_config(moo_options())))
        assert len(run["results"]["sphere"]) == 2 and len(moo["results"]["zdt1"]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run-aded", "run-classic_de", "tournament", "moo"])
    def test_every_report_carries_one_run_record(self, command, tmp_path):
        out = str(tmp_path)
        if command == "tournament":
            plan = build_plan({"benchmark": "sphere", "runs": 1, "pop": 10, "gens": 2, "out": out})
            cmd_tournament(plan)
            name = "tournament.json"
        elif command == "moo":
            plan = build_plan(moo_options(out=out))
            cmd_moo(plan)
            name = "moo_report.json"
        else:
            plan = build_plan(tiny_options(algorithm=command[4:], out=out))
            cmd_run(plan)
            name = "report.json"
        payload = json.loads((tmp_path / name).read_text())
        assert payload["version"] == aded.__version__
        assert (payload["n_runs"], payload["base_seed"]) == (plan.n_runs, plan.base_seed)
        recorded = json.dumps(payload["config"], sort_keys=True).encode()
        assert payload["config_hash"] == hashlib.sha256(recorded).hexdigest()[:16]


    def test_csv_cells(self):
        """A float, NumPy's included, is its Python repr; None is an empty
        cell; a cell with a comma or a double quote is quoted, its quotes
        doubled; a short row is padded with empty cells. A CSV reader reads
        the cells back."""
        cells = [None, 3, 0.1, np.float64(0.1), np.float32(0.5), "a,b", 'say "hi"']
        header = [f"c{i}" for i in range(len(cells) + 1)]
        text = harness._csv(header, [cells])
        assert text.splitlines() == [",".join(header), ',3,0.1,0.1,0.5,"a,b","say ""hi""",']
        assert text.endswith("\n") and "\r" not in text
        assert list(csv.reader(io.StringIO(text))) == \
            [header, ["", "3", "0.1", "0.1", "0.5", "a,b", 'say "hi"', ""]]

    @pytest.mark.parametrize("command", [cmd_run, cmd_compare, cmd_tournament, cmd_moo])
    def test_empty_benchmark_list_refused(self, command, tmp_path):
        with pytest.raises(ConfigError, match=r"no benchmark selected \(use --benchmark"):
            command(ExperimentPlan(benchmarks=[], n_runs=2, out_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = main(["run", "--benchmark", "sphere", "--pop", "12", "--gens", "4",
                     "--runs", "1", "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sphere" in out

    def test_unknown_benchmark_exit_two(self, tmp_path, capsys):
        code = main(["run", "--benchmark", "zdt99", "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare", "tournament", "moo"])
    def test_format_refused_outside_list_benchmarks(self, command, tmp_path, capsys):
        # these commands always write CSV and JSON; --format would do nothing
        with pytest.raises(SystemExit) as info:
            main([command, "--benchmark", "sphere", "--format", "json", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_list_benchmarks_format_json(self, capsys):
        assert main(["list-benchmarks", "--format", "json"]) == 0
        assert {e["id"] for e in json.loads(capsys.readouterr().out)} >= set(BATTERY_IDS)

    def test_config_file_typo_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("benchmark = sphere\npopsize = 7\n")
        code = main(["run", "--config", str(cfg), "--gens", "2", "--runs", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "c.cfg:2: unknown key 'popsize'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_local_search_typo_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("benchmark = sphere\nlocal_search = offf\n")
        code = main(["run", "--config", str(cfg), "--gens", "2", "--runs", "1",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "local_search must be 'on' or 'off', got 'offf'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,benchmarks,error", [
        ("moo", "zdt1,dltz1", "dltz1 is fixed at 7 dimensions, got 5"),
        ("run", "sphere,booth", "booth is fixed at 2 dimensions, got 5"),
    ])
    def test_dim_a_benchmark_does_not_take_exit_two_before_any_run(
            self, command, benchmarks, error, tmp_path, capsys, monkeypatch):
        self.check_exit_two_before_any_run([command, "--benchmark", benchmarks, "--dim", "5"],
                                           error, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("argv,error", [
        (["moo", "--benchmark", "zdt1", "--dim", "3", "--weights", "nan,1"],
         "weights must be finite"),
        (["run", "--benchmark", "sphere", "--mode", "fixed", "--fixed-f", "-3",
          "--fixed-cr", "0.5"], "fixed_f must lie in (0, 2], got -3.0"),
        (["run", "--benchmark", "sphere", "--mode", "fixed", "--fixed-f", "nan",
          "--fixed-cr", "0.5"], "fixed_f must lie in (0, 2], got nan"),
        (["run", "--benchmark", "sphere", "--mode", "fixed", "--fixed-f", "0.5",
          "--fixed-cr", "1.5"], "fixed_cr must lie in [0, 1], got 1.5"),
        (["run", "--benchmark", "sphere", "--stagnation-tol", "nan"],
         "stagnation_tol must be >= 0, got nan"),
        (["run", "--benchmark", "zdt1"], "'zdt1' is multi-objective; use `moo` instead"),
        (["compare", "--benchmark", "zdt1"], "'zdt1' is multi-objective; use `moo` instead"),
        (["tournament", "--benchmark", "zdt1"], "'zdt1' is multi-objective; use `moo` instead"),
        (["compare", "--benchmark", "sphere"], "compare needs --runs >= 2"),
        (["run", "--benchmark", "sphere,booth,sphere"],
         "benchmark 'sphere' is listed more than once"),
        (["run", "--benchmark", ","], "no benchmark selected"),
        (["compare", "--benchmark", ","], "no benchmark selected"),
        (["tournament", "--benchmark", ","], "no benchmark selected"),
        (["moo", "--benchmark", ","], "no benchmark selected"),
        (["moo", "--benchmark", "zdt1", "--strategy", "best1bin"], "moo does not take strategy"),
        (["run", "--benchmark", "sphere", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--preset", "classic-convex", "--strategy", "best2bin", "--f0", "0.7"],
         "classic_de does not take strategy, f0"),
        (["moo", "--benchmark", "zdt1", "--weights", "a,b"],
         "weights must be comma-separated numbers, got 'a,b'"),
        (["moo", "--benchmark", "zdt1", "--weights", ""],
         "weights must be comma-separated numbers, got ''"),
    ], ids=["moo-nan-weight", "fixed-f-negative", "fixed-f-nan", "fixed-cr-above-one",
            "stagnation-tol-nan", "run-zdt1", "compare-zdt1", "tournament-zdt1",
            "compare-one-run", "repeated-benchmark", "run-no-benchmark",
            "compare-no-benchmark", "tournament-no-benchmark", "moo-no-benchmark",
            "moo-strategy", "negative-seed", "classic-preset",
            "moo-weights-not-numbers", "moo-weights-empty"])
    def test_config_error_exit_two_before_any_run(self, argv, error, tmp_path, capsys,
                                                  monkeypatch):
        self.check_exit_two_before_any_run(argv, error, tmp_path, capsys, monkeypatch)

    @staticmethod
    def check_exit_two_before_any_run(argv, error, tmp_path, capsys, monkeypatch):
        """``argv`` exits 2 with ``error``, starts no run and writes nothing."""
        import aded.harness

        runs = []
        monkeypatch.setattr(aded.harness, "_execute_batches",
                            lambda *args: runs.append(args))
        code = main(argv + ["--pop", "8", "--gens", "2", "--runs", "1",
                            "--out", str(tmp_path / "out")])
        assert code == 2
        assert error in capsys.readouterr().err
        assert runs == [] and not (tmp_path / "out").exists()

    def test_unknown_preset_exit_two(self, tmp_path, capsys):
        code = main(["run", "--preset", "missing", "--out", str(tmp_path)])
        assert code == 2

    # the neighborhood settings drew as the default does, so they are no option
    @pytest.mark.parametrize("command", ["run", "compare", "tournament", "moo"])
    @pytest.mark.parametrize("flag", [["--neighborhood", "all"], ["--neighborhood-size", "3"]])
    def test_neighborhood_flag_exit_two_before_any_run(self, command, flag, tmp_path, capsys,
                                                        monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "_execute_batches", lambda *args: runs.append(args))
        with pytest.raises(SystemExit) as info:
            main([command, "--benchmark", "sphere", "--out", str(tmp_path / "out")] + flag)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert runs == [] and not (tmp_path / "out").exists()

    def test_neighborhood_file_line_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("benchmark = sphere\nneighborhood = all\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "c.cfg:2: unknown key 'neighborhood'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset", ["sinusoidal-global", "sinusoidal-dynamic"])
    def test_retired_sinusoidal_preset_exit_two(self, preset, tmp_path, capsys):
        assert main(["run", "--preset", preset, "--out", str(tmp_path / "out")]) == 2
        assert f"unknown preset {preset!r}; available: {', '.join(PRESETS)}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_objective_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        from aded import benchmarks

        broken = benchmarks.BenchmarkSpec(
            "broken", lambda x: float("nan"), "fixed-2d",
            ((-1.0, 1.0), (-1.0, 1.0)),
        )
        monkeypatch.setitem(benchmarks.CATALOG, "broken", broken)
        code = main(["run", "--benchmark", "broken", "--pop", "8", "--gens", "3",
                     "--runs", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [(command, key)
                                             for command, keys in aded.cli._NOT_TAKEN.items()
                                             for key in keys])
    def test_refused_key_exit_two_by_flag_or_file(self, command, key, tmp_path, capsys,
                                                  monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "_execute_batches", lambda *args: runs.append(args))
        value = NON_DEFAULT_VALUES.get(key, "aded")
        lines, flags = [f"{key} = {value}"], ["--" + key.replace("_", "-"), value]
        argv = [command]
        if command == "classic_de":  # an algorithm of `run`, given the same way as the key
            argv = ["run", "--benchmark", "sphere"]
            lines.insert(0, "algorithm = classic_de")
            flags = ["--algorithm", "classic_de"] + flags
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        givens = [["--config", str(cfg)]]
        if key != "algorithm":  # a flag of `run` only
            givens.append(flags)
        for given in givens:
            assert main(argv + ["--out", str(tmp_path / "out")] + given) == 2
            assert capsys.readouterr().err == \
                f"configuration error: {command} does not take {key}\n"
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,preset,key", [
        ("tournament", "sinusoidal", "algorithm"),
        ("compare", "classic-convex", "algorithm"),
    ])
    def test_refused_key_from_a_preset_exit_two(self, command, preset, key, tmp_path, capsys):
        assert main([command, "--preset", preset, "--out", str(tmp_path / "out")]) == 2
        assert f"{command} does not take {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_classic_convex_preset_runs_and_reports_the_config_it_ran(self, tmp_path):
        assert main(["run", "--preset", "classic-convex", "--pop", "12", "--gens", "3",
                     "--runs", "1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        ran = classic_config(build_engine_config({**PRESETS["classic-convex"], "pop": 12,
                                                  "gens": 3}))
        assert payload["config"] == json.loads(json.dumps(dataclasses.asdict(ran)))
        assert payload["config"]["strategy"] == {"mutation": "rand1", "crossover": "bin"}
        assert payload["config_hash"] == config_hash(ran)

    def test_moo_weights_of_wrong_length_exit_two(self, tmp_path, capsys):
        code = main(["moo", "--benchmark", "zdt1", "--weights", "1,1,1", "--pop", "6",
                     "--gens", "1", "--runs", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "zdt1 has 2 objectives" in capsys.readouterr().err

    def test_raising_multi_objective_exit_three(self, tmp_path, capsys, monkeypatch):
        from aded import benchmarks

        def boom(x):
            raise ValueError("boom")

        broken = benchmarks.BenchmarkSpec("broken_mo", boom, "any-n", ((0.0, 1.0),),
                                          min_dim=2, n_objectives=2)
        monkeypatch.setitem(benchmarks.CATALOG, "broken_mo", broken)
        code = main(["moo", "--benchmark", "broken_mo", "--pop", "8", "--gens", "2",
                     "--runs", "1", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime failure" in err and "generation 0" in err

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patched catalog only when forked")
    def test_raising_multi_objective_in_a_worker_exit_three(self, tmp_path, capsys,
                                                            monkeypatch):
        from aded import benchmarks

        def boom(x):
            raise ValueError("boom")

        broken = benchmarks.BenchmarkSpec("broken_mo", boom, "any-n", ((0.0, 1.0),),
                                          min_dim=2, n_objectives=2)
        monkeypatch.setitem(benchmarks.CATALOG, "broken_mo", broken)
        code = main(["moo", "--benchmark", "broken_mo", "--pop", "8", "--gens", "2",
                     "--runs", "2", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime failure" in err and "generation 0" in err

    def test_list_benchmarks_prints(self, capsys):
        assert main(["list-benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "rastrigin" in out

    def test_every_csv_is_a_rectangular_table(self, tmp_path, capsys):
        """Each row of each CSV the CLI writes, read by ``csv.reader``, is as
        wide as its header: the objectives of a mixed moo front, padded, and
        the list's bounds, quoted, which read back as the JSON listing's."""
        small = ["--pop", "8", "--gens", "2", "--runs", "2"]
        for command, benchmark in (("run", "sphere"), ("compare", "sphere"),
                                   ("tournament", "sphere"), ("moo", "zdt1,dltz1")):
            assert main([command, "--benchmark", benchmark, *small,
                         "--out", str(tmp_path / command)]) == 0
        capsys.readouterr()
        assert main(["list-benchmarks"]) == 0
        tables = {"list-benchmarks": list(csv.reader(capsys.readouterr().out.splitlines()))}
        for path in sorted(tmp_path.rglob("*.csv")):
            with path.open(newline="") as handle:
                tables[f"{path.parent.name}/{path.name}"] = list(csv.reader(handle))
        assert "moo/front.csv" in tables and len(tables) == 8
        for name, (header, *rows) in tables.items():
            assert rows and {len(row) for row in rows} == {len(header)}, name
        header, *rows = tables["list-benchmarks"]
        bounds = {row[0]: [json.loads(pair) for pair in row[header.index("bounds")].split(";")]
                  for row in rows}
        main(["list-benchmarks", "--format", "json"])
        assert bounds == {e["id"]: e["bounds"] for e in json.loads(capsys.readouterr().out)}

    def test_env_var_sets_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ADED_OUT", str(tmp_path / "from-env"))
        code = main(["run", "--benchmark", "sphere", "--pop", "12", "--gens", "4",
                     "--runs", "1", "--seed", "0"])
        assert code == 0
        assert (tmp_path / "from-env" / "raw_history.csv").exists()

    def test_moo_command(self, tmp_path, capsys):
        code = main(["moo", "--benchmark", "zdt1", "--pop", "16", "--gens", "6",
                     "--runs", "1", "--seed", "0", "--ls-iterations", "4",
                     "--ls-probability", "0.2", "--out", str(tmp_path)])
        assert code == 0
        assert "gd=" in capsys.readouterr().out


# A value other than the default for every option that sets a config field.
NON_DEFAULT_VALUES = {
    "pop": "24", "gens": "7", "seed": "3", "strategy": "best1exp", "local_search": "off",
    "ls_iterations": "9", "ls_probability": "0.5", "ls_step": "1e-7", "stagnation_limit": "4",
    "stagnation_tol": "0.001", "mode": "fixed", "f0": "0.7", "cr0": "0.3", "fixed_f": "0.8",
    "fixed_cr": "0.2",
}


class TestOptionTable:
    """``harness.OPTIONS`` is the one vocabulary of presets, config files and
    flags, and a value reads the same whichever of them gives it."""

    def test_every_field_is_a_config_field_and_every_preset_key_an_option(self):
        default = EngineConfig()
        for key, (_, _, path) in OPTIONS.items():
            if path is not None:
                part, _, name = path.rpartition(".")
                owner = type(getattr(default, part)) if part else EngineConfig
                assert name in {f.name for f in dataclasses.fields(owner)}, key
        for name, preset in PRESETS.items():
            assert set(preset) <= set(OPTIONS), name
        assert set(NON_DEFAULT_VALUES) == {k for k, (_, _, p) in OPTIONS.items() if p}

    @staticmethod
    def engine_config_of(argv, tmp_path, monkeypatch):
        import aded.cli

        plans = []
        monkeypatch.setattr(aded.cli, "cmd_run",
                            lambda plan: plans.append(plan) or {"benchmarks": {}})
        assert main(["run", "--benchmark", "sphere", "--out", str(tmp_path)] + argv) == 0
        return plans[0].config

    @pytest.mark.parametrize("key", NON_DEFAULT_VALUES)
    def test_flag_and_file_line_build_the_same_config(self, key, tmp_path, monkeypatch):
        value = NON_DEFAULT_VALUES[key]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        by_flag = self.engine_config_of(["--" + key.replace("_", "-"), value],
                                        tmp_path, monkeypatch)
        by_file = self.engine_config_of(["--config", str(cfg)], tmp_path, monkeypatch)
        assert by_flag == by_file != build_engine_config({})

    def test_preset_flag_with_a_file_preset_runs_the_flag_preset(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("preset = sinusoidal\n")
        config = self.engine_config_of(["--preset", "battery-2d", "--config", str(cfg)],
                                       tmp_path, monkeypatch)
        assert config == build_engine_config(PRESETS["battery-2d"])

    @pytest.mark.parametrize("key,value,error", [
        ("stagnation_limit", "1", "stagnation_limit must be >= 2, got 1"),
        ("mode", "x", "unknown schedule mode 'x'"),
        ("local_search", "offf", "local_search must be 'on' or 'off', got 'offf'"),
        ("strategy", "zz", "cannot parse strategy id 'zz'"),
        ("pop", "abc", "pop must be int, got 'abc'"),
        ("f0", "x", "f0 must be float, got 'x'"),
        ("algorithm", "foo", "algorithm must be one of ('aded', 'classic_de', 'aded_mo'), "
                             "got 'foo'"),
    ])
    def test_refused_value_same_message_by_flag_or_file(self, key, value, error, tmp_path,
                                                         capsys, monkeypatch):
        import aded.harness

        runs = []
        monkeypatch.setattr(aded.harness, "_execute_batches", lambda *args: runs.append(args))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        errors = []
        for given in (["--" + key.replace("_", "-"), value], ["--config", str(cfg)]):
            argv = ["run", "--benchmark", "sphere", "--out", str(tmp_path / "out")] + given
            assert main(argv) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"configuration error: {error}\n"
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["list-benchmarks", "run", "compare", "tournament",
                                         "moo"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        if command != "list-benchmarks":
            flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
            assert flags - {"--help", "--preset", "--config", "--weights"} == {
                "--" + key.replace("_", "-") for key in OPTIONS
                if key not in aded.cli._NOT_TAKEN.get(command, ())}

    @pytest.mark.parametrize("argv", [[], ["list-benchmarks"], ["run"], ["compare"],
                                      ["tournament"], ["moo"]])
    def test_help_names_no_neighborhood(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        assert "neighbo" not in capsys.readouterr().out.lower()


class _Stop(Exception):
    """Raised in place of a command's runs once their configs are captured."""


def captured_runs(argv, tmp_path, monkeypatch):
    """The ``_execute_run`` arguments of ``aded`` + argv, in order."""
    captured = []

    def capture(batches, jobs, *rest):
        captured.extend(run for batch in batches for run in batch)
        raise _Stop

    monkeypatch.setattr(harness, "_execute_batches", capture)
    with pytest.raises(_Stop):
        main(argv + ["--out", str(tmp_path / "out")])
    return captured


def option_argv(key, given, tmp_path):
    """``NON_DEFAULT_VALUES[key]`` as a flag or as a config file line."""
    value = NON_DEFAULT_VALUES[key]
    if given == "flag":
        return ["--" + key.replace("_", "-"), value]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {value}\n")
    return ["--config", str(cfg)]


class TestCommandPlan:
    """`compare` and `moo` run one plan; every option they take reaches each
    of their runs, whether a flag or a file gives it."""

    ARGV = {"compare": ["compare", "--benchmark", "sphere,booth", "--runs", "2"],
            "moo": ["moo", "--benchmark", "zdt1", "--runs", "2"]}
    ARMS = {"compare": 2, "moo": 1}

    @pytest.mark.parametrize("command,key", [(command, key) for command in ("compare", "moo")
                                             for key in NON_DEFAULT_VALUES
                                             if key not in aded.cli._NOT_TAKEN[command]])
    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_every_taken_option_reaches_every_run(self, command, key, given, tmp_path,
                                                  monkeypatch):
        argv = self.ARGV[command] + option_argv(key, given, tmp_path)
        runs = captured_runs(argv, tmp_path, monkeypatch)
        arms = self.ARMS[command]
        assert len(runs) == arms * len(argv[2].split(",")) * 2
        path = OPTIONS[key][2]
        expected = build_engine_config(resolve_options(overrides={key: NON_DEFAULT_VALUES[key]}))
        for i, (benchmark_id, cfg, _, weights) in enumerate(runs):
            # the benchmark's objective count picks the engine
            assert (lookup(benchmark_id).n_objectives > 1) == (command == "moo") == \
                (weights is not None)
            if i // 2 % arms:  # classic DE arm: runs i - 2 and i form one compare pair
                assert cfg == classic_config(runs[i - 2][1])
            elif key == "seed":
                assert cfg.seed == int(NON_DEFAULT_VALUES[key]) + i % 2
            else:
                assert _field(cfg, path) == _field(expected, path) != \
                    _field(EngineConfig(), path)

    @pytest.mark.parametrize("command,preset", [("moo", "moo-zdt1"), ("compare", "battery-2d")])
    def test_preset_sets_no_key_its_command_refuses(self, command, preset, tmp_path, capsys):
        assert not set(PRESETS[preset]) & set(aded.cli._NOT_TAKEN[command])
        assert main([command, "--preset", preset, "--benchmark", PRESETS[preset].get(
            "benchmark", "rastrigin"), "--runs", "2", "--pop", "12", "--gens", "3",
            "--out", str(tmp_path)]) == 0


class TestTournamentPlan:
    """`tournament` runs one plan, built like every other command's, as the
    base of each variant; it refuses only the keys the variants set."""

    @pytest.mark.parametrize("key", [k for k in NON_DEFAULT_VALUES
                                     if k not in aded.cli._NOT_TAKEN["tournament"]])
    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_every_other_option_reaches_every_variant(self, key, given, tmp_path, monkeypatch):
        value = NON_DEFAULT_VALUES[key]
        runs = captured_runs(["tournament"] + option_argv(key, given, tmp_path), tmp_path,
                             monkeypatch)
        n_runs = PRESETS["tournament-desk"]["runs"]
        assert len(runs) == len(TOURNAMENT_PAIRS) * len(harness.TOURNAMENT_BENCHMARKS) * n_runs
        path = OPTIONS[key][2]
        expected = build_engine_config(resolve_options(overrides={key: value}))
        default = build_engine_config(PRESETS["tournament-desk"])
        for i, (benchmark_id, cfg, _, weights) in enumerate(runs):
            variant, fixed_f, fixed_cr = TOURNAMENT_PAIRS[i // (n_runs * 2)]
            assert lookup(benchmark_id).n_objectives == 1 and weights is None  # run_aded
            assert cfg.strategy == StrategyId.parse(variant)
            assert cfg.schedule == ScheduleParams(mode="fixed", fixed_f=fixed_f,
                                                  fixed_cr=fixed_cr)
            if key == "seed":
                assert cfg.seed == int(value) + i % n_runs
            else:
                assert _field(cfg, path) == _field(expected, path) != _field(default, path)

    def test_no_options_give_the_default_plan(self, tmp_path, monkeypatch, capsys):
        plans = []
        monkeypatch.setattr(aded.cli, "cmd_tournament",
                            lambda plan: plans.append(plan) or {"table": []})
        assert main(["tournament", "--out", str(tmp_path)]) == 0
        assert plans == [build_plan({"benchmark": "sphere,sinusoidal",
                                     **PRESETS["tournament-desk"], "out": str(tmp_path)})]
        assert capsys.readouterr().out == f"artifacts written to {tmp_path}\n"

    def test_local_search_off_runs_and_is_reported(self, tmp_path, capsys):
        argv = ["tournament", "--benchmark", "sphere", "--pop", "12", "--gens", "3",
                "--runs", "2"]
        assert main(argv + ["--out", str(tmp_path / "on")]) == 0
        assert main(argv + ["--local-search", "off", "--out", str(tmp_path / "off")]) == 0
        on, off = (json.loads((tmp_path / d / "tournament.json").read_text())
                   for d in ("on", "off"))
        assert on["config"]["local_search"]["enabled"]
        assert not off["config"]["local_search"]["enabled"]
        assert on["config_hash"] != off["config_hash"]
        assert on["table"] != off["table"]


def _field(cfg, path):
    """The value of ``cfg`` at a dotted OPTIONS path such as ``schedule.fixed_f``."""
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


class TestDiagnosticsOnDemand:
    """Diversity and FDC are computed for `run`'s raw history and nowhere
    else."""

    @pytest.mark.parametrize("algorithm", ["aded", "classic_de"])
    def test_run_once_per_generation(self, algorithm, diagnostic_calls, tmp_path):
        report = cmd_run(build_plan(tiny_options(benchmark="sphere,booth", runs=3,
                                                 algorithm=algorithm, out=str(tmp_path))))
        generations = sum(r.generations_executed
                          for results in report["results"].values() for r in results)
        assert diagnostic_calls == {"diversity": generations, "fdc": generations}
        raw = (tmp_path / "raw_history.csv").read_text().splitlines()
        assert len(raw) - 1 == generations

    def test_compare_none(self, diagnostic_calls, tmp_path):
        cmd_compare(build_plan(tiny_options(benchmark="sphere,matyas", out=str(tmp_path))))
        assert diagnostic_calls == {"diversity": 0, "fdc": 0}

    def test_tournament_none(self, diagnostic_calls, tmp_path):
        cmd_tournament(build_plan({"benchmark": "sphere", "runs": 2, "pop": 12, "gens": 3,
                                   "out": str(tmp_path)}))
        assert diagnostic_calls == {"diversity": 0, "fdc": 0}

    def test_moo_none(self, diagnostic_calls, tmp_path):
        cmd_moo(build_plan(moo_options(out=str(tmp_path))))
        assert diagnostic_calls == {"diversity": 0, "fdc": 0}

    def test_undefined_fdc_written_as_nan(self, monkeypatch, tmp_path):
        def undefined(*args):
            raise harness.metrics.UndefinedMetricError("zero variance")

        monkeypatch.setattr(harness.metrics, "fdc", undefined)
        cmd_run(build_plan(tiny_options(out=str(tmp_path))))
        rows = [line.split(",") for line in
                (tmp_path / "raw_history.csv").read_text().splitlines()[1:]]
        assert rows and all(row[6] == "nan" for row in rows)


# Every command with options that make two seeded runs or more.
COMMANDS = {
    "run": ["run", "--benchmark", "sphere,booth", "--pop", "12", "--gens", "4", "--runs", "2"],
    "compare": ["compare", "--benchmark", "sphere,matyas", "--pop", "12", "--gens", "4",
                "--runs", "2"],
    "tournament": ["tournament", "--benchmark", "sphere", "--pop", "12", "--gens", "3",
                   "--runs", "2"],
    "moo": ["moo", "--benchmark", "zdt1,mo_demo", "--pop", "12", "--gens", "4", "--runs", "2",
            "--ls-iterations", "3", "--ls-probability", "0.2"],
}


class TestRunner:
    @pytest.mark.parametrize("command", ["compare", "tournament", "moo"])
    def test_parallel_jobs_match_serial_bytes(self, command, tmp_path, capsys):
        outputs = {}
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert main([*COMMANDS[command], "--jobs", jobs, "--out", str(out)]) == 0
            outputs[jobs] = {f.name: f.read_bytes() for f in sorted(out.glob("*"))
                             if f.suffix in (".csv", ".txt")}
        assert outputs["1"]
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_one_pool_per_command(self, command, jobs, tmp_path, monkeypatch, capsys):
        pools = []

        class CountingPool:
            """Counts the pools a command opens and runs their work here."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountingPool)
        assert main([*COMMANDS[command], "--jobs", str(jobs), "--out", str(tmp_path)]) == 0
        assert pools == ([jobs] if jobs > 1 else [])

    def test_no_more_workers_than_runs(self, tmp_path, monkeypatch, capsys):
        pools = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        assert main(["run", "--benchmark", "sphere", "--pop", "12", "--gens", "2",
                     "--runs", "1", "--jobs", "4", "--out", str(tmp_path)]) == 0
        assert pools == []


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path, drop=("wall_seconds",), sort_by=None) -> str:
    """sha256 of a JSON report with the keys in ``drop`` removed at every level,
    and each list of objects sorted by their ``sort_by`` key when it is given."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in drop}
        if isinstance(value, list):
            items = [strip(v) for v in value]
            if sort_by is not None and all(isinstance(v, dict) for v in items):
                items.sort(key=lambda v: v[sort_by])
            return items
        return value

    return _digest(json.dumps(strip(json.loads(path.read_text())), sort_keys=True).encode())


def _drop_column(path, *names, sort_rows=False) -> bytes:
    """A CSV without the columns ``names``, its rows sorted when ``sort_rows``."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    cols = {lines[0].index(name) for name in names}
    kept = [",".join(cell for i, cell in enumerate(row) if i not in cols) for row in lines]
    if sort_rows:
        kept[1:] = sorted(kept[1:])
    return "\n".join(kept).encode()


def _columns(path, *names) -> list:
    """The cells of a CSV's columns ``names``, row by row."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    cols = [lines[0].index(name) for name in names]
    return [[row[i] for i in cols] for row in lines[1:]]


def _drop_text_column(path, name, width=12) -> tuple:
    """A fixed-width table without its column ``name``, right-aligned in
    ``width`` characters, and the cells of that column under the header
    and its rule."""
    lines = path.read_text().splitlines()
    end = lines[0].index(name) + len(name)
    start = end - width
    return ("\n".join(line[:start] + line[end:] for line in lines).encode(),
            [line[start:end].strip() for line in lines[2:]])


@pytest.mark.parametrize("jobs", [1, 2])
class TestPinnedOutputs:
    """Artifacts of each command, pinned byte for byte; JSON reports without
    their wall-clock fields. What derives from evaluation counts (the Q
    measure, the ranks and row order that follow from it, mean evaluations)
    is pinned apart from the values."""

    def test_tournament(self, jobs, tmp_path):
        # sphere and rastrigin at this size give 1, 2 and 3 successes of 3
        cmd_tournament(build_plan({"benchmark": "sphere,rastrigin", "runs": 3, "pop": 14,
                                   "gens": 8, "seed": 2, "out": str(tmp_path), "jobs": jobs}))
        table, detail = tmp_path / "tournament.csv", tmp_path / "tournament_detail.csv"
        by_q = ("q_measure", "q_rank", "average_rank")
        assert _digest(_drop_column(table, *by_q, sort_rows=True)) == \
            "c64e857c9ed2ca168f57cf40047fa73cdb13396c79f392f77ad877851d798df6"
        assert _digest(repr(_columns(table, "variant", *by_q)).encode()) == \
            "6a69a03d67e1095b288397dba60a0c55fb7c8bb170e07aaba8aa21aa3aa9fce3"
        assert _digest(_drop_column(detail, "q_measure")) == \
            "821eb246308b7844af88743d3cb121fdcd5c9f88cef36b2145e30087081264c1"
        assert _digest(repr(_columns(detail, "q_measure")).encode()) == \
            "38dfadf331dc67f0b9df00108337dcd9ba147c86c0e0443cc622ae3fa8e9549e"
        report = tmp_path / "tournament.json"
        assert _report_digest(report, drop=("wall_seconds", "config", "config_hash", "q",
                                            "q_rank", "average_rank"), sort_by="variant") == \
            "92ff42fa02beb70494312390d844299cd6f566ef99e22b305cf4dfa0e28cb4de"
        payload = json.loads(report.read_text())
        by_q = [[e["variant"], e["q"], e["q_rank"], e["average_rank"]] for e in payload["table"]]
        assert _digest(repr(by_q + [e["q"] for e in payload["detail"]]).encode()) == \
            "552ec146bc78fbd7d281162ec8843bd53837bb14f1e475a52117bfebab8ec76f"
        assert payload["config_hash"] == "830c492607b40691"

    def test_run_report(self, jobs, tmp_path):
        cmd_run(build_plan({"benchmark": "rastrigin,himmelblau", "pop": 12, "gens": 8,
                            "runs": 3, "seed": 0, "jobs": jobs, "out": str(tmp_path),
                            "ls_probability": 0.3, "ls_iterations": 4}))
        report = tmp_path / "report.json"
        assert _report_digest(report, drop=("wall_seconds", "mean_evaluations")) == \
            "8cd638137123f64742956c2b97a28b9e6bebe9578c42110ac3c540c9353f1310"
        benchmarks = json.loads(report.read_text())["benchmarks"]
        assert {b: stats["mean_evaluations"] for b, stats in benchmarks.items()} == \
            {"himmelblau": 735.6666666666666, "rastrigin": 798.6666666666666}

    def test_compare(self, jobs, tmp_path):
        options = {"benchmark": "sphere,rastrigin", "pop": 12, "gens": 8, "runs": 3,
                   "seed": 1, "jobs": jobs, "out": str(tmp_path), "ls_probability": 0.3,
                   "ls_iterations": 4}
        cmd_compare(build_plan(options))
        assert _digest((tmp_path / "comparison.csv").read_bytes()) == \
            "b2098cd33e2d2378d69881dfbd91782d36c0862d4dd93021c0f17baeb29302e9"
        text, evals = _drop_text_column(tmp_path / "comparison.txt", "evals")
        assert _digest(text) == "5722ca1aa667c64d0a5c7471bb1b09b3869af68df8a7d3878343cd662397af85"
        assert evals == ["348.0", "108.0", "814.7", "108.0"]
        report = tmp_path / "comparison.json"
        assert _report_digest(report, drop=("wall_seconds", "evals_a", "evals_b")) == \
            "0aaad48194e416cf89a349bab286c4d9bc83693f603a9ee2983b6d58e642e494"
        rows = json.loads(report.read_text())["rows"]
        assert [[row["evals_a"], row["evals_b"]] for row in rows] == \
            [[348.0, 108.0], [814.6666666666666, 108.0]]

    def test_moo(self, jobs, tmp_path):
        cmd_moo(build_plan(moo_options(benchmark="zdt1,dltz1", runs=2, jobs=jobs,
                                       out=str(tmp_path))))
        front = (tmp_path / "front.csv").read_text()
        assert _digest(front.encode()) == \
            "b65045ce659cfcd80336df53a28c6b174d4d26daaf626ac13ca83d88feea1ccb"
        # zdt1's rows are padded to dltz1's three objectives; without the
        # padding, the bytes are those pinned before rows were padded
        assert _digest("\n".join(line.rstrip(",") for line in front.split("\n")).encode()) == \
            "a6e3efda0821b724c653982e9916d032ccf7b67b4766a262b661521ae288d477"
        # dltz1's gd and spread re-recorded when its reference front became a
        # triangular lattice of distinct points
        assert _digest(_drop_column(tmp_path / "moo_metrics.csv", "n_evaluations")) == \
            "b65b0c5eced3795737b14bbb6fa452d9dd93f8fa6d3eccaf9ab529005b195fed"
        assert _report_digest(tmp_path / "moo_report.json",
                              drop=("wall_seconds", "n_evaluations")) == \
            "5c693bc1acc3092052f877f3e028d34e34ec91a8d2be7e6fedd4d6623f71cf48"


# Modules an import must leave unloaded: `import aded` is what a fresh
# interpreter pays before its first run, and the process pool is loaded only
# when a command runs with more than one worker.
UNLOADED = {
    "aded": ("scipy", "aded.harness", "aded.cli", "multiprocessing", "concurrent.futures",
             "hashlib", "json", "csv", "subprocess", "numpy.random"),
    "aded.harness": ("multiprocessing", "concurrent.futures.process"),
}


@pytest.mark.parametrize("module", UNLOADED)
def test_import_leaves_unused_modules_unloaded(module):
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, {module}; print(*[m for m in {UNLOADED[module]!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == []
