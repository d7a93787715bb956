import dataclasses
import hashlib
import json
import multiprocessing
from pathlib import Path

import numpy as np
import pytest

import aded.cli
from aded import ConfigError, EngineConfig, harness
from aded.benchmarks import BATTERY_IDS, UnknownBenchmarkError
from aded.cli import main
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
from aded.variation import CANONICAL_VARIANTS, LocalSearchBudget, ScheduleParams, StrategyId


def tiny_options(**kwargs):
    options = {"benchmark": "sphere", "pop": 12, "gens": 6, "runs": 2, "seed": 0,
               "ls_iterations": 8}
    options.update(kwargs)
    return options


class TestOptionResolution:
    def test_preset_known_values(self):
        # frozen snapshot of the experiment presets
        assert PRESETS["sinusoidal-dynamic"] == {
            "benchmark": "sinusoidal", "algorithm": "aded",
            "pop": 50, "gens": 100, "runs": 10, "neighborhood": "dynamic",
        }
        assert PRESETS["battery-2d"]["pop"] == 300
        assert PRESETS["battery-2d"]["gens"] == 200
        assert PRESETS["battery-2d"]["runs"] == 30
        assert PRESETS["classic-convex"]["algorithm"] == "classic_de"
        assert PRESETS["moo-zdt1"]["pop"] == 100
        assert PRESETS["moo-zdt1"]["gens"] == 100

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            resolve_options(preset="nope")

    def test_precedence_flags_over_file_over_preset(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = sinusoidal-dynamic\npop = 20\n# comment\ngens=33\n")
        options = resolve_options(config_file=cfg, overrides={"pop": 11})
        assert options["pop"] == 11          # flag wins
        assert options["gens"] == 33         # file wins over preset
        assert options["benchmark"] == "sinusoidal"  # preset value survives

    def test_preset_flag_wins_over_file_preset(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("preset = sinusoidal-dynamic\npop = 20\n")
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
        # recorded when every option default was spelled out in build_engine_config
        recorded = {
            None: "dfcd716bce3c1569",
            "sinusoidal-dynamic": "3a0a30154814b56f",
            "sinusoidal-global": "17139f24cf8d5b11",
            "battery-2d": "ac4177e839f5be09",
            "classic-convex": "a2e6a1f8c2185f10",
            "tournament-desk": "a758484386bb5686",
            "moo-zdt1": "36b94d94feb84e62",
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
        assert csv_rows["mo_demo"] == "mo_demo,multi(2),any-n,2,[-10.0,10.0];[-10.0,10.0],"


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

    # sha256 of (raw_history.csv, run_summary.csv), recorded when the engine
    # still computed diversity and FDC in every generation of every run;
    # "all-neighbors" re-recorded when himmelblau's powers became NumPy array
    # powers, which moved its values (and its rows only) in the last bit
    PINNED_ARTIFACTS = {
        "refine-0.3": (
            {"ls_probability": 0.3, "ls_iterations": 4},
            "03be2f5bd57b4fa4a00b214693a45c20632c26d7253eba2cf5de5d750ae338f7",
            "d8d94a404ca2984070e04d6fe176602b36f80e47bbf56cecfdd5ca522218ed5c",
        ),
        "all-neighbors": (
            {"neighborhood": "all", "local_search": "off"},
            "a98182e5d84dee44c2f8a9888a0ae7e0a740f6d96b1060521b3fc8ed2c9db497",
            "54f7154d11d7dacb7488d7ae25d4632882216b8de80dd6b6533984c907cb25f4",
        ),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(PINNED_ARTIFACTS))
    def test_artifact_bytes_pinned(self, name, jobs, tmp_path):
        extra, raw_sha, summary_sha = self.PINNED_ARTIFACTS[name]
        cmd_run(build_plan({"benchmark": "rastrigin,himmelblau", "pop": 12, "gens": 8,
                            "runs": 3, "seed": 0, "jobs": jobs, "out": str(tmp_path),
                            **extra}))
        digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                  for f in ("raw_history.csv", "run_summary.csv")}
        assert digest == {"raw_history.csv": raw_sha, "run_summary.csv": summary_sha}

    def test_multiple_benchmarks(self, tmp_path):
        plan = build_plan(tiny_options(benchmark="sphere,booth", out=str(tmp_path)))
        report = cmd_run(plan)
        assert set(report["benchmarks"]) == {"sphere", "booth"}

    def test_multi_objective_plan_rejected(self):
        plan = build_plan(tiny_options(benchmark="zdt1", algorithm="aded_mo"))
        with pytest.raises(ConfigError):
            cmd_run(plan)


class TestCmdCompare:
    def test_row_per_benchmark_and_direction(self, tmp_path):
        options = tiny_options(benchmark="sphere,matyas", out=str(tmp_path), runs=3)
        plan_a = build_plan({**options, "algorithm": "aded"})
        plan_b = build_plan({**options, "algorithm": "classic_de"})
        report = cmd_compare(plan_a, plan_b)
        assert len(report["rows"]) == 2
        assert (tmp_path / "comparison.csv").exists()
        assert (tmp_path / "comparison.txt").exists()

    def test_self_comparison_gives_zero_t(self, tmp_path):
        options = tiny_options(runs=3, out=str(tmp_path))
        plan_a = build_plan({**options, "algorithm": "classic_de"})
        plan_b = build_plan({**options, "algorithm": "classic_de"})
        report = cmd_compare(plan_a, plan_b)
        assert report["rows"][0]["t"] == 0.0

    def test_mismatched_benchmark_lists_rejected(self):
        plan_a = build_plan(tiny_options(benchmark="sphere"))
        plan_b = build_plan(tiny_options(benchmark="booth"))
        with pytest.raises(ConfigError):
            cmd_compare(plan_a, plan_b)

    def test_reports_mean_evaluations_per_arm(self, tmp_path):
        options = tiny_options(benchmark="sphere,matyas", out=str(tmp_path), runs=3)
        report = cmd_compare(build_plan({**options, "algorithm": "aded"}),
                             build_plan({**options, "algorithm": "classic_de"}))
        payload = json.loads((tmp_path / "comparison.json").read_text())
        text = (tmp_path / "comparison.txt").read_text().splitlines()
        for i, row in enumerate(payload["rows"]):
            results_a, results_b = report["pairs"][row["benchmark"]]
            assert row["evals_a"] == np.mean([r.n_evaluations for r in results_a])
            assert row["evals_b"] == np.mean([r.n_evaluations for r in results_b])
            assert f"{row['evals_a']:.1f}" in text[2 + 2 * i].split()
            assert f"{row['evals_b']:.1f}" in text[3 + 2 * i].split()
        # recorded before the evaluations were reported; the CSV keeps its columns
        assert hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest() == \
            "79b88ebcbde8f20760355295f7d74da2c95b3d5163a492879b79b8751d35ad42"


class TestCmdTournament:
    def test_micro_tournament_shape_and_ranks(self, tmp_path):
        report = cmd_tournament(n_runs=2, pop=16, gens=8, base_seed=0, out_dir=tmp_path)
        assert len(report["table"]) == 14
        emitted_names = {row["variant"] for row in report["table"]}
        assert emitted_names == set(CANONICAL_VARIANTS)
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
        assert {v for v, _, _ in TOURNAMENT_PAIRS} == set(CANONICAL_VARIANTS)


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

    def test_gd_of_reference_against_itself_is_zero(self):
        from aded import FrontPair, analytic_front, generational_distance

        ref = analytic_front("zdt2", 200)
        assert generational_distance(FrontPair(obtained=ref, reference=ref)) == 0.0

    def test_demo_benchmark_runs_without_reference(self, tmp_path):
        plan = build_plan(moo_options(benchmark="mo_demo", out=str(tmp_path)))
        report = cmd_moo(plan)
        entry = report["benchmarks"]["mo_demo"][0]
        assert "gd" not in entry
        assert entry["front_size"] >= 1


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
        (["moo", "--benchmark", "zdt1", "--neighborhood", "all"],
         "moo does not take neighborhood"),
        (["moo", "--benchmark", "zdt1", "--neighborhood-size", "3"],
         "moo does not take neighborhood_size"),
    ], ids=["moo-nan-weight", "fixed-f-negative", "fixed-f-nan", "fixed-cr-above-one",
            "stagnation-tol-nan", "run-zdt1", "compare-zdt1", "tournament-zdt1",
            "compare-one-run", "repeated-benchmark", "run-no-benchmark",
            "compare-no-benchmark", "tournament-no-benchmark", "moo-no-benchmark",
            "moo-strategy", "moo-neighborhood", "moo-neighborhood-size"])
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

    def test_out_of_range_neighborhood_size_exit_two(self, tmp_path, capsys):
        code = main(["run", "--benchmark", "sphere", "--pop", "8", "--gens", "2",
                     "--runs", "1", "--neighborhood-size", "20", "--out", str(tmp_path)])
        assert code == 2
        assert "neighborhood_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [(command, key)
                                             for command, keys in aded.cli._NOT_TAKEN.items()
                                             for key in keys])
    def test_refused_key_exit_two_by_flag_or_file(self, command, key, tmp_path, capsys,
                                                  monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "_execute_batches", lambda *args: runs.append(args))
        value = NON_DEFAULT_VALUES.get(key, "aded")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        givens = [["--config", str(cfg)]]
        if key != "algorithm":  # a flag of `run` only
            givens.append(["--" + key.replace("_", "-"), value])
        for given in givens:
            assert main([command, "--out", str(tmp_path / "out")] + given) == 2
            assert capsys.readouterr().err == \
                f"configuration error: {command} does not take {key}\n"
        assert runs == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,preset,key", [
        ("tournament", "sinusoidal-dynamic", "algorithm"),
        ("moo", "sinusoidal-global", "neighborhood"),
    ])
    def test_refused_key_from_a_preset_exit_two(self, command, preset, key, tmp_path, capsys):
        assert main([command, "--preset", preset, "--out", str(tmp_path / "out")]) == 2
        assert f"{command} does not take {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
    "pop": "24", "gens": "7", "seed": "3", "strategy": "best1exp", "neighborhood": "all",
    "neighborhood_size": "5", "local_search": "off", "ls_iterations": "9",
    "ls_probability": "0.5", "ls_step": "1e-7", "stagnation_limit": "4",
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
        cfg.write_text("preset = sinusoidal-dynamic\n")
        config = self.engine_config_of(["--preset", "battery-2d", "--config", str(cfg)],
                                       tmp_path, monkeypatch)
        assert config == build_engine_config(PRESETS["battery-2d"])

    @pytest.mark.parametrize("key,value,error", [
        ("neighborhood", "foo", "neighborhood must be 'dynamic' or 'all', got 'foo'"),
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
            usage = capsys.readouterr().out
            assert all("--" + key.replace("_", "-") in usage
                       for key in OPTIONS if key != "algorithm")


class _Stop(Exception):
    """Raised in place of a command's runs once their configs are captured."""


class TestTournamentPlan:
    """`tournament` runs one plan, built like every other command's, as the
    base of each variant; it refuses only the keys the variants set."""

    @staticmethod
    def captured_runs(argv, tmp_path, monkeypatch):
        """The ``_execute_run`` arguments of ``aded tournament`` + argv, in order."""
        import aded.harness

        captured = []

        def capture(batches, jobs, *rest):
            captured.extend(run for batch in batches for run in batch)
            raise _Stop

        monkeypatch.setattr(aded.harness, "_execute_batches", capture)
        with pytest.raises(_Stop):
            main(["tournament", "--out", str(tmp_path / "out")] + argv)
        return captured

    @pytest.mark.parametrize("key", [k for k in NON_DEFAULT_VALUES
                                     if k not in aded.cli._NOT_TAKEN["tournament"]])
    @pytest.mark.parametrize("given", ["flag", "file"])
    def test_every_other_option_reaches_every_variant(self, key, given, tmp_path, monkeypatch):
        value = NON_DEFAULT_VALUES[key]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = (["--" + key.replace("_", "-"), value] if given == "flag"
                else ["--config", str(cfg)])
        runs = self.captured_runs(argv, tmp_path, monkeypatch)
        n_runs = PRESETS["tournament-desk"]["runs"]
        assert len(runs) == len(TOURNAMENT_PAIRS) * len(harness.TOURNAMENT_BENCHMARKS) * n_runs
        path = OPTIONS[key][2]
        expected = build_engine_config(resolve_options(overrides={key: value}))
        default = build_engine_config(PRESETS["tournament-desk"])
        for i, (_, algorithm, cfg, _, _) in enumerate(runs):
            variant, fixed_f, fixed_cr = TOURNAMENT_PAIRS[i // (n_runs * 2)]
            assert algorithm == "aded"
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

    def test_plan_and_keyword_forms_agree(self, tmp_path):
        cmd_tournament(build_plan({"benchmark": "sphere", "runs": 2, "pop": 12, "gens": 3,
                                   "seed": 1, "out": str(tmp_path / "plan")}))
        cmd_tournament(benchmarks=("sphere",), n_runs=2, pop=12, gens=3, base_seed=1,
                       out_dir=tmp_path / "keywords")
        for name in ("tournament.csv", "tournament_detail.csv", "tournament.json"):
            assert (tmp_path / "plan" / name).read_bytes() == \
                (tmp_path / "keywords" / name).read_bytes(), name

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
        options = tiny_options(benchmark="sphere,matyas", out=str(tmp_path))
        cmd_compare(build_plan({**options, "algorithm": "aded"}),
                    build_plan({**options, "algorithm": "classic_de"}))
        assert diagnostic_calls == {"diversity": 0, "fdc": 0}

    def test_tournament_none(self, diagnostic_calls, tmp_path):
        cmd_tournament(benchmarks=("sphere",), n_runs=2, pop=12, gens=3, out_dir=tmp_path)
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

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        assert main([*COMMANDS[command], "--jobs", str(jobs), "--out", str(tmp_path)]) == 0
        assert pools == ([jobs] if jobs > 1 else [])

    def test_no_more_workers_than_runs(self, tmp_path, monkeypatch, capsys):
        pools = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers))
        assert main(["run", "--benchmark", "sphere", "--pop", "12", "--gens", "2",
                     "--runs", "1", "--jobs", "4", "--out", str(tmp_path)]) == 0
        assert pools == []


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_digest(path, drop=("wall_seconds",)) -> str:
    """sha256 of a JSON report with the keys in ``drop`` removed at every level."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k not in drop}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return _digest(json.dumps(strip(json.loads(path.read_text())), sort_keys=True).encode())


def _drop_column(path, name) -> bytes:
    lines = [line.split(",") for line in path.read_text().splitlines()]
    col = lines[0].index(name)
    return "\n".join(",".join(row[:col] + row[col + 1:]) for row in lines).encode()


@pytest.mark.parametrize("jobs", [1, 2])
class TestPinnedOutputs:
    """Artifacts of each command, pinned byte for byte; JSON reports without
    their wall-clock fields. Recorded while the batch measures took a
    ``RunBatch`` and the harness computed AOV and CS a second time for
    ``report.json``."""

    def test_tournament(self, jobs, tmp_path):
        # sphere and rastrigin at this size give 1, 2 and 3 successes of 3
        cmd_tournament(benchmarks=("sphere", "rastrigin"), n_runs=3, pop=14, gens=8,
                       base_seed=2, out_dir=tmp_path, jobs=jobs)
        assert _digest((tmp_path / "tournament.csv").read_bytes()) == \
            "0822d68726d3dc75cf3bd63cf1ac34d602fd452ae1957311e1e0059bc5cc96b3"
        assert _digest((tmp_path / "tournament_detail.csv").read_bytes()) == \
            "c06034166f7a1d5d8ecef2bfe96cc61b68661dcb277bb3aae6e2846628f63c62"
        # recorded before the report gave its base config
        report = tmp_path / "tournament.json"
        assert _report_digest(report, drop=("wall_seconds", "config", "config_hash")) == \
            "b2ae5af0fe2cac1387badf588b11e606a1a3750a3066b23fb09f94bb0e81f115"
        assert json.loads(report.read_text())["config_hash"] == "830c492607b40691"

    def test_run_report(self, jobs, tmp_path):
        cmd_run(build_plan({"benchmark": "rastrigin,himmelblau", "pop": 12, "gens": 8,
                            "runs": 3, "seed": 0, "jobs": jobs, "out": str(tmp_path),
                            "ls_probability": 0.3, "ls_iterations": 4}))
        assert _report_digest(tmp_path / "report.json") == \
            "3c046a9832cd5088cfea9c12a9d94c8d3d5e47d29ee4c8516adb5f3cf85a8af4"

    def test_compare(self, jobs, tmp_path):
        options = {"benchmark": "sphere,rastrigin", "pop": 12, "gens": 8, "runs": 3,
                   "seed": 1, "jobs": jobs, "out": str(tmp_path), "ls_probability": 0.3,
                   "ls_iterations": 4}
        cmd_compare(build_plan({**options, "algorithm": "aded"}),
                    build_plan({**options, "algorithm": "classic_de"}))
        assert _digest((tmp_path / "comparison.csv").read_bytes()) == \
            "8f25dc6f793e0a4f030edc163d133746a73891b19dfe6868050890c427107c7d"
        assert _digest((tmp_path / "comparison.txt").read_bytes()) == \
            "1545831de11692be12b2de0eb0f5c3c52b88ac18645703c968756744ab9b6ab6"
        assert _report_digest(tmp_path / "comparison.json") == \
            "be588e782b0941844bd90e074bbae89bd0ebde296b92c5ca3359e2f8ea60141f"

    def test_moo(self, jobs, tmp_path):
        cmd_moo(build_plan(moo_options(benchmark="zdt1,dltz1", runs=2, jobs=jobs,
                                       out=str(tmp_path))))
        assert _digest((tmp_path / "front.csv").read_bytes()) == \
            "a6e3efda0821b724c653982e9916d032ccf7b67b4766a262b661521ae288d477"
        assert _digest(_drop_column(tmp_path / "moo_metrics.csv", "n_evaluations")) == \
            "73e26a3234217236e17957510a3a90dbf87734856d0dc39d7a6356c6a1f5e088"
        assert _report_digest(tmp_path / "moo_report.json",
                              drop=("wall_seconds", "n_evaluations")) == \
            "91f4972e25a5cb8a778d5bc47b1061745ccac852c5169222587bdb88b38e1449"
