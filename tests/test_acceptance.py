"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Stochastic checks run at desk scale with pinned seeds; tolerances and
runtime budgets are asserted as stated, not calibrated post hoc.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from aded import (
    EngineConfig,
    LocalSearchBudget,
    RngStream,
    ScheduleParams,
    SearchSpace,
    adaptive_crossover_rate,
    adaptive_mutation_rate,
    analytic_front,
    crossover_binomial,
    crossover_exponential,
    diversity,
    fdc,
    generational_distance,
    local_refine,
    nondominated_filter,
    pareto_dominates,
    run_aded,
    run_aded_mo,
    run_classic_de,
    spread,
)
from aded.benchmarks import SINGLE_OBJECTIVE, lookup
from aded.cli import main
from aded.harness import build_plan, cmd_tournament
from aded.stats import rank_variants


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_benchmark_fidelity():
    t0 = time.monotonic()
    for benchmark_id, spec in SINGLE_OBJECTIVE.items():
        for argmin in spec.argmin_examples:
            value = spec.evaluate(argmin)
            assert abs(value - spec.known_optimum) <= 1e-4, (
                f"{benchmark_id}: argmin {argmin} gave {value}, "
                f"expected {spec.known_optimum}"
            )
        space = spec.space()
        axes = [np.linspace(lo, hi, 101) for lo, hi in space.as_pairs()]
        if space.dim == 1:
            observed = min(spec.evaluate([v]) for v in axes[0])
        else:
            observed = min(
                spec.evaluate([a, b]) for a in axes[0] for b in axes[1]
            )
        assert observed >= spec.known_optimum - 1e-6, benchmark_id
    elapsed = time.monotonic() - t0
    report(1, elapsed < 10.0,
           f"24 optimum/argmin pairs + 101x101 grid scans in {elapsed:.1f}s (< 10s)")


def test_criterion_02_sinusoidal_headline():
    t0 = time.monotonic()
    spec = lookup("sinusoidal")
    hits = 0
    for seed in range(10):
        cfg = EngineConfig(population_size=50, max_generations=100, seed=seed)
        result = run_aded(spec.evaluate, spec.space(), cfg)
        hits += abs(result.best_f - (-2.0)) <= 1e-3
    elapsed = time.monotonic() - t0
    report(2, hits >= 9 and elapsed < 60.0,
           f"{hits}/10 runs within 1e-3 of -2.0 in {elapsed:.1f}s (need >= 9, < 60s)")


def test_criterion_03_multimodal_superiority_direction():
    t0 = time.monotonic()
    lines = []
    ok = True
    for benchmark_id in ("rastrigin", "ackley"):
        spec = lookup(benchmark_id)
        adaptive, classic = [], []
        for seed in range(10):
            cfg = EngineConfig(population_size=300, max_generations=200, seed=seed)
            adaptive.append(run_aded(spec.evaluate, spec.space(), cfg).best_f)
            classic.append(run_classic_de(spec.evaluate, spec.space(), cfg).best_f)
        mean_a, mean_c = float(np.mean(adaptive)), float(np.mean(classic))
        ok = ok and mean_a <= 1e-4 and mean_c > mean_a
        lines.append(f"{benchmark_id}: aded {mean_a:.2e} vs de {mean_c:.2e}")
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 300.0
    report(3, ok, "; ".join(lines) + f"; {elapsed:.0f}s (< 300s)")


def test_criterion_04_eggholder_best_of_ten():
    t0 = time.monotonic()
    spec = lookup("eggholder")
    best = min(
        run_aded(spec.evaluate, spec.space(),
                 EngineConfig(population_size=300, max_generations=200, seed=seed)).best_f
        for seed in range(10)
    )
    elapsed = time.monotonic() - t0
    ok = abs(best - (-959.6407)) <= 0.5 and elapsed < 120.0
    report(4, ok, f"best-of-10 = {best:.4f} (target -959.6407 +- 0.5) in {elapsed:.0f}s (< 120s)")


def test_criterion_05_classic_de_convex_sanity():
    t0 = time.monotonic()
    spec = lookup("sphere")
    worst = max(
        run_classic_de(
            spec.evaluate, spec.space(),
            EngineConfig(population_size=300, max_generations=200, seed=seed,
                         stagnation_tol=0.0, stagnation_limit=200),
        ).best_f
        for seed in range(2)
    )
    elapsed = time.monotonic() - t0
    report(5, worst < 1e-12 and elapsed < 30.0,
           f"classic DE sphere best_f = {worst:.2e} (< 1e-12) in {elapsed:.1f}s (< 30s)")


def _corrcoef_oracle(f, d):
    return float(np.corrcoef(f, d)[0, 1])


def test_criterion_06_metric_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    checks = 0

    for _ in range(1000):
        n = int(rng.integers(3, 200))
        x = rng.normal(size=(n, 3))
        f = rng.normal(size=n)
        ref = rng.normal(size=3)
        d = np.linalg.norm(x - ref, axis=1)
        assert abs(fdc(x, f, ref) - _corrcoef_oracle(f, d)) <= 1e-12
        checks += 1

    space = SearchSpace.cube(-4.0, 4.0, 3)
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        x = rng.uniform(-4, 4, size=(n, 3))
        expected = float(pdist(x).mean()) / space.diagonal()
        assert abs(diversity(x, space) - expected) <= 1e-12
        checks += 1

    for _ in range(1000):
        n_q = int(rng.integers(1, 200))
        n_ref = int(rng.integers(1, 200))
        obtained = rng.uniform(0, 1, size=(n_q, 2))
        reference = rng.uniform(0, 1, size=(n_ref, 2))
        expected = float(np.sqrt((cdist(reference, obtained).min(axis=1) ** 2).mean()))
        got = generational_distance(obtained, reference)
        assert abs(got - expected) <= 1e-12
        checks += 1

    for _ in range(1000):
        n_q = int(rng.integers(2, 200))
        obtained = rng.uniform(0, 1, size=(n_q, 2))
        reference = rng.uniform(0, 1, size=(int(rng.integers(2, 50)), 2))
        q = obtained[np.lexsort((obtained[:, 1], obtained[:, 0]))]
        ref = reference[np.lexsort((reference[:, 1], reference[:, 0]))]
        gaps = np.linalg.norm(np.diff(q, axis=0), axis=1)
        d_bar = gaps.mean()
        d_f = np.linalg.norm(ref[0] - q[0])
        d_l = np.linalg.norm(ref[-1] - q[-1])
        expected = (d_f + d_l + np.abs(gaps - d_bar).sum()) / (
            d_f + d_l + (len(q) - 1) * d_bar)
        assert abs(spread(obtained, reference) - expected) <= 1e-12
        checks += 1

    for _ in range(1000):
        n = int(rng.integers(1, 200))
        pts = rng.uniform(0, 1, size=(n, 2))
        le = np.all(pts[None, :, :] <= pts[:, None, :], axis=2)
        lt = np.any(pts[None, :, :] < pts[:, None, :], axis=2)
        dominated = (le & lt).any(axis=1)
        expected = np.flatnonzero(~dominated).tolist()
        assert nondominated_filter(pts).tolist() == expected
        checks += 1

    elapsed = time.monotonic() - t0
    report(6, elapsed < 30.0,
           f"{checks} randomized oracle checks within 1e-12 in {elapsed:.1f}s (< 30s)")


def test_criterion_07_crossover_distribution():
    d, cr, trials = 10, 0.3, 100000
    target = np.zeros(d)
    donor = np.ones(d)
    rng_call = RngStream(77)
    rng_replay = RngStream(77)
    takes = np.zeros(d)
    exposures = np.zeros(d)
    for _ in range(trials):
        j_rand = int(rng_replay.integers(d))
        rng_replay.random(d)
        trial = crossover_binomial(target, donor, cr, rng_call)
        assert trial.sum() >= 1.0
        mask = np.ones(d, dtype=bool)
        mask[j_rand] = False
        takes[mask] += trial[mask]
        exposures[mask] += 1
    freq = takes / exposures
    ok = bool(np.all(np.abs(freq - cr) <= 0.01))
    for seed in range(200):
        assert crossover_exponential(target, donor, 0.0, RngStream(seed)).sum() >= 1.0
        assert crossover_binomial(target, donor, 0.0, RngStream(seed)).sum() >= 1.0
    report(7, ok,
           f"donor-take freq (j != j_rand) in [{freq.min():.4f}, {freq.max():.4f}] "
           f"target 0.30 +- 0.01; both crossovers always keep >= 1 donor component")


def test_criterion_08_schedule_exactness():
    rng = np.random.default_rng(5)
    checks = 0
    for _ in range(200):
        max_generations = int(rng.integers(1, 400))
        f0 = float(rng.uniform(1e-3, 2.0))
        cr0 = float(rng.uniform(0.0, 1.0))
        for generation in range(max_generations + 1):
            assert adaptive_mutation_rate(generation, max_generations, f0) == \
                f0 * (1.0 - generation / max_generations)
            assert adaptive_crossover_rate(generation, max_generations, cr0) == \
                cr0 * (generation / max_generations)
            checks += 1
    report(8, True, f"{checks} schedule evaluations equal the closed forms exactly")


class _ConstantAfter:
    def __init__(self, flips):
        self.flips = flips
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        if self.calls > self.flips:
            return 7.0
        return 10.0 + float(np.sum(np.asarray(x) ** 2))


def test_criterion_09_stagnation_halts_both_engines():
    space = SearchSpace.cube(-1.0, 1.0, 2)
    pop, g, limit = 10, 3, 6
    details = []
    ok = True
    for name, runner in (("aded", run_aded), ("classic_de", run_classic_de)):
        objective = _ConstantAfter(pop * (1 + g))
        cfg = EngineConfig(
            population_size=pop, max_generations=500, stagnation_limit=limit,
            stagnation_tol=0.0, seed=3,
            local_search=LocalSearchBudget(enabled=False),
        )
        result = runner(objective, space, cfg)
        halted = (result.terminated_by == "stagnation"
                  and result.generations_executed <= g + limit)
        ok = ok and halted
        details.append(f"{name} stopped at generation {result.generations_executed} "
                       f"(bound {g + limit})")
    report(9, ok, "; ".join(details))


def test_criterion_10_zdt1_generational_distance():
    t0 = time.monotonic()
    spec = lookup("zdt1")
    reference = analytic_front("zdt1", 1000)
    worst_gd = 0.0
    for seed in range(2):
        cfg = EngineConfig(
            population_size=100, max_generations=100, seed=seed,
            schedule=ScheduleParams(initial_f=2.0, initial_cr=0.9),
            local_search=LocalSearchBudget(enabled=True, max_iterations=5, probability=0.1),
            stagnation_limit=40,
        )
        result = run_aded_mo(spec.evaluate, spec.space(), cfg, [0.5, 0.5])
        front = np.array([objs for _, objs in result.front])
        keep = nondominated_filter(front)
        assert keep.size == front.shape[0], "emitted front must be mutually non-dominated"
        worst_gd = max(worst_gd, generational_distance(front, reference))
    elapsed = time.monotonic() - t0
    report(10, worst_gd <= 0.25 and elapsed < 180.0,
           f"worst GD over 2 seeds = {worst_gd:.4f} (<= 0.25) in {elapsed:.0f}s (< 180s)")


def test_criterion_11_tournament_pipeline(tmp_path):
    t0 = time.monotonic()
    result = cmd_tournament(build_plan({"benchmark": "sphere,sinusoidal", "runs": 5, "pop": 20,
                                        "gens": 15, "out": str(tmp_path)}))
    table = result["table"]
    ok = len(table) == 14
    scores = [(row["variant"], row["aov"], row["cs"], row["q"]) for row in table]
    recomputed = {s.variant: s for s in rank_variants(scores)}
    for row in table:
        again = recomputed[row["variant"]]
        ok = ok and (row["aov_rank"], row["cs_rank"], row["q_rank"]) == \
            (again.aov_rank, again.cs_rank, again.q_rank)
        ok = ok and abs(row["average_rank"] - again.average_rank) < 1e-12
    # rank-arithmetic spot check: column ranks (3, 11, 2) average to 5.333333
    synthetic = [(f"v{i}", float(i), float(i), float(i)) for i in range(13)]
    synthetic.append(("probe", 1.5, 9.5, 0.5))
    probe = {s.variant: s for s in rank_variants(synthetic)}["probe"]
    ok = ok and (probe.aov_rank, probe.cs_rank, probe.q_rank) == (3.0, 11.0, 2.0)
    ok = ok and f"{probe.average_rank:.6f}" == "5.333333"
    elapsed = time.monotonic() - t0
    report(11, ok,
           f"14-variant desk tournament emitted and rank arithmetic verified "
           f"in {elapsed:.0f}s; (3, 11, 2) -> 5.333333")


def test_criterion_12_byte_identical_csv(tmp_path):
    t0 = time.monotonic()
    pairs = []
    for tag, argv in {
        "run": ["run", "--benchmark", "sphere", "--pop", "12", "--gens", "5",
                "--runs", "2", "--seed", "11"],
        "compare": ["compare", "--benchmark", "booth", "--pop", "12", "--gens", "5",
                    "--runs", "2", "--seed", "11"],
        "tournament": ["tournament", "--pop", "12", "--gens", "4", "--runs", "1",
                       "--seed", "11"],
        "moo": ["moo", "--benchmark", "zdt1", "--pop", "14", "--gens", "6",
                "--runs", "1", "--seed", "11", "--ls-iterations", "4",
                "--ls-probability", "0.2"],
    }.items():
        outs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{tag}-{attempt}"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out)
        for csv_file in sorted(outs[0].glob("*.csv")):
            twin = outs[1] / csv_file.name
            identical = csv_file.read_bytes() == twin.read_bytes()
            pairs.append((f"{tag}/{csv_file.name}", identical))
    ok = all(same for _, same in pairs)
    elapsed = time.monotonic() - t0
    report(12, ok,
           f"{len(pairs)} CSV artifacts byte-identical across repeat invocations "
           f"({elapsed:.0f}s)")


def test_criterion_13_local_search_contracts():
    t0 = time.monotonic()
    budget = LocalSearchBudget(max_iterations=25)
    rng = np.random.default_rng(99)
    checked = 0
    for benchmark_id, spec in SINGLE_OBJECTIVE.items():
        space = spec.space()
        for _ in range(100):
            x0 = rng.uniform(space.lows, space.highs)
            f0 = spec.evaluate(x0)
            x, f, _ = local_refine(spec.evaluate, x0, space, budget)
            assert f <= f0 + 1e-15, f"{benchmark_id}: refine increased fitness"
            assert space.contains(x), f"{benchmark_id}: refine left the box"
            checked += 1
    sphere = lookup("sphere")
    _, f_sphere, _ = local_refine(
        sphere.evaluate, [3.0, 4.0], sphere.space(), LocalSearchBudget(max_iterations=50)
    )
    elapsed = time.monotonic() - t0
    ok = f_sphere < 1e-10
    report(13, ok,
           f"{checked} refinements monotone and in-box; sphere from (3,4) "
           f"reached {f_sphere:.1e} (< 1e-10) in {elapsed:.0f}s")
