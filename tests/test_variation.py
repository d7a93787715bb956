import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from aded import (
    ConfigError,
    LocalSearchBudget,
    RngStream,
    SearchSpace,
    ShapeError,
    StrategyId,
    adaptive_crossover_rate,
    adaptive_mutation_rate,
    crossover_binomial,
    crossover_exponential,
    finite_difference_gradient,
    local_refine,
)
from aded.benchmarks import CATALOG, lookup
from aded.core import evaluate_rows
from aded.harness import TOURNAMENT_PAIRS
from aded.variation import (
    MUTATIONS,
    ScheduleParams,
    crossover_draws,
    crossover_masks,
    draw_distinct,
    lockstep_refine,
    mutation_donors,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestSchedules:
    def test_mutation_rate_endpoints_and_midpoint(self):
        assert adaptive_mutation_rate(0, 100, 0.5) == 0.5
        assert adaptive_mutation_rate(100, 100, 0.5) == 0.0
        assert adaptive_mutation_rate(50, 100, 0.5) == 0.25

    def test_crossover_rate_endpoints_and_midpoint(self):
        assert adaptive_crossover_rate(0, 100, 0.9) == 0.0
        assert adaptive_crossover_rate(100, 100, 0.9) == 0.9
        assert adaptive_crossover_rate(45, 100, 0.9) == pytest.approx(0.405)

    def test_zero_max_generations_rejected(self):
        with pytest.raises(ConfigError):
            adaptive_mutation_rate(0, 0, 0.5)
        with pytest.raises(ConfigError):
            adaptive_crossover_rate(0, 0, 0.5)

    def test_generation_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            adaptive_mutation_rate(101, 100, 0.5)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.floats(min_value=1e-3, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_closed_forms_exact(self, max_generations, f0, cr0):
        for generation in {0, 1, max_generations // 2, max_generations}:
            assert adaptive_mutation_rate(generation, max_generations, f0) == \
                f0 * (1.0 - generation / max_generations)
            assert adaptive_crossover_rate(generation, max_generations, cr0) == \
                cr0 * (generation / max_generations)

    def test_monotonicity(self):
        f = [adaptive_mutation_rate(g, 50, 1.2) for g in range(51)]
        cr = [adaptive_crossover_rate(g, 50, 0.8) for g in range(51)]
        assert all(a >= b for a, b in zip(f, f[1:]))
        assert all(a <= b for a, b in zip(cr, cr[1:]))

    def test_fixed_mode_draws_inside_ranges(self):
        params = ScheduleParams(mode="fixed")
        f, cr = params.resolve_fixed(RngStream(4))
        assert 0.5 <= f <= 2.0
        assert 0.1 <= cr <= 0.9

    def test_fixed_mode_explicit_pair(self):
        params = ScheduleParams(mode="fixed", fixed_f=0.9, fixed_cr=0.0)
        assert params.resolve_fixed(RngStream(0)) == (0.9, 0.0)

    def test_scheduled_mode_resolves_to_none_without_drawing(self):
        rng = RngStream(11)
        assert ScheduleParams().resolve_fixed(rng) is None
        assert rng.random() == RngStream(11).random()


class TestStrategyId:
    def test_parse_all_canonical_variants(self):
        assert len(TOURNAMENT_PAIRS) == 14
        for name, _, _ in TOURNAMENT_PAIRS:
            s = StrategyId.parse(name)
            assert s.name == name

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            StrategyId.parse("bogus9bin")

    def test_k_only_for_current_to_family(self):
        assert StrategyId.parse("currenttorand1bin").uses_k
        assert StrategyId.parse("currenttobest1exp").uses_k
        assert not StrategyId.parse("randtobest1bin").uses_k
        assert not StrategyId.parse("rand1bin").uses_k


def member_bases(strategy, n, seed):
    """Each member's distinct non-self base indices, drawn as the engine does
    with every other member as neighbor."""
    return draw_distinct(RngStream(seed), n, strategy.index_count, n, skip=np.arange(n))


# each kind's donor for one member xi, from its picks r, the best point, F
# and its own k, as Storn & Price (1997) and ADED write it
DONOR_FORMULAS = {
    "rand1": lambda xi, r, best, f, ki: r[0] + f * (r[1] - r[2]),
    "best1": lambda xi, r, best, f, ki: best + f * (r[0] - r[1]),
    "rand2": lambda xi, r, best, f, ki: r[0] + f * (r[1] - r[2] + r[3] - r[4]),
    "best2": lambda xi, r, best, f, ki: best + f * (r[0] - r[1] + r[2] - r[3]),
    "currenttorand1": lambda xi, r, best, f, ki: xi + ki * (r[2] - xi) + f * (r[0] - r[1]),
    "currenttobest1": lambda xi, r, best, f, ki: xi + ki * (best - xi) + f * (r[0] - r[1]),
    "randtobest1": lambda xi, r, best, f, ki: r[0] + f * (best - r[0]) + f * (r[1] - r[2]),
    "adedrand": lambda xi, r, best, f, ki: xi + f * (r[0] - xi) + f * (r[1] - r[2]),
    "adedneighbors": lambda xi, r, best, f, ki: xi + f * (r[0] - xi) + f * (r[1] - xi),
}


class TestMutate:
    """Donor vectors of ``mutation_donors``, the engine's mutation step."""

    def test_identical_members_rand1(self):
        x = np.tile([1.5, -2.0], (6, 1))
        strategy = StrategyId.parse("rand1bin")
        donors = mutation_donors(strategy, x, member_bases(strategy, 6, 0), None, 0.7,
                                 np.zeros(6))
        assert donors.tolist() == x.tolist()

    def test_rand1_arithmetic(self):
        # r1 + F (r2 - r3), one donor per ordered pick of bases
        x = np.array([[9.0, 9.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        bases = np.array(list(itertools.permutations([1, 2, 3])))
        donors = mutation_donors(StrategyId.parse("rand1bin"), x, bases, None, 0.5, np.zeros(6))
        for donor, (r1, r2, r3) in zip(donors, bases):
            assert donor.tolist() == (x[r1] + 0.5 * (x[r2] - x[r3])).tolist()

    def test_rand1_example_from_fixed_bases(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
        bases = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        donors = mutation_donors(StrategyId.parse("rand1bin"), x, bases, None, 0.5, np.zeros(4))
        assert donors[0].tolist() == [2.0, 0.0]

    def test_best1_with_zero_f(self):
        x = np.arange(12.0).reshape(6, 2)
        best = np.array([7.0, -7.0])
        strategy = StrategyId.parse("best1bin")
        donors = mutation_donors(strategy, x, member_bases(strategy, 6, 1), best, 0.0,
                                 np.zeros(6))
        assert donors.tolist() == [[7.0, -7.0]] * 6

    @pytest.mark.parametrize("name", ["rand1bin", "rand2bin", "currenttobest1bin",
                                      "adedrandbin"])
    def test_translation_equivariance(self, name):
        strategy = StrategyId.parse(name)
        x = np.random.default_rng(8).normal(size=(8, 3))
        shift = np.array([10.0, -5.0, 2.5])
        bases = member_bases(strategy, 8, 33)
        k = RngStream(34).random(8)
        donor_a = mutation_donors(strategy, x, bases, x[0], 0.6, k)
        donor_b = mutation_donors(strategy, x + shift, bases, x[0] + shift, 0.6, k)
        assert np.allclose(donor_a + shift, donor_b, atol=1e-12)

    @pytest.mark.parametrize("kind", sorted(MUTATIONS))
    def test_donor_formula(self, kind):
        x = np.random.default_rng(9).normal(size=(8, 3))
        best, f, k = np.array([0.5, -1.5, 2.0]), 0.7, np.linspace(0.0, 1.0, 8)
        strategy = StrategyId(kind, "bin")
        bases = member_bases(strategy, 8, 2)
        donors = mutation_donors(strategy, x, bases, best, f, k)
        for i, picks in enumerate(bases):
            expected = DONOR_FORMULAS[kind](x[i], x[picks], best, f, k[i])
            assert donors[i].tolist() == expected.tolist()

    def test_all_strategies_produce_finite_donors(self):
        x = np.random.default_rng(0).uniform(-1, 1, size=(10, 4))
        best = x[3]
        for name in (*(v for v, _, _ in TOURNAMENT_PAIRS), "adedrandbin", "adedneighborsexp"):
            strategy = StrategyId.parse(name)
            donors = mutation_donors(strategy, x, member_bases(strategy, 10, 5), best, 0.8,
                                     np.full(10, 0.4))
            assert donors.shape == (10, 4)
            assert np.isfinite(donors).all()


class TestDrawDistinct:
    def test_rows_distinct_and_skip_avoided(self):
        skip = np.arange(50) % 9
        rows = draw_distinct(RngStream(1), 9, 8, 50, skip=skip)
        assert rows.shape == (50, 8)
        for row, s in zip(rows, skip):
            assert sorted(row.tolist()) == [j for j in range(9) if j != s]

    def test_every_ordered_tuple_equally_likely(self):
        # the 4 * 3 * 2 ordered picks of 3 from {0, 1, 3, 4}, skipping 2
        m = 48000
        rows = draw_distinct(RngStream(2), 5, 3, m, skip=np.full(m, 2))
        codes = rows @ np.array([25, 5, 1])
        counts = np.bincount(codes, minlength=125)
        seen = np.flatnonzero(counts)
        assert seen.size == 24
        assert not np.isin(2, rows)
        expected = m / 24
        stat = float(((counts[seen] - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, 23)

    @pytest.mark.parametrize("pool, k, with_skip",
                             [(5, 3, True), (9, 8, True), (12, 4, False), (40, 10, True),
                              (40, 12, False), (300, 10, True)])
    def test_matches_a_per_row_reference(self, pool, k, with_skip):
        # the same two RNG calls, decoded one row at a time: a row with a
        # repeat takes, for each rank r, the r-th index not yet taken
        # and not its skip
        m = 200
        for seed in range(20):
            skip = np.random.default_rng(seed).integers(0, pool, m) if with_skip else None
            rng = RngStream(seed)
            picks = rng.integers(0, pool - with_skip, size=(m, k))
            if with_skip:
                picks += picks >= skip[:, None]
            redo = [r for r in range(m) if len(set(picks[r].tolist())) < k]
            ranks = rng.integers(0, pool - with_skip - np.arange(k), size=(len(redo), k))
            for row, rank in zip(redo, ranks):
                free = [j for j in range(pool) if not with_skip or j != skip[row]]
                picks[row] = [free.pop(r) for r in rank.tolist()]
            drawn = draw_distinct(RngStream(seed), pool, k, m, skip=skip)
            assert drawn.tolist() == picks.tolist()


class TestBinomialCrossover:
    def test_cr_one_copies_donor(self):
        target = np.zeros(8)
        donor = np.arange(8.0)
        trial = crossover_binomial(target, donor, 1.0, RngStream(0))
        assert (trial == donor).all()

    def test_cr_zero_takes_exactly_one_component(self):
        target = np.zeros(8)
        donor = np.ones(8)
        for seed in range(50):
            trial = crossover_binomial(target, donor, 0.0, RngStream(seed))
            assert trial.sum() == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            crossover_binomial(np.zeros(3), np.zeros(4), 0.5, RngStream(0))

    def test_donor_take_frequency(self):
        # Monte Carlo oracle at reduced scale (the full 1e5-trial version
        # lives in the acceptance suite)
        d, cr, trials = 10, 0.3, 20000
        target = np.zeros(d)
        donor = np.ones(d)
        rng = RngStream(123)
        takes = np.zeros(d)
        forced = np.zeros(d)
        for _ in range(trials):
            trial = crossover_binomial(target, donor, cr, rng)
            takes += trial
        freq = takes / trials
        # every component mixes the forced j_rand (1/d) with Bernoulli(cr)
        expected = cr + (1 - cr) / d
        assert np.allclose(freq, expected, atol=0.02)


class TestExponentialCrossover:
    def test_cr_zero_takes_exactly_one_component(self):
        for seed in range(30):
            trial = crossover_exponential(np.zeros(6), np.ones(6), 0.0, RngStream(seed))
            assert trial.sum() == 1.0

    def test_cr_one_copies_all(self):
        trial = crossover_exponential(np.zeros(6), np.ones(6), 1.0, RngStream(3))
        assert trial.sum() == 6.0

    def test_donor_segment_is_circularly_contiguous(self):
        d = 9
        for seed in range(200):
            trial = crossover_exponential(np.zeros(d), np.ones(d), 0.6, RngStream(seed))
            taken = np.flatnonzero(trial == 1.0)
            assert taken.size >= 1
            # a circular run has at most one "gap" in the doubled index view
            mask = trial == 1.0
            breaks = sum(
                1 for i in range(d) if mask[i] and not mask[(i + 1) % d]
            )
            assert breaks <= 1


    def test_run_length_follows_truncated_geometric_law(self):
        d, cr, m = 6, 0.6, 60000
        masks = crossover_masks("exp", *crossover_draws("exp", d, RngStream(8), m), cr)
        lengths = masks.sum(axis=1)
        counts = np.bincount(lengths, minlength=d + 1)[1:]
        law = np.array([cr ** (l - 1) * (1 - cr) for l in range(1, d)] + [cr ** (d - 1)])
        expected = m * law
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, d - 1)


# Reference versions of the per-generation kernels, with a row sort and
# fancy indexing: the kernels gather rows with take/put and find repeats by
# column compares, and must give the same arrays from the same draws.

def sorted_draw_distinct(rng, pool, k, m, skip=None):
    """``draw_distinct`` finding repeated rows with a row sort."""
    s = 0 if skip is None else 1
    picks = rng.integers(0, pool - s, size=(m, k))
    if s:
        picks += picks >= skip[:, None]
    ordered = np.sort(picks, axis=1)
    redo = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    codes = np.empty((redo.size, s + k), dtype=np.intp)
    if s:
        codes[:, 0] = skip[redo]
    codes[:, s:] = rng.integers(0, pool - s - np.arange(k), size=(redo.size, k))
    for i in range(s + k - 2, -1, -1):
        tail = codes[:, i + 1:]
        tail += tail >= codes[:, i:i + 1]
    picks[redo] = codes[:, s:]
    return picks


def fancy_draw_crossover(kind, d, cr, rng, m):
    """``crossover_masks`` of ``crossover_draws``, forcing each bin row's start
    by a 2-D fancy assignment."""
    firsts = rng.integers(d, size=m)
    if kind == "bin":
        take = rng.random((m, d)) < cr
        take[np.arange(m), firsts] = True
        return take
    extend = rng.random((m, d - 1)) < cr
    lengths = 1 + np.logical_and.accumulate(extend, axis=1).sum(axis=1)
    return (np.arange(d) - firsts[:, None]) % d < lengths[:, None]


def fancy_mutation_donors(strategy, pop, bases, best, f, k):
    """``mutation_donors`` gathering each base with its own fancy index."""
    x = np.asarray(pop, dtype=float)
    r = [x[bases[:, j]] for j in range(strategy.index_count)]
    return MUTATIONS[strategy.mutation][2](x, r, best, f, np.asarray(k, dtype=float)[:, None])


class TestKernelsMatchTheirReferences:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("with_skip", [False, True])
    @pytest.mark.parametrize("m", [1, 7, 300])
    def test_draw_distinct(self, k, with_skip, m):
        # small pools make most rows repeat, so most rows are drawn again
        for pool in sorted({k + with_skip, k + 1 + with_skip, 2 * k + 3, 40, 300}):
            for seed in range(5):
                skip = (np.random.default_rng(seed).integers(0, pool, m) if with_skip
                        else None)
                ours, theirs = RngStream(seed), RngStream(seed)
                drawn = draw_distinct(ours, pool, k, m, skip=skip)
                expected = sorted_draw_distinct(theirs, pool, k, m, skip=skip)
                assert drawn.dtype == expected.dtype
                assert np.array_equal(drawn, expected), (pool, seed)
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize("kind", ["bin", "exp"])
    @pytest.mark.parametrize("m", [1, 7, 300])
    @pytest.mark.parametrize("d", [1, 2, 30])
    def test_draw_crossover(self, kind, m, d):
        for cr in (0.0, 0.3, 0.9, 1.0):
            for seed in range(3):
                ours, theirs = RngStream(seed), RngStream(seed)
                masks = crossover_masks(kind, *crossover_draws(kind, d, ours, m), cr)
                assert np.array_equal(masks, fancy_draw_crossover(kind, d, cr, theirs, m))
                assert ours.random() == theirs.random()

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @pytest.mark.parametrize("m", [1, 7, 300])
    @pytest.mark.parametrize("d", [1, 2, 30])
    def test_mutation_donors(self, mutation, m, d):
        strategy = StrategyId(mutation, "bin")
        for seed in range(3):
            data = np.random.default_rng(seed)
            x = data.normal(size=(m, d))
            bases = data.integers(0, m, size=(m, strategy.index_count))
            k = data.random(m)
            best = x[data.integers(m)]
            donors = mutation_donors(strategy, x, bases, best, 0.7, k)
            expected = fancy_mutation_donors(strategy, x, bases, best, 0.7, k)
            assert donors.tobytes() == expected.tobytes()
            assert donors.shape == expected.shape


class TestAtLeastOneDonorComponent:
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=999))
    @settings(max_examples=120)
    def test_no_pure_clone_trials(self, cr, seed):
        target = np.zeros(7)
        donor = np.ones(7)
        rng = RngStream(seed)
        assert crossover_binomial(target, donor, cr, rng).sum() >= 1.0
        assert crossover_exponential(target, donor, cr, rng).sum() >= 1.0


class TestRefinementCoin:
    def test_coin_frequency(self):
        m, p = 100000, 0.3
        refined = LocalSearchBudget(probability=p).refines(RngStream(6), m)
        sigma = np.sqrt(p * (1 - p) / m)
        assert abs(refined.mean() - p) < 3 * sigma

    @pytest.mark.parametrize("budget", [LocalSearchBudget(probability=1.0),
                                        LocalSearchBudget(enabled=False, probability=0.3)])
    def test_no_coin_drawn_without_a_choice(self, budget):
        rng = RngStream(6)
        mask = budget.refines(rng, 10)
        assert mask.tolist() == [budget.enabled] * 10
        assert rng.random() == RngStream(6).random()


class TestFiniteDifferenceGradient:
    def test_matches_analytic_sphere(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.uniform(-5, 5, size=3)
            grad = finite_difference_gradient(lambda z: float(np.sum(z * z)), x)
            assert np.allclose(grad, 2 * x, rtol=1e-5, atol=1e-6)

    def test_matches_analytic_rosenbrock(self):
        def rosen(z):
            return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (z[:-1] - 1.0) ** 2))

        def rosen_grad(z):
            g = np.zeros_like(z)
            g[:-1] = -400.0 * z[:-1] * (z[1:] - z[:-1] ** 2) + 2.0 * (z[:-1] - 1.0)
            g[1:] += 200.0 * (z[1:] - z[:-1] ** 2)
            return g

        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=4)
            grad = finite_difference_gradient(rosen, x)
            expected = rosen_grad(x)
            assert np.allclose(grad, expected, rtol=1e-5, atol=1e-4)

    def test_boundary_clamping_falls_back_to_one_sided(self):
        space = SearchSpace(np.array([0.0]), np.array([1.0]))
        grad = finite_difference_gradient(lambda z: float(z[0] ** 2), np.array([0.0]), space=space)
        assert grad[0] == pytest.approx(1e-6, abs=1e-8)  # one-sided slope of x^2 at 0

    @pytest.mark.parametrize("step", [0.0, -1e-6, np.nan, np.inf])
    def test_step_not_finite_and_positive_is_refused(self, step):
        with pytest.raises(ConfigError, match="step must be finite and > 0"):
            finite_difference_gradient(lambda z: float(z @ z), np.ones(2), step)

    @pytest.mark.parametrize("placement", ["faces", "interior"])
    @pytest.mark.parametrize("benchmark_id", sorted(CATALOG))
    def test_held_values_spare_exactly_the_clamped_probes(self, benchmark_id, placement):
        spec = lookup(benchmark_id)
        space = spec.space()
        m, d = 8, space.dim

        def objective(points):
            values = spec.evaluate(points)
            return values if spec.n_objectives == 1 else values.sum(axis=-1)

        objective.batched = True
        rng = np.random.default_rng(3)
        x = rng.uniform(space.lows, space.highs, size=(m, d))
        if placement == "faces":
            # each coordinate at its low, its high or inside; rows 0 and 1 corners
            at = rng.integers(0, 3, size=(m, d))
            at[0], at[1] = 0, 1
            x = np.where(at == 0, space.lows, np.where(at == 1, space.highs, x))
        sent = []

        def probes(points, owners):
            sent.append((points.copy(), owners.copy()))
            return objective(points)

        all_probes = []

        def every_probe(points):
            all_probes.append(points.copy())
            return objective(points)

        every_probe.batched = True
        held = finite_difference_gradient(probes, x, 1e-6, space, fx=objective(x))
        full = finite_difference_gradient(every_probe, x, 1e-6, space)
        assert held.tobytes() == full.tobytes()
        [points], [(sent_points, owners)] = all_probes, sent
        all_owners = np.repeat(np.arange(m), 2 * d)
        spared = (points == x[all_owners]).all(axis=1)
        clamped = np.count_nonzero(x == space.lows) + np.count_nonzero(x == space.highs)
        assert np.count_nonzero(spared) == clamped
        assert (clamped > 0) == (placement == "faces")
        assert sent_points.tobytes() == points[~spared].tobytes()
        assert owners.tolist() == all_owners[~spared].tolist()


class TestLocalRefine:
    def test_sphere_descent(self):
        space = SearchSpace.cube(-10.0, 10.0, 2)
        budget = LocalSearchBudget(max_iterations=50)
        x, f, evals = local_refine(lambda z: float(np.sum(z * z)), [3.0, 4.0], space, budget)
        assert f < 1e-10
        assert np.linalg.norm(x) < 1e-4
        assert evals > 0

    def test_stationary_start_stays(self):
        spec = lookup("rastrigin")
        space = spec.space()
        x, f, _ = local_refine(spec.evaluate, [0.0, 0.0], space, LocalSearchBudget())
        assert f == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(x, 0.0, atol=1e-9)

    def test_boundary_constrained_minimum(self):
        space = SearchSpace.cube(1.0, 2.0, 1)
        x, f, _ = local_refine(lambda z: float(z[0] ** 2), [1.5], space, LocalSearchBudget())
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert f == pytest.approx(1.0, abs=1e-9)

    def test_never_worse_and_always_in_box(self):
        rng = np.random.default_rng(12)
        for benchmark_id in ("ackley", "eggholder", "bukin_n6", "schaffer_n2"):
            spec = lookup(benchmark_id)
            space = spec.space()
            for _ in range(20):
                x0 = rng.uniform(space.lows, space.highs)
                f0 = spec.evaluate(x0)
                x, f, _ = local_refine(spec.evaluate, x0, space, LocalSearchBudget())
                assert f <= f0 + 1e-15
                assert space.contains(x)

    def test_eval_count_audited(self):
        calls = 0

        def counted(z):
            nonlocal calls
            calls += 1
            return float(np.sum(z * z))

        space = SearchSpace.cube(-5.0, 5.0, 3)
        _, _, evals = local_refine(counted, [1.0, 2.0, -1.0], space, LocalSearchBudget())
        assert evals == calls

    def test_start_point_evaluated_once(self):
        points = []

        def logged(z):
            points.append(np.array(z))
            return float(np.sum(z * z))

        space = SearchSpace.cube(-5.0, 5.0, 2)
        local_refine(logged, [1.0, 2.0], space, LocalSearchBudget(max_iterations=3))
        assert points[0].tolist() == [1.0, 2.0]
        assert points[1].tolist() != [1.0, 2.0]

    def test_zero_iteration_budget_leaves_the_start(self):
        # a disabled budget may hold max_iterations = 0, and local_refine
        # refines whatever ``enabled`` says: such a budget takes no step
        space = SearchSpace.cube(-2.0, 10.0, 2)
        budget = LocalSearchBudget(enabled=False, max_iterations=0)
        x, f, _ = local_refine(lambda z: float(np.sum(z * z)), [-3.0, 4.0], space, budget)
        assert x.tolist() == [-2.0, 4.0]
        assert f == 20.0

    def test_import_leaves_scipy_optimize_out(self):
        code = "import sys, aded; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "False"

    def test_non_finite_start_rejected(self):
        from aded import DomainError

        space = SearchSpace.cube(-1.0, 1.0, 1)
        with pytest.raises(DomainError):
            local_refine(lambda z: float("nan"), [0.5], space, LocalSearchBudget())

    def test_nan_at_a_line_search_point_raises(self):
        from aded import DomainError

        # the gradient probes around (1, 1) are finite; the first step's end is not
        def objective(z):
            return float("nan") if z[0] < 0.5 else float(np.sum(z * z))

        space = SearchSpace.cube(-2.0, 2.0, 2)
        with pytest.raises(DomainError, match=r"returned nan at local-search point \[-1\. -1\.\]"):
            local_refine(objective, [1.0, 1.0], space, LocalSearchBudget())


class TestLockstepRefine:
    """Rows refined together: each row's result is its result alone."""

    # cross_in_tray (a 0.1 power) and goldstein_price (squares of sums) check
    # that NumPy's power kernels give a row the same bits in any batch
    CASES = [("ackley", 2), ("eggholder", 2), ("schaffer_n2", 2), ("schwefel", 4),
             ("cross_in_tray", 2), ("goldstein_price", 2)]

    @staticmethod
    def starts(spec, dim):
        space = spec.space(dim)
        return space, np.random.default_rng(dim).uniform(space.lows, space.highs, size=(20, dim))

    @staticmethod
    def counted(evaluate, m):
        """``evaluate`` and each of the m rows' evaluation count, read from
        the ``rows`` of every call."""
        evals = np.zeros(m, dtype=np.int64)

        def counting(points, rows):
            evals[:] += np.bincount(rows, minlength=m)
            return evaluate(points, rows)

        return counting, evals

    @classmethod
    def refine(cls, objective, x0, space):
        calls = []

        def evaluate(points, rows):
            calls.append(len(points))
            return evaluate_rows(objective, points)

        evaluate, evals = cls.counted(evaluate, len(x0))
        x, f = lockstep_refine(evaluate, x0, space, LocalSearchBudget())
        return x, f, evals, sum(calls)      # points evaluated

    @pytest.mark.parametrize("benchmark_id, dim", CASES)
    def test_rows_together_equal_each_row_alone(self, benchmark_id, dim):
        spec = lookup(benchmark_id)
        space, x0 = self.starts(spec, dim)
        x, f, evals, _ = self.refine(spec.evaluate, x0, space)
        for r in range(len(x0)):
            x_alone, f_alone, evals_alone = local_refine(spec.evaluate, x0[r], space,
                                                         LocalSearchBudget())
            assert x[r].tobytes() == x_alone.tobytes()
            assert repr(float(f[r])) == repr(f_alone)
            assert evals[r] == evals_alone

    @pytest.mark.parametrize("benchmark_id, dim", CASES)
    def test_counts_sum_to_calls_never_worse_in_box(self, benchmark_id, dim):
        spec = lookup(benchmark_id)
        space, x0 = self.starts(spec, dim)
        points = 0

        def counted(z):
            nonlocal points
            points += 1
            return spec.evaluate(z)

        x, f, evals, _ = self.refine(counted, x0, space)
        assert evals.sum() == points
        assert (evals > 1).all()
        assert (f <= spec.evaluate(x0)).all()
        assert all(space.contains(row) for row in x)
        assert (f < spec.evaluate(x0)).any()

    @pytest.mark.parametrize("benchmark_id, dim", CASES)
    def test_per_row_objective_path_agrees(self, benchmark_id, dim):
        spec = lookup(benchmark_id)
        space, x0 = self.starts(spec, dim)
        batched = self.refine(spec.evaluate, x0, space)
        rows = self.refine(lambda z: spec.evaluate(z), x0, space)
        assert batched[0].tobytes() == rows[0].tobytes()
        assert batched[1].tobytes() == rows[1].tobytes()
        assert batched[2].tolist() == rows[2].tolist()
        assert batched[3] == rows[3] == batched[2].sum()

    def test_gradient_of_rows_equals_gradient_of_each(self):
        spec = lookup("rosenbrock")
        space = spec.space(3)
        x = np.random.default_rng(4).uniform(space.lows, space.highs, size=(5, 3))
        grads = finite_difference_gradient(spec.evaluate, x, space=space)
        for row, grad in zip(x, grads):
            alone = finite_difference_gradient(spec.evaluate, row, space=space)
            assert grad.tobytes() == alone.tobytes()

    def test_scalar_descends_on_the_scalarization_and_returns_vectors(self):
        spec = lookup("zdt1")
        space, x0 = self.starts(spec, 6)
        weights = np.array([0.3, 0.7])

        def scalar(values):
            return (values * weights).sum(axis=-1)

        evaluate, evals = self.counted(lambda points, rows: spec.evaluate(points), len(x0))
        x, objs = lockstep_refine(evaluate, x0, space, LocalSearchBudget(), scalar)
        evaluate, evals_s = self.counted(lambda points, rows: scalar(spec.evaluate(points)),
                                         len(x0))
        x_s, f_s = lockstep_refine(evaluate, x0, space, LocalSearchBudget())
        assert x.tobytes() == x_s.tobytes()
        assert evals.tolist() == evals_s.tolist()
        assert objs.tobytes() == spec.evaluate(x).tobytes()
        assert scalar(objs).tobytes() == f_s.tobytes()

    def test_rows_on_the_rounding_floor_stop_after_a_step_no_worse(self):
        # rastrigin rounds to exactly 0.0 near its minimum, where no trial can
        # meet a positive Armijo demand: each row takes its first trial that
        # is no worse, where 26 evaluations (the start, 4 probes and 21
        # failed trials) ran its line search out
        spec = lookup("rastrigin")
        space = spec.space(2)
        x0 = np.array([[1e-9, -1e-9], [-1e-9, 1e-9], [1e-12, 3e-10]])
        assert spec.evaluate(x0).tolist() == [0.0, 0.0, 0.0]
        calls = []

        def evaluate(points, rows):
            calls.append(len(points))
            return spec.evaluate(points)

        evaluate, evals = self.counted(evaluate, len(x0))
        x, f = lockstep_refine(evaluate, x0, space, LocalSearchBudget())
        assert f.tolist() == [0.0, 0.0, 0.0]
        assert all(space.contains(row) for row in x)
        assert (evals < 26).all()
        assert evals.tolist() == [9, 9, 8]
        assert len(calls) == 6

    @pytest.mark.parametrize("benchmark_id, start, f_pin, evals_pin", [
        ("sphere", (0.5, -0.5), 3.8518598887744717e-22, 11),
        ("rastrigin", (0.3, -0.2), 1.9899181141865832, 46),
    ])
    def test_demands_above_the_ftol_floor_are_kept(self, benchmark_id, start, f_pin, evals_pin):
        # values taken with the full Armijo demand: sphere's descent meets no
        # demand at or below FTOL * max(|f|, 1), and rastrigin's meets two,
        # where each trial passes or fails under both demands alike
        spec = lookup(benchmark_id)
        _, f, evals = local_refine(spec.evaluate, start, spec.space(2), LocalSearchBudget())
        assert repr(f) == repr(f_pin)
        assert evals == evals_pin
