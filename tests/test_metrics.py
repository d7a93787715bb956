import re

import numpy as np
import pytest

from aded import metrics

from aded import (
    ConfigError,
    SearchSpace,
    ShapeError,
    UndefinedMetricError,
    analytic_front,
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


class FakeRun:
    def __init__(self, best_f, n_evaluations=1000):
        self.best_f = best_f
        self.n_evaluations = n_evaluations


def batch(finals, evals=1000):
    return [FakeRun(f, evals) for f in finals]


def pearson_oracle(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(((u - u.mean()) * (v - v.mean())).sum()
                 / np.sqrt(((u - u.mean()) ** 2).sum() * ((v - v.mean()) ** 2).sum()))


class TestFdc:
    def test_fitness_proportional_to_distance(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        ref = np.zeros(2)
        dist = np.linalg.norm(x - ref, axis=1)
        assert fdc(x, 2.5 * dist, ref) == pytest.approx(1.0)

    def test_anti_correlation(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        ref = np.zeros(2)
        dist = np.linalg.norm(x - ref, axis=1)
        assert fdc(x, -dist, ref) == pytest.approx(-1.0)

    def test_matches_pearson_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=(12, 3))
            f = rng.normal(size=12)
            ref = rng.normal(size=3)
            d = np.linalg.norm(x - ref, axis=1)
            assert fdc(x, f, ref) == pytest.approx(pearson_oracle(f, d), abs=1e-12)

    def test_zero_variance_rejected(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(UndefinedMetricError):
            fdc(x, [1.0, 1.0, 1.0], np.zeros(2))

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 2))
        f = rng.normal(size=10)
        ref = np.zeros(2)
        base = fdc(x, f, ref)
        assert fdc(x, 3.0 * f + 11.0, ref) == pytest.approx(base, abs=1e-12)
        assert -1.0 <= base <= 1.0

    def test_too_few_members(self):
        with pytest.raises(UndefinedMetricError):
            fdc(np.zeros((2, 2)), [1.0, 2.0], np.zeros(2))

    @pytest.mark.parametrize("reference", [np.zeros(2), 0.0, np.zeros(4), np.zeros((1, 3))],
                             ids=["short", "scalar", "long", "row"])
    def test_reference_not_of_the_members_width_is_refused(self, reference):
        x = np.random.default_rng(0).random((5, 3))
        shape = np.shape(reference)
        with pytest.raises(ShapeError, match=rf"{re.escape(str(shape))}.*width 3"):
            fdc(x, np.arange(5.0), reference)


class TestDiversity:
    def test_identical_members(self):
        space = SearchSpace.cube(-1.0, 1.0, 2)
        assert diversity(np.zeros((5, 2)), space) == 0.0

    def test_opposite_corners(self):
        space = SearchSpace.cube(0.0, 1.0, 3)
        x = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert diversity(x, space) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        space = SearchSpace.cube(-3.0, 4.0, 3)
        for _ in range(20):
            x = rng.uniform(-3, 4, size=(9, 3))
            total = 0.0
            count = 0
            for i in range(9):
                for j in range(i + 1, 9):
                    total += np.linalg.norm(x[i] - x[j])
                    count += 1
            expected = (total / count) / space.diagonal()
            assert diversity(x, space) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 1), (9, 2), (40, 3), (31, 7), (25, 8), (12, 30)])
    @pytest.mark.parametrize("block", [None, 64])
    def test_bit_identical_to_row_norm_sums(self, n, d, block, monkeypatch):
        """Same value, to the bit, as summing np.linalg.norm over the members
        after each member in turn, whatever the block size."""
        if block is not None:
            monkeypatch.setattr(metrics, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(n * d)
        space = SearchSpace.cube(-3.0, 4.0, d)
        x = rng.uniform(-3, 4, size=(n, d)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
        total = 0.0
        for i in range(n - 1):
            total += float(np.sum(np.linalg.norm(x[i + 1:] - x[i], axis=1)))
        assert diversity(x, space) == total / (n * (n - 1) / 2) / space.diagonal()

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(6, 2))
        a = diversity(x, SearchSpace(np.array([0.0, 0.0]), np.array([1.0, 1.0])))
        b = diversity(x + 10.0, SearchSpace(np.array([10.0, 10.0]), np.array([11.0, 11.0])))
        assert a == pytest.approx(b, abs=1e-12)

    def test_singleton_rejected(self):
        with pytest.raises(UndefinedMetricError):
            diversity(np.zeros((1, 2)), SearchSpace.cube(0.0, 1.0, 2))

    @pytest.mark.parametrize("width,dim", [(3, 2), (2, 3), (1, 4)])
    def test_members_not_of_the_space_dim_are_refused(self, width, dim):
        x = np.random.default_rng(0).random((5, width))
        with pytest.raises(ShapeError, match=rf"width {width} .* dim {dim}"):
            diversity(x, SearchSpace.cube(0.0, 1.0, dim))


class TestConvergenceRate:
    def test_first_differences(self):
        assert convergence_rate([5.0, 3.0, 3.0]).tolist() == [-2.0, 0.0]

    def test_constant_history(self):
        assert convergence_rate([4.0] * 6).tolist() == [0.0] * 5

    def test_too_short(self):
        with pytest.raises(ShapeError):
            convergence_rate([1.0])


class TestSuccessRate:
    def test_all_hit(self):
        assert success_rate(batch([0.0, 0.0, 0.0]), 0.0) == 1.0

    def test_none_hit(self):
        assert success_rate(batch([1.0, 2.0]), 0.0) == 0.0

    def test_half(self):
        finals = [0.0] * 15 + [1.0] * 15
        assert success_rate(batch(finals), 0.0) == 0.5

    def test_tolerance_is_inclusive(self):
        assert metrics.SUCCESS_TOL == 1e-4
        finals = [metrics.SUCCESS_TOL, -metrics.SUCCESS_TOL, 2 * metrics.SUCCESS_TOL, 1.0]
        assert success_rate(batch(finals), 0.0) == 0.5

    def test_missing_optimum_rejected(self):
        with pytest.raises(ConfigError):
            success_rate(batch([0.0]), None)


class TestQMeasure:
    def test_all_successful(self):
        qm = q_measure(batch([0.0] * 30, evals=1000), 0.0)
        assert (qm.c, qm.p, qm.q) == (1000.0, 1.0, 1000.0)

    def test_half_successful(self):
        finals = [0.0] * 15 + [9.0] * 15
        qm = q_measure(batch(finals, evals=1000), 0.0)
        assert (qm.c, qm.p, qm.q) == (1000.0, 0.5, 2000.0)

    def test_none_successful(self):
        qm = q_measure(batch([5.0] * 30), 0.0)
        assert qm.q == np.inf
        assert qm.p == 0.0

    def test_q_at_least_c(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            finals = rng.choice([0.0, 3.0], size=12)
            if (finals == 0.0).sum() == 0:
                continue
            qm = q_measure(batch(finals.tolist(), evals=500), 0.0)
            assert qm.q >= qm.c
            if qm.p == 1.0:
                assert qm.q == qm.c


class TestConvergenceSpeedAndAov:
    def test_speed_is_minimum(self):
        assert convergence_speed(batch([-0.99, -1.0, -0.98])) == -1.0

    def test_speed_single_run(self):
        assert convergence_speed(batch([3.5])) == 3.5

    def test_aov_examples(self):
        assert aov(batch([-1.0, -1.0, -1.0])) == -1.0
        assert aov(batch([0.0, 2.0])) == 1.0

    def test_aov_matches_mean_oracle(self):
        rng = np.random.default_rng(5)
        finals = rng.normal(size=30).tolist()
        assert aov(batch(finals)) == pytest.approx(sum(finals) / 30, abs=1e-12)


def gd_oracle(obtained, reference):
    total = 0.0
    for p in reference:
        best = min(np.linalg.norm(p - q) ** 2 for q in obtained)
        total += best
    return np.sqrt(total / len(reference))


def spread_oracle(obtained, reference):
    q = np.asarray(sorted(map(tuple, obtained)))
    ref = np.asarray(sorted(map(tuple, reference)))
    d_f = np.linalg.norm(ref[0] - q[0])
    d_l = np.linalg.norm(ref[-1] - q[-1])
    gaps = [np.linalg.norm(q[i + 1] - q[i]) for i in range(len(q) - 1)]
    d_bar = sum(gaps) / len(gaps)
    numerator = d_f + d_l + sum(abs(g - d_bar) for g in gaps)
    denominator = d_f + d_l + (len(q) - 1) * d_bar
    return numerator / denominator if denominator else 0.0


class TestGenerationalDistance:
    def test_identical_fronts(self):
        front = np.array([[0.0, 1.0], [0.5, 0.3], [1.0, 0.0]])
        assert generational_distance(front, front) == 0.0

    def test_single_reference_point(self):
        # nearest obtained point to (3, 4) is (5, 5), at distance sqrt(5)
        pair = ([[0.0, 0.0], [5.0, 5.0]], [[3.0, 4.0]])
        assert generational_distance(*pair) == pytest.approx(np.sqrt(5.0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            obtained = rng.uniform(0, 1, size=(17, 2))
            reference = rng.uniform(0, 1, size=(11, 2))
            pair = (obtained, reference)
            assert generational_distance(*pair) == pytest.approx(
                gd_oracle(obtained, reference), abs=1e-12
            )

    def test_scales_linearly(self):
        rng = np.random.default_rng(7)
        obtained = rng.uniform(0, 1, size=(9, 2))
        reference = rng.uniform(0, 1, size=(7, 2))
        base = generational_distance(obtained, reference)
        scaled = generational_distance(3.0 * obtained, 3.0 * reference)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def looped_gd(obtained, reference):
    """The per-reference-point loop that ``generational_distance`` replaces."""
    sq = np.empty(reference.shape[0])
    for idx, p in enumerate(reference):
        sq[idx] = np.min(np.sum((obtained - p) ** 2, axis=1))
    return float(np.sqrt(sq.mean()))


class TestGenerationalDistanceBits:
    @pytest.mark.parametrize("benchmark_id", ["zdt1", "dltz1"])
    @pytest.mark.parametrize("n_obtained", [1, 40, 500])
    def test_bit_identical_to_per_point_loop(self, benchmark_id, n_obtained):
        """Same bits as the per-point loop, on fronts of k = 2 and 3; the
        1,000 reference points are one block at n_obtained 1 and several at
        40 and 500."""
        reference = analytic_front(benchmark_id, 1000)
        rng = np.random.default_rng(n_obtained)
        obtained = reference[rng.choice(len(reference), n_obtained)] \
            + rng.uniform(0.0, 0.2, size=(n_obtained, reference.shape[1]))
        pair = (obtained, reference)
        assert repr(generational_distance(*pair)) == repr(looped_gd(obtained, reference))

    @pytest.mark.parametrize("k", [2, 3, 8, 9])
    @pytest.mark.parametrize("block", [None, 64])
    def test_bit_identical_at_any_block_and_width(self, k, block, monkeypatch):
        """Same bits as the per-point loop on either side of 8 objectives,
        where NumPy's sum stops adding left to right; one last-bit change in
        a distance often vanishes in the mean, hence many fronts."""
        if block is not None:
            monkeypatch.setattr(metrics, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(k)
        for _ in range(30):
            obtained = rng.uniform(0, 1, size=(23, k)) * rng.choice([1e-3, 1.0, 1e3], size=(23, 1))
            reference = rng.uniform(0, 1, size=(37, k))
            pair = (obtained, reference)
            assert repr(generational_distance(*pair)) == repr(looped_gd(obtained, reference))


class TestSpread:
    def test_equal_gaps_and_matched_extremes(self):
        q = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        ref = np.array([[0.0, 3.0], [3.0, 0.0]])
        assert spread(q, ref) == 0.0

    def test_two_points_on_reference_extremes(self):
        q = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert spread(q, q.copy()) == 0.0

    def test_matches_step_by_step_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            obtained = rng.uniform(0, 1, size=(13, 2))
            reference = rng.uniform(0, 1, size=(9, 2))
            pair = (obtained, reference)
            assert spread(*pair) == pytest.approx(
                spread_oracle(obtained, reference), abs=1e-12
            )

    def test_single_point_rejected(self):
        with pytest.raises(UndefinedMetricError):
            spread([[0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("measure", [generational_distance, spread])
class TestFrontChecks:
    def test_empty_front_rejected(self, measure):
        for obtained, reference in (([], [[0.0, 1.0]]), ([[0.0, 1.0], [1.0, 0.0]], [])):
            with pytest.raises(ConfigError, match="^both fronts must be non-empty$"):
                measure(obtained, reference)

    def test_objective_counts_must_match(self, measure):
        with pytest.raises(ShapeError, match="^objective counts differ: 2 vs 3$"):
            measure([[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


class TestEmptyResults:
    def test_every_batch_measure_rejects_an_empty_list(self):
        for measure in (aov, convergence_speed):
            with pytest.raises(ConfigError):
                measure([])
        for measure in (success_rate, q_measure):
            with pytest.raises(ConfigError):
                measure([], 0.0)
