import math
import os
from pathlib import Path

import numpy as np
import pytest

from aded import ConfigError, DegenerateSampleError, compare_batches, rank_variants, welch_t
from aded.stats import _midranks, significance_stars

SRC = Path(__file__).resolve().parents[1] / "src"


# ---------------------------------------------------------------------------
# Independent t-distribution oracle: regularized incomplete beta via the
# Lentz continued fraction, written before looking at the implementation path.
# ---------------------------------------------------------------------------

def _betacf(a, b, x):
    MAXIT, EPS, FPMIN = 200, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < FPMIN:
            d = FPMIN
        c = 1.0 + aa / c
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < EPS:
            break
    return h


def _betainc(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def two_sided_p_oracle(t, df):
    x = df / (df + t * t)
    return _betainc(df / 2.0, 0.5, x)


def welch_oracle(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    qa = a.var(ddof=1) / a.size
    qb = b.var(ddof=1) / b.size
    t = (a.mean() - b.mean()) / math.sqrt(qa + qb)
    df = (qa + qb) ** 2 / (qa ** 2 / (a.size - 1) + qb ** 2 / (b.size - 1))
    return t, df


class TestWelchT:
    def test_identical_samples(self):
        result = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t == 0.0
        assert result.p == 1.0

    def test_both_constant_equal_means(self):
        result = welch_t([2.0, 2.0], [2.0, 2.0])
        assert (result.t, result.p) == (0.0, 1.0)

    def test_both_constant_unequal_means(self):
        with pytest.raises(DegenerateSampleError):
            welch_t([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])

    def test_one_constant_sample_falls_back_to_other_variance(self):
        result = welch_t([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        # standard error reduces to sd_b / sqrt(n_b); df to n_b - 1
        assert result.t == pytest.approx(-2.0 / (1.0 / np.sqrt(3.0)))
        assert result.df == pytest.approx(2.0)

    def test_textbook_case_matches_oracle(self):
        a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6]
        b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1]
        result = welch_t(a, b)
        t_ref, df_ref = welch_oracle(a, b)
        assert result.t == pytest.approx(t_ref, abs=1e-9)
        assert result.df == pytest.approx(df_ref, abs=1e-9)
        assert result.p == pytest.approx(two_sided_p_oracle(abs(t_ref), df_ref), abs=1e-6)

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = rng.normal(0.0, 1.0, size=rng.integers(3, 20))
            b = rng.normal(0.3, 2.0, size=rng.integers(3, 20))
            result = welch_t(a, b)
            t_ref, df_ref = welch_oracle(a, b)
            assert result.t == pytest.approx(t_ref, abs=1e-9)
            assert result.p == pytest.approx(two_sided_p_oracle(abs(t_ref), df_ref), abs=1e-6)

    def test_p_equals_scipy_t_survival_exactly(self):
        from scipy.stats import t as t_dist

        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.normal(0.0, 1.0, size=rng.integers(2, 30))
            b = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=rng.integers(2, 30))
            result = welch_t(a, b)
            assert result.p == min(2.0 * float(t_dist.sf(abs(result.t), result.df)), 1.0)

    def test_import_leaves_scipy_stats_out(self):
        import subprocess
        import sys

        code = "import sys, aded; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.strip() == "False"

    def test_scipy_loaded_on_first_welch_test_only(self):
        import subprocess
        import sys

        code = ("import sys, aded, aded.cli\n"
                "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
                "aded.welch_t([1.0, 2.0], [1.0, 3.0])\n"
                "print('scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.stdout.split() == ["False", "True"]

    def test_antisymmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=10)
        b = rng.normal(1.0, 1.5, size=8)
        fwd = welch_t(a, b)
        rev = welch_t(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)
        assert fwd.df == pytest.approx(rev.df, abs=1e-12)

    def test_p_decreases_with_t_magnitude(self):
        from scipy.stats import t as t_dist

        ps = [2 * t_dist.sf(t, 10.0) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(ps, ps[1:]))

    @pytest.mark.parametrize("k", [-400, -300, 300, 400])
    def test_scaling_both_samples_by_a_power_of_two_moves_at_most_the_last_bit_of_df(self, k):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a = rng.normal(0.0, 1.0, size=rng.integers(2, 30))
            b = rng.normal(rng.normal(), rng.uniform(0.1, 3.0), size=rng.integers(2, 30))
            scaled, plain = welch_t(np.ldexp(a, k), np.ldexp(b, k)), welch_t(a, b)
            assert scaled.t == plain.t
            # the C library's pow(x, 2) is not always correctly rounded, so a
            # power-of-two scale can move df by one unit in the last place
            assert abs(scaled.df - plain.df) <= math.ulp(plain.df)
            assert scaled.p == pytest.approx(plain.p, rel=1e-14)

    @pytest.mark.parametrize("spike", [1e-100, 1e100])
    def test_tiny_or_huge_variance_gives_a_finite_test(self, spike):
        result = welch_t([0.0] * 9 + [spike], [0.0] * 10)
        assert np.isfinite([result.t, result.p, result.df]).all()
        assert result.df == pytest.approx(9.0)

    def test_tiny_samples_rejected(self):
        with pytest.raises(ConfigError):
            welch_t([1.0], [1.0, 2.0])


class TestSignificanceStars:
    def test_thresholds(self):
        assert significance_stars(0.001) == "***"
        assert significance_stars(0.03) == "**"
        assert significance_stars(0.2) == ""


class FakeRun:
    def __init__(self, best_f):
        self.best_f = best_f
        self.n_evaluations = 100


def batch(finals):
    return [FakeRun(f) for f in finals]


class TestCompareBatches:
    def test_identical_batches_give_zero_t(self):
        row = compare_batches("rastrigin", batch([1.0, 2.0, 3.0]), batch([1.0, 2.0, 3.0]))
        assert row.t == 0.0
        assert row.p == 1.0

    def test_constant_adaptive_column(self):
        # zero-variance "winner" column against a spread baseline
        row = compare_batches("rastrigin", batch([0.0, 0.0, 0.0, 0.0]),
                              batch([8.0, 10.0, 6.0, 9.0]))
        assert row.mean_a == 0.0
        assert row.sd_a == 0.0
        assert row.t < 0
        assert row.p < 0.05

    def test_hand_computed_row(self):
        a = [1.0, 2.0, 3.0]
        b = [2.0, 4.0, 6.0]
        row = compare_batches("rastrigin", batch(a), batch(b), "x", "y")
        assert (row.benchmark, row.label_a, row.label_b) == ("rastrigin", "x", "y")
        assert row.mean_a == 2.0
        assert row.mean_b == 4.0
        assert row.sd_a == pytest.approx(1.0)
        assert row.sd_b == pytest.approx(2.0)
        t_ref, _ = welch_oracle(a, b)
        assert row.t == pytest.approx(t_ref)


class TestRankVariants:
    def test_known_column_ranks_average(self):
        # engineer one variant into column ranks (3, 11, 2): average 5.333...
        n = 14
        scores = []
        for i in range(n):
            scores.append((f"v{i:02d}", float(i), float(i), float(i)))
        # variant "x" gets aov between v01/v02 (rank 3), cs above v09 (rank 11),
        # q between v00/v01 (rank 2)
        scores = [(v, a + 10, c + 10, q + 10) for v, a, c, q in scores[: n - 1]]
        scores.append(("x", 11.5, 19.5, 10.5))
        ranked = {s.variant: s for s in rank_variants(scores)}
        assert ranked["x"].aov_rank == 3.0
        assert ranked["x"].cs_rank == 11.0
        assert ranked["x"].q_rank == 2.0
        assert ranked["x"].average_rank == pytest.approx(16.0 / 3.0)
        assert f"{ranked['x'].average_rank:.6f}" == "5.333333"

    def test_dominant_variant_rank_one(self):
        scores = [("best", 0.0, 0.0, 0.0), ("mid", 1.0, 1.0, 1.0), ("worst", 2.0, 2.0, 2.0)]
        ranked = rank_variants(scores)
        assert ranked[0].variant == "best"
        assert ranked[0].average_rank == 1.0

    def test_two_way_tie_gets_midrank(self):
        scores = [("a", 1.0, 1.0, 5.0), ("b", 1.0, 2.0, 6.0), ("c", 3.0, 3.0, 7.0)]
        ranked = {s.variant: s for s in rank_variants(scores)}
        assert ranked["a"].aov_rank == 1.5
        assert ranked["b"].aov_rank == 1.5
        assert ranked["c"].aov_rank == 3.0

    def test_ranks_sum_to_triangular_number(self):
        rng = np.random.default_rng(2)
        scores = [(f"v{i}", *rng.normal(size=3)) for i in range(14)]
        ranked = rank_variants(scores)
        n = len(ranked)
        expected = n * (n + 1) / 2
        assert sum(s.aov_rank for s in ranked) == pytest.approx(expected)
        assert sum(s.cs_rank for s in ranked) == pytest.approx(expected)
        assert sum(s.q_rank for s in ranked) == pytest.approx(expected)

    def test_infinite_q_ranks_last(self):
        scores = [("ok", 0.0, 0.0, 100.0), ("fail", 1.0, 1.0, float("inf")),
                  ("alsofail", 2.0, 2.0, float("inf"))]
        ranked = {s.variant: s for s in rank_variants(scores)}
        assert ranked["ok"].q_rank == 1.0
        assert ranked["fail"].q_rank == 2.5
        assert ranked["alsofail"].q_rank == 2.5

    def test_output_sorted_by_average_rank(self):
        rng = np.random.default_rng(3)
        scores = [(f"v{i}", *rng.normal(size=3)) for i in range(10)]
        ranked = rank_variants(scores)
        averages = [s.average_rank for s in ranked]
        assert averages == sorted(averages)

    def test_single_variant_rejected(self):
        with pytest.raises(ConfigError):
            rank_variants([("only", 1.0, 1.0, 1.0)])


class TestMidranks:
    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 3.0, 3.0, 2.0],
        [np.inf, -np.inf, 0.0, np.inf, -np.inf, 0.0, 0.0],
        [5.0, 5.0, 5.0, 5.0],
        [-0.0, 0.0, 1e300, -np.inf, 1e300],
        *np.random.default_rng(4).choice([-np.inf, -1.0, 0.0, 2.0, np.inf], (20, 9)).tolist(),
    ])
    def test_rank_is_one_plus_lower_plus_half_the_other_ties(self, values):
        v = np.array(values)
        expected = [1 + np.sum(v < x) + (np.sum(v == x) - 1) / 2 for x in v]
        assert _midranks(values).tolist() == expected

    def test_nans_rank_last_each_on_its_own_in_input_order(self):
        nan = float("nan")
        assert _midranks([nan, 2.0, nan, 1.0, 2.0]).tolist() == [4.0, 2.5, 5.0, 1.0, 2.5]
