"""Statistical comparison machinery: Welch's unequal-variance t-test,
comparison rows of two lists of run results, and the midrank-based variant
ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError
from .metrics import _finals


class DegenerateSampleError(ValueError):
    """Both samples are constant with different means: no variance to test against."""


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: float


def welch_t(sample_a, sample_b) -> TTestResult:
    """Welch's two-sided unequal-variance t-test.

    Handles one-sided degeneracy (a constant sample) through the ordinary
    Welch formula; two constant samples yield t=0, p=1 when the means agree
    and DegenerateSampleError when they do not.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ConfigError("each sample needs at least 2 observations")
    va = float(a.var(ddof=1))
    vb = float(b.var(ddof=1))
    ma = float(a.mean())
    mb = float(b.mean())
    if va == 0.0 and vb == 0.0:
        if ma == mb:
            return TTestResult(0.0, 1.0, float(a.size + b.size - 2))
        raise DegenerateSampleError("both samples are constant with unequal means")
    qa = va / a.size
    qb = vb / b.size
    se = np.sqrt(qa + qb)
    t = (ma - mb) / se
    if not 2.0 ** -500 <= qa + qb <= 2.0 ** 500:
        # squaring would underflow or overflow: scale by a power of two,
        # which moves df by at most its last bit
        e = math.frexp(qa + qb)[1]
        qa, qb = math.ldexp(qa, -e), math.ldexp(qb, -e)
    df = (qa + qb) ** 2 / (qa ** 2 / (a.size - 1) + qb ** 2 / (b.size - 1))
    from scipy.special import stdtr        # loaded on first use: import aded stays light

    p = 2.0 * float(stdtr(df, -abs(t)))        # the t survival function at |t|
    return TTestResult(float(t), min(p, 1.0), float(df))


def significance_stars(p: float) -> str:
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    return ""


@dataclass(frozen=True)
class ComparisonRow:
    """One benchmark's A-vs-B summary: means and spreads of the final best
    fitness, the mean objective evaluations each arm spent, and the Welch
    test."""

    benchmark: str
    label_a: str
    label_b: str
    mean_a: float
    sd_a: float
    mean_b: float
    sd_b: float
    evals_a: float
    evals_b: float
    t: float
    p: float
    df: float

    @property
    def stars(self) -> str:
        return significance_stars(self.p)


def compare_batches(benchmark: str, results_a, results_b,
                    label_a: str = "aded", label_b: str = "classic_de") -> ComparisonRow:
    """Welch comparison of final best fitness between two lists of run
    results on ``benchmark``."""
    fa = _finals(results_a)
    fb = _finals(results_b)
    result = welch_t(fa, fb)
    return ComparisonRow(
        benchmark=benchmark,
        label_a=label_a,
        label_b=label_b,
        mean_a=float(fa.mean()),
        sd_a=float(fa.std(ddof=1)),
        mean_b=float(fb.mean()),
        sd_b=float(fb.std(ddof=1)),
        evals_a=float(np.mean([r.n_evaluations for r in results_a])),
        evals_b=float(np.mean([r.n_evaluations for r in results_b])),
        t=result.t,
        p=result.p,
        df=result.df,
    )


@dataclass(frozen=True)
class VariantScore:
    """Per-variant tournament metrics with midrank-based column ranks."""

    variant: str
    aov: float
    cs: float
    q: float
    aov_rank: float
    cs_rank: float
    q_rank: float
    average_rank: float


def _midranks(values) -> np.ndarray:
    """Ascending ranks starting at 1; tied values share the mean of their positions."""
    # a stable sort (asking for the indices picks it) and no tie among NaNs
    # rank NaNs last, each on its own, in input order
    _, _, inverse, counts = np.unique(np.asarray(values, dtype=float), return_index=True,
                                      return_inverse=True, return_counts=True, equal_nan=False)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def rank_variants(scores) -> list:
    """Rank variants per column (lower is better) and sort by average rank.

    ``scores`` is a sequence of (variant, aov, cs, q) tuples; ties receive
    midranks within each column.
    """
    rows = [(str(v), float(a), float(c), float(q)) for v, a, c, q in scores]
    if len(rows) < 2:
        raise ConfigError("ranking needs at least 2 variants")
    aov_ranks = _midranks([r[1] for r in rows])
    cs_ranks = _midranks([r[2] for r in rows])
    q_ranks = _midranks([r[3] for r in rows])
    ranked = [
        VariantScore(
            variant=rows[i][0],
            aov=rows[i][1],
            cs=rows[i][2],
            q=rows[i][3],
            aov_rank=float(aov_ranks[i]),
            cs_rank=float(cs_ranks[i]),
            q_rank=float(q_ranks[i]),
            average_rank=float((aov_ranks[i] + cs_ranks[i] + q_ranks[i]) / 3.0),
        )
        for i in range(len(rows))
    ]
    return sorted(ranked, key=lambda s: (s.average_rank, s.variant))
