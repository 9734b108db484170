"""Statistical kernel: medians, Pearson r, chi-square tests.

The Student-t tail comes from the regularized incomplete beta function,
evaluated with a Lentz-style continued fraction; the chi-square tail, whose
df is always an integer, is a finite sum. So the package needs no external
statistics dependency. The test suite checks the results against published
distribution tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

SIGNIFICANCE_LEVEL = 0.05

_CF_MAX_ITER = 300
_CF_EPS = 3e-15
_CF_TINY = 1e-300


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < SIGNIFICANCE_LEVEL


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float

    @property
    def significant(self) -> bool:
        return self.p_value < SIGNIFICANCE_LEVEL


def median(values: Sequence[float]) -> float:
    """Median of a nonempty sequence; even counts average the middle two."""
    if not values:
        raise ValueError("median of empty sequence is undefined")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Sample Pearson correlation with a two-sided p-value.

    The p-value uses t = r * sqrt(n-2) / sqrt(1-r^2) against the Student-t
    distribution with n-2 degrees of freedom.
    """
    if len(x) != len(y):
        raise ValueError(f"series lengths differ: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 points, got {n}")
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    sxx = sum((v - mean_x) ** 2 for v in x)
    syy = sum((v - mean_y) ** 2 for v in y)
    if sxx == 0:
        raise ValueError("x series has zero variance")
    if syy == 0:
        raise ValueError("y series has zero variance")
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    df = n - 2
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * math.sqrt(df / (1.0 - r * r))
        p = student_t_two_sided_p(t, df)
    return CorrelationResult(r=r, p_value=p)


def chi_square_homogeneity(
    counts_a: Sequence[int], counts_b: Sequence[int]
) -> ChiSquareResult:
    """Chi-square test that two count vectors share one category distribution.

    Categories whose column total is zero are dropped before computing the
    statistic; df is the number of kept categories minus one. No continuity
    correction is applied.
    """
    if len(counts_a) != len(counts_b):
        raise ValueError(f"count vectors differ in length: {len(counts_a)} vs {len(counts_b)}")
    if any(c < 0 for c in counts_a) or any(c < 0 for c in counts_b):
        raise ValueError("counts must be nonnegative")
    total_a = sum(counts_a)
    total_b = sum(counts_b)
    if total_a == 0 or total_b == 0:
        raise ValueError("each row must have a positive total")
    kept = [(a, b) for a, b in zip(counts_a, counts_b) if a + b > 0]
    if len(kept) < 2:
        raise ValueError("need at least 2 categories with observations")
    grand = total_a + total_b
    statistic = 0.0
    for a, b in kept:
        col = a + b
        exp_a = total_a * col / grand
        exp_b = total_b * col / grand
        statistic += (a - exp_a) ** 2 / exp_a
        statistic += (b - exp_b) ** 2 / exp_b
    df = len(kept) - 1
    return ChiSquareResult(statistic=statistic, df=df, p_value=chi_square_survival(statistic, df))


def pool_counts(rows: Sequence[Sequence[int]]) -> list[int]:
    """Elementwise sum of a nonempty list of equal-length count vectors."""
    if not rows:
        raise ValueError("cannot pool an empty list of rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("rows differ in length")
    return [sum(col) for col in zip(*rows)]


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for a Student-t variate with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    t2 = t * t
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t2))


def chi_square_survival(statistic: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if statistic < 0:
        raise ValueError("statistic must be nonnegative")
    if statistic == 0:
        return 1.0
    if statistic == math.inf:
        return 0.0
    # For integer df the tail Q(df/2, y), y = statistic/2, is a finite sum of
    # positive terms y^s e^-y / Gamma(s + 1) over s = df/2 - 1, ... down to 0
    # (even df) or 1/2 (odd df, plus erfc(sqrt(y))). Each term is formed in
    # log space, since e^-y alone underflows for y > 745.
    y = statistic / 2.0
    log_y = math.log(y)
    total = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    s = df / 2.0 - 1.0
    while s >= 0:
        total += math.exp(s * log_y - y - math.lgamma(s + 1.0))
        s -= 1.0
    return total


# The incomplete beta below evaluates its continued fraction for I_x(a, b)
# or for 1 - I_(1-x)(b, a), whichever side of the mean converges quickly.

def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge for a={a} b={b} x={x}")
