"""Statistical kernel: medians, Pearson r, chi-square tests.

The Student-t tail is the regularized incomplete beta I_x(df/2, 1/2),
summed as a power series of positive terms; the chi-square tail, whose df
is always an integer, is a finite sum. So the package needs no external
statistics dependency. The test suite checks the results against published
distribution tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

SIGNIFICANCE_LEVEL = 0.05


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
    if t2 == math.inf:
        return 0.0
    # The tail is I_x(a, 1/2) with a = df/2 and x = df/(df + t^2). y = 1 - x is
    # formed on its own, so a small t is not lost to the rounding of x. Below
    # the split (a + 1)/(a + 2.5) the series for I_x(a, 1/2) converges; above
    # it, the series for 1 - I_x(a, 1/2) = I_y(1/2, a) does.
    x = df / (df + t2)
    y = t2 / (df + t2)
    if y == 0.0:
        return 1.0
    a = df / 2.0
    if x < (a + 1.0) / (a + 2.5):
        return _beta_series(a, 0.5, x, y)
    return 1.0 - _beta_series(0.5, a, y, x)


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


def _beta_series(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b) for 0 < x < 1 and y = 1 - x, by A&S 26.5.4.

    I_x(a, b) = x^a y^b / (a B(a, b)) * sum over i of the positive terms
    prod_{j<i} (a + b + j) / (a + 1 + j) * x. The caller keeps each term
    ratio below 1, so the sum stops once a term is under 1e-17 of the total.
    """
    total = term = 1.0
    j = 0
    while term > 1e-17 * total:
        term *= (a + b + j) / (a + 1.0 + j) * x
        total += term
        j += 1
    log_front = (
        a * math.log(x)
        + b * math.log(y)
        + math.lgamma(a + b)
        - math.lgamma(a + 1.0)
        - math.lgamma(b)
    )
    return math.exp(log_front) * total
