"""Reference summary statistics from a large-scale Computer Science
citation study, embedded as validation fixtures.

The ten citation buckets (A..J) summarise 114,203 papers: per-bucket
citation medians, exact-0/exact-1 max-distance counts, and diversity
category shares. Because the study's headline statistics are functions
of these summaries, replaying them exercises the full statistical kernel;
``run_reference_checks`` is the battery behind the ``tables-check``
command.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .corpus import AnalysisConfig
from .report import (
    BucketStats,
    category_delta_vs_baseline,
    homogeneity_comparisons,
    median_correlation,
)
from .stats import chi_square_homogeneity

CITATION_MEDIANS = (3, 6, 12, 17, 24, 34, 44, 64, 118, 226)

# paper counts as listed alongside the citation ranges
RANGE_TABLE_COUNTS = (37232, 27696, 12606, 7180, 7355, 3717, 2181, 3691, 6245, 6292)

ZERO_COUNTS = (1195, 578, 189, 96, 71, 32, 23, 28, 33, 25)
ONE_COUNTS = (14401, 10726, 4809, 2689, 2787, 1415, 820, 1398, 2406, 2351)
ONE_ZERO_RATIOS = (12.05, 18.56, 25.44, 28.01, 39.25, 44.22, 35.65, 49.93, 72.91, 94.04)

# category shares in percent (low, moderate, high, very_high) and the totals
# listed in the category table (which disagree slightly with the range table
# for B and H; the category counts are rebuilt from these totals)
CATEGORY_PERCENTAGES = (
    (64.84, 32.15, 2.79, 0.23),
    (61.69, 34.71, 3.25, 0.35),
    (60.06, 35.40, 4.14, 0.40),
    (58.23, 36.56, 4.75, 0.46),
    (57.92, 36.56, 4.88, 0.64),
    (56.60, 37.18, 5.62, 0.59),
    (56.44, 37.37, 5.64, 0.55),
    (54.67, 37.83, 6.52, 0.97),
    (52.49, 39.12, 7.21, 1.18),
    (51.16, 39.16, 7.99, 1.68),
)
CATEGORY_TABLE_TOTALS = (37232, 27700, 12606, 7180, 7355, 3717, 2181, 3695, 6245, 6292)

# headline association figures quoted by the study
HEADLINE_R = 0.955
HEADLINE_R_TOLERANCE = 0.005
HIGH_DELTA_J_VS_A = 5.21
HIGH_DELTA_TOLERANCE = 0.02

# the chi-square comparisons replayed, by the label analyze gives each, with its p limit
CHI_SQUARE_P_LIMITS = {"A vs B": 1e-4, "B vs C": 1e-4, "C vs D": 0.06, "A vs pooled B-J": 1e-4}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def reconstructed_category_counts() -> list[list[int]]:
    """Integer category counts recovered from the published shares and totals."""
    counts = []
    for shares, total in zip(CATEGORY_PERCENTAGES, CATEGORY_TABLE_TOTALS):
        counts.append([round(share / 100.0 * total) for share in shares])
    return counts


def reference_bucket_stats() -> list[BucketStats]:
    """BucketStats assembled from the embedded reference values."""
    config = AnalysisConfig()
    stats = []
    counts = reconstructed_category_counts()
    for bucket, median, zeros, ones, cat in zip(
        config.buckets, CITATION_MEDIANS, ZERO_COUNTS, ONE_COUNTS, counts
    ):
        stats.append(
            BucketStats(
                bucket=bucket,
                n_papers=sum(cat),
                citation_median=float(median),
                zeros=zeros,
                ones=ones,
                category_counts=tuple(cat),
            )
        )
    return stats


def run_reference_checks() -> list[CheckResult]:
    """Replay every reference-table-derived check; all should pass."""
    checks: list[CheckResult] = []
    stats = reference_bucket_stats()

    # 1. each published #1/#0 ratio reproduces to 2 decimals
    ratio_failures = []
    for s, expected in zip(stats, ONE_ZERO_RATIOS):
        ratio = s.one_zero_ratio
        if round(ratio, 2) != expected:
            ratio_failures.append(f"{s.label}: {ratio:.4f} != {expected}")
    checks.append(
        CheckResult(
            name="one-zero ratios",
            passed=not ratio_failures,
            detail="all 10 buckets to 2 decimals"
            if not ratio_failures
            else "; ".join(ratio_failures),
        )
    )

    # 2. headline correlation of ratio against citation median
    corr = median_correlation(stats, attrgetter("one_zero_ratio"))
    r_ok = abs(corr.r - HEADLINE_R) <= HEADLINE_R_TOLERANCE
    p_ok = corr.p_value < 1e-4
    checks.append(
        CheckResult(
            name="headline correlation",
            passed=r_ok and p_ok,
            detail=f"r = {corr.r:.4f} (expected {HEADLINE_R} +/- {HEADLINE_R_TOLERANCE}), "
            f"p = {corr.p_value:.3g} (expected < 1e-4)",
        )
    )

    # 3. high-diversity share delta, last bucket vs first
    deltas = category_delta_vs_baseline(stats, "A")
    delta_high = deltas["J"][2]
    delta_ok = abs(delta_high - HIGH_DELTA_J_VS_A) <= HIGH_DELTA_TOLERANCE
    checks.append(
        CheckResult(
            name="J vs A high-diversity delta",
            passed=delta_ok,
            detail=f"{delta_high:.4f} percentage points "
            f"(expected {HIGH_DELTA_J_VS_A} +/- {HIGH_DELTA_TOLERANCE})",
        )
    )

    # 4. chi-square replays of the comparisons analyze makes, on reconstructed counts
    adjacent, pooled = homogeneity_comparisons(stats)
    rows = {label: (row_a, row_b) for label, row_a, row_b in adjacent + pooled}
    for label, p_limit in CHI_SQUARE_P_LIMITS.items():
        result = chi_square_homogeneity(*rows[label])
        checks.append(
            CheckResult(
                name=f"chi-square {label}",
                passed=result.p_value < p_limit,
                detail=f"statistic = {result.statistic:.2f}, df = {result.df}, "
                f"p = {result.p_value:.3g} (expected < {p_limit})",
            )
        )
    return checks
