import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy.stats import chi2, t as student_t

from teamdiv.corpus import AnalysisConfig
from teamdiv.report import BucketStats
from teamdiv.stats import (
    chi_square_homogeneity,
    chi_square_survival,
    median,
    pearson,
    pool_counts,
    student_t_two_sided_p,
)

# --- median ---


def test_median_single():
    assert median([3]) == 3


def test_median_odd():
    assert median([4, 2, 3]) == 3


def test_median_even_interpolated():
    assert median([2, 4]) == 3


def test_median_empty_rejected():
    with pytest.raises(ValueError):
        median([])


# --- #1/#0 ratio ---


def _bucket_ratio(zeros, ones, interior=0):
    # BucketStats.one_zero_ratio is the one #1/#0 ratio; only its counts matter
    stats = BucketStats(
        bucket=AnalysisConfig().buckets[0],
        n_papers=zeros + ones + interior,
        citation_median=3.0,
        zeros=zeros,
        ones=ones,
        category_counts=(zeros + ones + interior, 0, 0, 0),
    )
    return stats.one_zero_ratio


def test_one_zero_reference_row():
    assert round(_bucket_ratio(zeros=1195, ones=14401, interior=100), 2) == 12.05


def test_one_zero_ratio_undefined():
    assert _bucket_ratio(zeros=0, ones=0, interior=2) is None


def test_one_zero_simple_ratio():
    assert _bucket_ratio(zeros=1, ones=3) == 3.0


# --- pearson ---

TABLE1_MEDIANS = [3, 6, 12, 17, 24, 34, 44, 64, 118, 226]
TABLE2_RATIOS = [12.05, 18.56, 25.44, 28.01, 39.25, 44.22, 35.65, 49.93, 72.91, 94.04]


def test_pearson_reference_headline():
    result = pearson(TABLE1_MEDIANS, TABLE2_RATIOS)
    assert result.r == pytest.approx(0.955, abs=0.005)
    assert result.p_value < 1e-4
    assert result.significant


def test_pearson_perfect_line():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    result = pearson(x, [2 * v + 1 for v in x])
    assert result.r == 1.0
    assert result.p_value == 0.0


def test_pearson_p_value_checkpoint():
    # r = 0.8 at n = 10 gives t ~ 3.77 and two-sided p ~ 0.0055;
    # mix a zero-mean signal with an orthogonal residual at the exact ratio
    x = list(range(10))
    mean_x = sum(x) / 10
    dx = [v - mean_x for v in x]
    # symmetric zero-mean residual: orthogonal to the antisymmetric dx
    resid = [1.0, -1.0, 1.0, -1.0, 0.0, 0.0, -1.0, 1.0, -1.0, 1.0]
    assert sum(resid) == 0.0
    assert sum(a * b for a, b in zip(dx, resid)) == 0.0
    sxx = sum(v * v for v in dx)
    srr = sum(v * v for v in resid)
    lam = math.sqrt((1 / 0.8**2 - 1) * sxx / srr)
    y = [a + lam * b for a, b in zip(dx, resid)]
    result = pearson(x, y)
    assert result.r == pytest.approx(0.8, abs=1e-12)
    assert result.p_value == pytest.approx(0.0055, abs=0.0005)


def test_pearson_symmetry():
    assert pearson(TABLE1_MEDIANS, TABLE2_RATIOS).r == pearson(TABLE2_RATIOS, TABLE1_MEDIANS).r


def test_pearson_sign_flip():
    x = [1.0, 2.0, 4.0, 8.0]
    result = pearson(x, [-3 * v + 2 for v in x])
    assert result.r == -1.0


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-50, max_value=50),
)
def test_pearson_affine_invariance(scale, shift):
    x = TABLE1_MEDIANS
    y = TABLE2_RATIOS
    base = pearson(x, y)
    mapped = pearson([scale * v + shift for v in x], y)
    assert mapped.r == pytest.approx(base.r, abs=1e-9)
    assert mapped.p_value == pytest.approx(base.p_value, abs=1e-9)


def test_pearson_input_validation():
    with pytest.raises(ValueError, match="need at least 3 points, got 2"):
        pearson([1, 2], [1, 2])
    with pytest.raises(ValueError, match="series lengths differ: 3 vs 2"):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(ValueError, match="x series has zero variance"):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="y series has zero variance"):
        pearson([1, 2, 3], [5, 5, 5])


# --- chi-square ---


def test_chi_square_identical_rows():
    result = chi_square_homogeneity([10, 20, 30], [10, 20, 30])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.significant


def test_chi_square_drops_zero_columns():
    result = chi_square_homogeneity([5, 0, 10], [7, 0, 12])
    assert result.df == 1


def test_chi_square_two_by_two_closed_form():
    rng = random.Random(9)
    for _ in range(100):
        a, b, c, d = (rng.randint(1, 200) for _ in range(4))
        result = chi_square_homogeneity([a, b], [c, d])
        n = a + b + c + d
        closed = (a * d - b * c) ** 2 * n / ((a + b) * (c + d) * (a + c) * (b + d))
        assert result.statistic == pytest.approx(closed, abs=1e-9)


def test_chi_square_row_swap_invariance():
    first = chi_square_homogeneity([12, 7, 30], [8, 19, 25])
    second = chi_square_homogeneity([8, 19, 25], [12, 7, 30])
    assert first.statistic == pytest.approx(second.statistic, abs=1e-12)


def test_chi_square_input_validation():
    with pytest.raises(ValueError):
        chi_square_homogeneity([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        chi_square_homogeneity([0, 0], [1, 2])
    with pytest.raises(ValueError):
        chi_square_homogeneity([5, 0], [7, 0])


# --- pool_counts ---


def test_pool_counts_elementwise():
    assert pool_counts([[1, 2], [3, 4]]) == [4, 6]


def test_pool_counts_empty_needs_arity():
    # with no rows there is no arity to pool over, so an empty list is rejected
    with pytest.raises(ValueError):
        pool_counts([])


def test_pool_counts_rejects_ragged_rows():
    with pytest.raises(ValueError, match="differ in length"):
        pool_counts([[1, 2], [3]])


def test_pool_counts_matches_columnwise_recompute():
    rows = [[i * j for j in range(5)] for i in range(9)]
    pooled = pool_counts(rows)
    for j in range(5):
        assert pooled[j] == sum(row[j] for row in rows)


# --- tail probabilities against published tables ---

T_TABLE = [
    # (df, t, two-sided p)
    (1, 12.706, 0.05),
    (2, 4.303, 0.05),
    (5, 2.571, 0.05),
    (8, 1.860, 0.10),
    (10, 2.228, 0.05),
    (10, 3.169, 0.01),
    (20, 2.086, 0.05),
    (30, 2.750, 0.01),
]

CHI2_TABLE = [
    # (df, statistic, upper-tail p)
    (1, 3.841, 0.05),
    (2, 5.991, 0.05),
    (3, 7.815, 0.05),
    (4, 9.488, 0.05),
    (5, 11.070, 0.05),
    (10, 18.307, 0.05),
    (1, 6.635, 0.01),
    (6, 16.812, 0.01),
]


@pytest.mark.parametrize("df,t,expected", T_TABLE)
def test_student_t_table_checkpoints(df, t, expected):
    assert student_t_two_sided_p(t, df) == pytest.approx(expected, abs=0.001)


@pytest.mark.parametrize("df,x,expected", CHI2_TABLE)
def test_chi_square_table_checkpoints(df, x, expected):
    assert chi_square_survival(x, df) == pytest.approx(expected, abs=0.001)


def test_tail_probability_monotonicity():
    previous = 1.0
    for t in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0]:
        p = student_t_two_sided_p(t, 7)
        assert p <= previous
        previous = p
    previous = 1.0
    for x in [0.0, 1.0, 3.0, 7.0, 15.0, 40.0]:
        p = chi_square_survival(x, 4)
        assert p <= previous
        previous = p


def test_special_function_edges():
    for df in (1, 2, 3, 40):
        assert chi_square_survival(0.0, df) == 1.0
    # Q(1, x) = exp(-x)
    for x in [0.5, 1.0, 3.0, 10.0]:
        assert chi_square_survival(2 * x, 2) == pytest.approx(math.exp(-x), rel=1e-12)


# --- Student-t tail: the incomplete beta power series ---

_T_GRID = [10 ** (k / 40) for k in range(-160, 241)]


@pytest.mark.parametrize("df", range(1, 41))
def test_student_t_two_sided_p_matches_scipy(df):
    for t in _T_GRID:
        expected = 2 * student_t.sf(t, df)
        if expected >= 1e-300:
            assert student_t_two_sided_p(t, df) == pytest.approx(expected, rel=1e-12), t


def test_student_t_two_sided_p_closed_forms():
    for t in [1e-8, 0.3, 2.0]:
        for signed in (t, -t):
            assert student_t_two_sided_p(signed, 1) == pytest.approx(
                1 - 2 / math.pi * math.atan(t), rel=1e-13
            )
            assert student_t_two_sided_p(signed, 2) == pytest.approx(
                1 - t / math.sqrt(2 + t * t), rel=1e-13
            )
    # the true tail, which 1 - x loses once x = 1/(1 + t^2) rounds to 1
    assert student_t_two_sided_p(1e-8, 1) == pytest.approx(0.9999999936338023, rel=1e-12)
    # t^2 underflows to 0 below 1e-162 and overflows above 1.3e154
    for df in (1, 2, 3, 40):
        assert student_t_two_sided_p(0.0, df) == 1.0
        assert student_t_two_sided_p(1e-170, df) == 1.0
        assert student_t_two_sided_p(math.inf, df) == 0.0
        assert student_t_two_sided_p(-math.inf, df) == 0.0
        assert student_t_two_sided_p(1e200, df) == 0.0


def test_student_t_two_sided_p_large_df():
    for t in _T_GRID:
        expected = 2 * student_t.sf(t, 10_000)
        if expected >= 1e-300:
            assert student_t_two_sided_p(t, 10_000) == pytest.approx(expected, rel=1e-9), t


# --- chi-square tail: the finite sum for integer df ---

_CHI2_X_GRID = [0.001, 0.1, 0.5, 1.0, 2.0, 3.5, 6.0, 10.0, 17.0, 30.0, 55.0, 100.0,
                180.0, 320.0, 600.0, 1000.0, 1400.0]


@pytest.mark.parametrize("df", range(1, 41))
def test_chi_square_survival_matches_scipy(df):
    for x in _CHI2_X_GRID:
        expected = chi2.sf(x, df)
        if expected >= 1e-300:
            assert chi_square_survival(x, df) == pytest.approx(expected, rel=1e-12), x


def test_chi_square_survival_closed_forms():
    for x in [1e-6, 0.3, 1.0, 4.0, 25.0, 200.0, 1400.0]:
        assert chi_square_survival(x, 2) == math.exp(-x / 2)
        assert chi_square_survival(x, 1) == math.erfc(math.sqrt(x / 2))
    for df in (1, 2, 3, 40):
        assert chi_square_survival(math.inf, df) == 0.0


def test_chi_square_survival_beyond_the_exp_underflow():
    # exp(-800) alone is 0.0 in floating point; the tail itself is about 1e-268
    expected = chi2.sf(1600.0, 100)
    assert 1e-300 < expected < 1e-200
    assert chi_square_survival(1600.0, 100) == pytest.approx(expected, rel=1e-12)


def test_chi_square_survival_large_df():
    assert chi_square_survival(10_000.0, 10_000) == pytest.approx(
        chi2.sf(10_000.0, 10_000), rel=1e-10
    )
