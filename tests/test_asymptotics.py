from fractions import Fraction

import pytest

from demazure_sl2 import (
    CONJECTURED_DEGREE_VARIANCE,
    A,
    HighestWeight,
    PolynomialFit,
    WeylWord,
    conjecture_check,
    degree_mean_limit,
    finite_weight_functional,
    fit_polynomial,
    rescaled_summary,
    variance,
    weight_distribution,
    wlln_series,
)
from demazure_sl2.asymptotics import FitMismatchError

L0 = HighestWeight.fundamental(0)


def test_rescaled_summary_n6():
    s = rescaled_summary(L0, WeylWord(6, 0))
    assert s.N == 6 and s.level == 1
    assert s.max_degree == 9
    assert s.max_abs_finite_weight == 6
    assert s.mean_degree_scaled == Fraction(21, 4) / 9 == Fraction(7, 12)
    assert s.var_degree_scaled == Fraction(85, 16) / 81
    assert s.mean_finweight_scaled == 0
    assert s.var_finweight_scaled == Fraction(6, 36)


def test_rescaled_support_is_in_unit_box():
    for N in (3, 5, 8):
        mu = weight_distribution(L0, WeylWord(N, 0))
        s = rescaled_summary(L0, WeylWord(N, 0))
        for (a, b), _ in mu.items():
            assert 0 <= Fraction(a, s.max_degree) <= 1
            assert abs(Fraction(finite_weight_functional(L0).evaluate((a, b)), s.max_abs_finite_weight)) <= 1


def test_rescaled_summary_degenerate_axis():
    # mismatched first letter of length 1 leaves the point mass alone;
    # both scales degenerate to 1 and every statistic is exactly 0
    s = rescaled_summary(L0, WeylWord(1, 1))
    assert s.max_degree == 0 and s.max_abs_finite_weight == 0
    assert s.mean_degree_scaled == 0 and s.var_degree_scaled == 0
    assert s.mean_finweight_scaled == 0 and s.var_finweight_scaled == 0
    with pytest.raises(ValueError):
        rescaled_summary(L0, WeylWord(0, 0))


def test_wlln_series_snapshots_match_single_runs():
    series = wlln_series(L0, [2, 4, 6])
    for s in series:
        assert s == rescaled_summary(L0, WeylWord(s.N, 0))
    assert [s.N for s in series] == [2, 4, 6]
    for hw, first in ((HighestWeight(2, 1), 1), (HighestWeight(0, 3), 0)):
        series = wlln_series(hw, [1, 2, 5], first)
        assert [s.N for s in series] == [1, 2, 5]
        for s in series:
            assert s == rescaled_summary(hw, WeylWord(s.N, first))


def test_wlln_series_validation():
    with pytest.raises(ValueError):
        wlln_series(L0, [])
    with pytest.raises(ValueError):
        wlln_series(L0, [4, 2])
    with pytest.raises(ValueError):
        wlln_series(L0, [2, 2])
    with pytest.raises(ValueError):
        wlln_series(L0, [0, 2])
    for ns in ([True], [1.0, 2], [1, 2.0]):
        with pytest.raises(ValueError, match="^word lengths must be positive integers$"):
            wlln_series(L0, ns)


def test_wlln_level1_exact_means():
    for s in wlln_series(L0, [10, 20, 30]):
        assert s.max_degree == s.N * s.N // 4
        assert s.mean_degree_scaled == Fraction(1, 2) + Fraction(1, 2 * s.N)
        assert s.mean_finweight_scaled == 0
        assert abs(s.var_degree_scaled * s.N - Fraction(1, 3)) < Fraction(1, s.N)


def test_degree_mean_limit():
    assert degree_mean_limit(1) == Fraction(1, 2)
    assert degree_mean_limit(2) == Fraction(4, 9)
    with pytest.raises(ValueError):
        degree_mean_limit(0)
    for level in (True, 1.0):
        with pytest.raises(ValueError, match="^level must be positive$"):
            degree_mean_limit(level)


def test_fit_polynomial_recovers_cubic():
    poly = PolynomialFit((Fraction(1), Fraction(-2), Fraction(0), Fraction(1, 3)))
    pts = [(n, poly.evaluate(n)) for n in (1, 2, 5, 7)]
    fit = fit_polynomial(pts)
    assert fit.coefficients == poly.coefficients
    assert fit.degree == 3
    for n, y in pts:
        assert fit.evaluate(n) == y


def test_fit_polynomial_validation():
    with pytest.raises(ValueError):
        fit_polynomial([])
    with pytest.raises(ValueError):
        fit_polynomial([(1, Fraction(1)), (1, Fraction(2))])
    # quadratic through three points
    fit = fit_polynomial([(0, Fraction(1)), (1, Fraction(2)), (2, Fraction(5))])
    assert fit.coefficients == (Fraction(1), Fraction(0), Fraction(1))


def test_conjectured_table_values_at_small_n():
    # hand-computed degree variances of the length-2 distributions
    for m, var2 in ((2, Fraction(38, 81)), (3, Fraction(55, 64)), (4, Fraction(34, 25))):
        poly = PolynomialFit(CONJECTURED_DEGREE_VARIANCE[m])
        assert poly.evaluate(2) == var2


def test_conjecture_check_levels_2_to_4():
    for m in (2, 3, 4):
        report = conjecture_check(m, [2, 4, 6, 8, 10])
        assert report.level == m
        assert report.table_match
        assert report.max_degree_match
        assert report.held_out == (10,)
        assert report.fit.coefficients == CONJECTURED_DEGREE_VARIANCE[m]
        for row in report.rows:
            assert row.max_degree == m * row.N * row.N // 4


def test_conjecture_rows_match_single_word_distributions():
    # each row against its own distribution, computed from the word alone
    for m in (2, 3, 4):
        report = conjecture_check(m, [2, 4, 6, 8, 10])
        assert [row.N for row in report.rows] == [2, 4, 6, 8, 10]
        for row in report.rows:
            mu = weight_distribution(HighestWeight(m, 0), WeylWord(row.N, 0))
            assert row.variance == variance(mu, A)
            assert row.max_degree == mu.degree_range()[1] - 1


def test_conjecture_check_is_order_insensitive():
    a = conjecture_check(2, [2, 4, 6, 8, 10])
    b = conjecture_check(2, [10, 2, 8, 4, 6])
    assert a == b


def test_conjecture_check_validation():
    with pytest.raises(ValueError):
        conjecture_check(1, [2, 4, 6, 8, 10])
    with pytest.raises(ValueError):
        conjecture_check(5, [2, 4, 6, 8, 10])
    with pytest.raises(ValueError):
        conjecture_check(2, [2, 4, 6, 8])
    with pytest.raises(ValueError):
        conjecture_check(2, [2, 3, 4, 6, 8])
    with pytest.raises(ValueError):
        conjecture_check(2, [0, 2, 4, 6, 8])
    # 2.0 == 2 finds the table entry, and True == 1 is a level; neither is an int level
    for m in (2.0, True):
        with pytest.raises(ValueError, match="^level must be 2, 3, or 4$"):
            conjecture_check(m, [2, 4, 6, 8, 10])
    for ns in ([2.0, 4, 6, 8, 10], [2, 4, 6, 8, 10.0]):
        with pytest.raises(ValueError, match="^sample lengths must be even and at least 2$"):
            conjecture_check(2, ns)


def test_fit_mismatch_error_carries_witnesses():
    err = FitMismatchError("not cubic on sampled range", [(12, Fraction(1), Fraction(2))])
    assert err.witnesses == [(12, Fraction(1), Fraction(2))]
    assert isinstance(err, ValueError)
