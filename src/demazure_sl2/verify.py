"""Identity suites: every closed-form law the computed distributions obey.

Each suite walks the relevant word lengths and emits one CheckResult per
identity per length, comparing exact rationals (or whole mass tables) and
never tolerances.  Suites:

  sanderson   binomial marginal of the weight-difference coordinate and
              its first two moment laws
  palindrome  per-string mirror symmetry of level-1 distributions
  stretch     covariance of a coordinate with the squared difference, the
              two vanishing covariances behind it, and agreement of the
              direct moment-table route with the pushforward route, which
              aggregates the image on integer numerators
  recurrence  consecutive-length second-moment recurrences and the degree
              moment closed forms
  covariance  full degree/finite-weight covariance matrices for both
              fundamental weights against the parity-split closed form
  conjecture  levels 2-4: cubic interpolation of the degree variance,
              held-out confirmation, conjectured table and max degree

A SuiteContext caches the operator chains and moment tables so "all" pays
for each distribution once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb

from .asymptotics import CONJECTURED_DEGREE_VARIANCE, FitMismatchError, conjecture_check
from .closedform import palindromicity_check
from .demazure import WeightDistribution, WeylWord, apply_demazure, marginal
from .lattice import A, B, Functional, HighestWeight
from .moments import (
    CoordinateMap,
    CovarianceMatrix,
    MomentTable,
    pushforward_covariance,
    raw_moments,
    reference_formula,
)
from .serialize import format_rational


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    n: int
    lhs: str
    rhs: str
    passed: bool


def format_check(c: CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    return f"{status} {c.name} N={c.n} lhs={c.lhs} rhs={c.rhs}"


class SuiteContext:
    """Caches alternating-word chains and raw moment tables across suites."""

    def __init__(self) -> None:
        self._chains: dict[tuple[int, int, int], list[WeightDistribution]] = {}
        self._tables: dict[tuple[int, int, int, int, int], MomentTable] = {}

    def chain(self, hw: HighestWeight, first: int, max_N: int) -> list[WeightDistribution]:
        key = (hw.m, hw.n, first)
        cur = self._chains.setdefault(key, [WeightDistribution.delta(hw)])
        for j in islice(WeylWord(max_N, first).letters(), len(cur) - 1, None):
            cur.append(apply_demazure(j, cur[-1]))
        return cur

    def moments(self, hw: HighestWeight, first: int, N: int, degree: int) -> MomentTable:
        key = (hw.m, hw.n, first, N, degree)
        hit = self._tables.get(key)
        if hit is None:
            hit = raw_moments(self.chain(hw, first, N)[N], degree)
            self._tables[key] = hit
        return hit


_L0 = HighestWeight.fundamental(0)


def _scalar(suite: str, name: str, n: int, lhs: Fraction, rhs: Fraction) -> CheckResult:
    return CheckResult(suite, name, n, format_rational(lhs), format_rational(rhs), lhs == rhs)


def _expect(ctx: SuiteContext, N: int, f: Functional) -> Fraction:
    return ctx.moments(_L0, 0, N, 4).expect(f)


def _cov(ctx: SuiteContext, N: int, f: Functional, g: Functional) -> Fraction:
    return ctx.moments(_L0, 0, N, 4).cov(f, g)


def suite_sanderson(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Marginal of a - b is a binomial row; its moments obey N/4 laws."""
    out = []
    diff = A - B
    sq = diff * diff
    for N in range(1, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        got = marginal(mu, diff)
        want = {}
        half = N // 2
        for t in range(-half, N - half + 1):
            want[t] = comb(N, t + half)
        if got == want:
            tag = f"binomial-row({N})"
            out.append(CheckResult("sanderson", "binomial-marginal", N, tag, tag, True))
        else:
            for t in sorted(set(got) | set(want)):
                if got.get(t, 0) != want.get(t, 0):
                    break
            out.append(
                CheckResult(
                    "sanderson",
                    "binomial-marginal",
                    N,
                    f"{got.get(t, 0)} at t={t}",
                    f"{want.get(t, 0)} at t={t}",
                    False,
                )
            )
        out.append(_scalar("sanderson", "var-weight-diff", N, _cov(ctx, N, diff, diff), Fraction(N, 4)))
        rhs = Fraction(N, 4) if N % 2 else Fraction(0)
        out.append(_scalar("sanderson", "cov-sqdiff-diff", N, _cov(ctx, N, sq, diff), rhs))
    return out


def suite_palindrome(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Shifted mirror symmetry of every delta string, level 1."""
    out = []
    for N in range(1, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        res = palindromicity_check(mu, N)
        if res.ok:
            out.append(CheckResult("palindrome", "string-palindrome", N, "palindromic", "palindromic", True))
        else:
            p = res.witness
            out.append(
                CheckResult(
                    "palindrome",
                    "string-palindrome",
                    N,
                    f"mass{tuple(p)}={mu.mass(p)}",
                    "mirror mass",
                    False,
                )
            )
    return out


def suite_stretch(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Squared-difference covariances and the pushforward route agreement."""
    out = []
    diff = A - B
    sq = diff * diff
    half = Fraction(1, 2)
    for N in range(2, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        odd = N % 2 == 1
        coord = B if odd else A
        out.append(
            _scalar(
                "stretch",
                "stretch-cov",
                N,
                _cov(ctx, N, coord, sq),
                reference_formula("stretch_covariance", N),
            )
        )
        if odd:
            f = sq - diff - 2 * B
            g = sq - diff
        else:
            f = sq - 2 * A
            g = sq
        out.append(_scalar("stretch", "sym-cov-zero", N, _cov(ctx, N, f, g), Fraction(0)))
        if odd:
            x = diff - half
            y = B - Fraction(N * N - 2, 8)
        else:
            x = diff
            y = A - Fraction(N * N, 8)
        direct = _cov(ctx, N, x * x, y)
        pushed = pushforward_covariance(mu, CoordinateMap(x * x, y))
        out.append(_scalar("stretch", "pushforward-cov-route", N, direct, pushed))
    return out


def suite_recurrence(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Second-moment recurrences in N and the degree-moment closed forms."""
    out = []
    diff = A - B
    sq = diff * diff
    ctx.chain(_L0, 0, max_N + 1)
    for N in range(2, max_N + 1):
        odd = N % 2 == 1
        if odd:
            step = _expect(ctx, N + 1, A * A) - _expect(ctx, N, A * A) - 2 * _cov(ctx, N, B, sq)
            rhs = Fraction(N * (N * N + N + 2), 16)
            incr = _expect(ctx, N + 1, A * A) - _expect(ctx, N, A * A)
            incr_rhs = reference_formula("second_moment_increment_odd", N)
            cross = _expect(ctx, N + 1, A * A) - _expect(ctx, N, B * B)
            cross_rhs = reference_formula("cross_moment_increment_odd", N)
            var = _cov(ctx, N, B, B)
            second = _expect(ctx, N, B * B)
            second_rhs = reference_formula("second_moment_b_odd", N)
            first = _expect(ctx, N, B)
            first_rhs = reference_formula("expected_b_odd", N)
        else:
            step = _expect(ctx, N + 1, B * B) - _expect(ctx, N, B * B) - 2 * _cov(ctx, N, A, sq)
            rhs = Fraction(N * N * (N + 1), 16)
            incr = _expect(ctx, N + 1, B * B) - _expect(ctx, N, B * B)
            incr_rhs = reference_formula("second_moment_increment_even", N)
            cross = _expect(ctx, N + 1, B * B) - _expect(ctx, N, A * A)
            cross_rhs = reference_formula("cross_moment_increment_even", N)
            var = _cov(ctx, N, A, A)
            second = _expect(ctx, N, A * A)
            second_rhs = reference_formula("second_moment_a_even", N)
            first = _expect(ctx, N, A)
            first_rhs = reference_formula("expected_degree_even", N)
        out.append(_scalar("recurrence", "second-moment-step", N, step, rhs))
        out.append(_scalar("recurrence", "second-moment-increment", N, incr, incr_rhs))
        out.append(_scalar("recurrence", "cross-moment-increment", N, cross, cross_rhs))
        out.append(_scalar("recurrence", "degree-variance", N, var, reference_formula("var_degree", N)))
        out.append(_scalar("recurrence", "second-moment-closed", N, second, second_rhs))
        out.append(_scalar("recurrence", "first-moment-closed", N, first, first_rhs))
        if odd:
            out.append(_scalar("recurrence", "cov-b-weight-diff", N, _cov(ctx, N, B, diff), Fraction(0)))
    return out


def theorem_covariance_matrix(N: int, j: int) -> CovarianceMatrix:
    """Closed-form covariance matrix for hw = L_j and the word (N, first=j)."""
    if N < 1:
        raise ValueError("word length must be positive")
    if j not in (0, 1):
        raise ValueError("generator index must be 0 or 1")
    vd = reference_formula("var_degree", N)
    if N % 2 == j % 2:
        return CovarianceMatrix(vd, Fraction(0), Fraction(N))
    return CovarianceMatrix(vd + Fraction(N, 4), Fraction(N, 2), Fraction(N))


def suite_covariance(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Degree/finite-weight covariance matrices for both fundamental weights."""
    out = []
    for j in (0, 1):
        hw = HighestWeight.fundamental(j)
        ctx.chain(hw, j, max_N)
        for N in range(1, max_N + 1):
            got = ctx.moments(hw, j, N, 2).covariance_matrix(hw)
            want = theorem_covariance_matrix(N, j)
            out.append(_scalar("covariance", f"covmat-j{j}-var-degree", N, got.var_degree, want.var_degree))
            out.append(_scalar("covariance", f"covmat-j{j}-cross", N, got.covariance, want.covariance))
            out.append(
                _scalar(
                    "covariance",
                    f"covmat-j{j}-var-finweight",
                    N,
                    got.var_finite_weight,
                    want.var_finite_weight,
                )
            )
    return out


def suite_conjecture(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Cubic interpolation of the degree variance at levels 2-4; always at N = 2, 4, ..., 10."""
    N_list = (2, 4, 6, 8, 10)
    out = []
    for m in sorted(CONJECTURED_DEGREE_VARIANCE):
        try:
            report = conjecture_check(m, N_list)
        except FitMismatchError as err:
            for n, got, predicted in err.witnesses:
                out.append(_scalar("conjecture", f"conjecture-cubic-m{m}", n, got, predicted))
            continue
        for n in report.held_out:
            row = next(r for r in report.rows if r.N == n)
            out.append(_scalar("conjecture", f"conjecture-cubic-m{m}", n, row.variance, report.fit.evaluate(n)))
        for i, (got, want) in enumerate(zip(report.fit.coefficients, CONJECTURED_DEGREE_VARIANCE[m])):
            out.append(_scalar("conjecture", f"conjecture-table-m{m}-c{i}", max(N_list), got, want))
        for row in report.rows:
            out.append(
                _scalar(
                    "conjecture",
                    f"conjecture-max-degree-m{m}",
                    row.N,
                    Fraction(row.max_degree),
                    Fraction(row.expected_max_degree),
                )
            )
    return out


_SUITES = {
    "sanderson": suite_sanderson,
    "palindrome": suite_palindrome,
    "stretch": suite_stretch,
    "recurrence": suite_recurrence,
    "covariance": suite_covariance,
    "conjecture": suite_conjecture,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, max_N: int = 20, ctx: SuiteContext | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them in the order of SUITE_NAMES."""
    if max_N < 1:
        raise ValueError("max_N must be at least 1")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    ctx = ctx or SuiteContext()
    names = SUITE_NAMES if name == "all" else (name,)
    return [check for suite in names for check in _SUITES[suite](max_N, ctx)]
