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
              fundamental weights against the closed form of the theorem
  conjecture  levels 2-4: cubic interpolation of the degree variance,
              held-out confirmation, conjectured table and max degree

The level-1 suites run on hw = L0 and the words (N, first=0).  The parity
c = N % 2 picks the lead coordinate of the level-1 covariance theorem: a
for even N, and b for odd N, whose words end with D_0.  nxt is the other
coordinate.  Each level-1 identity and each catalog entry it is compared
with is written once in lead, nxt and c.

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
from .lattice import A, B, HighestWeight
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


def _level1(ctx: SuiteContext, N: int) -> MomentTable:
    """Degree-4 moment table of the level-1 word (N, first=0)."""
    return ctx.moments(_L0, 0, N, 4)


def suite_sanderson(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Marginal of a - b is a binomial row; its moments obey N/4 laws."""
    out = []
    diff = A - B
    sq = diff * diff
    for N in range(1, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        got = marginal(mu, diff)
        want = {k - N // 2: comb(N, k) for k in range(N + 1)}
        if got == want:
            tag = f"binomial-row({N})"
            out.append(CheckResult("sanderson", "binomial-marginal", N, tag, tag, True))
        else:
            t = next(t for t in sorted(set(got) | set(want)) if got.get(t, 0) != want.get(t, 0))
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
        table = _level1(ctx, N)
        out.append(_scalar("sanderson", "var-weight-diff", N, table.cov(diff, diff), Fraction(N, 4)))
        out.append(_scalar("sanderson", "cov-sqdiff-diff", N, table.cov(sq, diff), Fraction((N % 2) * N, 4)))
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
    for N in range(2, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        table = _level1(ctx, N)
        c = N % 2
        lead = (A, B)[c]
        rhs = reference_formula("stretch_covariance", N)
        out.append(_scalar("stretch", "stretch-cov", N, table.cov(lead, sq), rhs))
        f, g = sq - c * diff - 2 * lead, sq - c * diff
        out.append(_scalar("stretch", "sym-cov-zero", N, table.cov(f, g), Fraction(0)))
        x = diff - Fraction(c, 2)
        y = lead - Fraction(N * N - 2 * c, 8)
        pushed = pushforward_covariance(mu, CoordinateMap(x * x, y))
        out.append(_scalar("stretch", "pushforward-cov-route", N, table.cov(x * x, y), pushed))
    return out


# the closed-form lines of the recurrence suite in line order: check name and
# the catalog entry it is compared with
_RECURRENCE_CLOSED_FORMS = (
    ("second-moment-increment", "second_moment_increment"),
    ("cross-moment-increment", "cross_moment_increment"),
    ("degree-variance", "var_degree"),
    ("second-moment-closed", "second_moment_lead"),
    ("first-moment-closed", "expected_lead"),
)


def suite_recurrence(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Second-moment recurrences in N and the degree-moment closed forms."""
    out = []
    diff = A - B
    sq = diff * diff
    ctx.chain(_L0, 0, max_N + 1)
    for N in range(2, max_N + 1):
        now, after = _level1(ctx, N), _level1(ctx, N + 1)
        c = N % 2
        lead, nxt = (A, B)[c], (B, A)[c]
        incr = after.expect(nxt * nxt) - now.expect(nxt * nxt)
        # the step cubic: N(N^2 + N + 2)/16 for odd N, N^2(N + 1)/16 for even N
        step_rhs = Fraction(N * (N * N + N + 2 * c), 16)
        out.append(_scalar("recurrence", "second-moment-step", N, incr - 2 * now.cov(lead, sq), step_rhs))
        cross = after.expect(nxt * nxt) - now.expect(lead * lead)
        got = (incr, cross, now.cov(lead, lead), now.expect(lead * lead), now.expect(lead))
        for (name, catalog), lhs in zip(_RECURRENCE_CLOSED_FORMS, got):
            out.append(_scalar("recurrence", name, N, lhs, reference_formula(catalog, N)))
        if c:
            out.append(_scalar("recurrence", "cov-b-weight-diff", N, now.cov(B, diff), Fraction(0)))
    return out


def theorem_covariance_matrix(N: int, j: int) -> CovarianceMatrix:
    """Closed-form covariance matrix for hw = L_j and the word (N, first=j)."""
    if N < 1:
        raise ValueError("word length must be positive")
    if j not in (0, 1):
        raise ValueError("generator index must be 0 or 1")
    e = (N - j) % 2  # 1 where the parities of N and j differ
    return CovarianceMatrix(reference_formula("var_degree", N) + Fraction(e * N, 4), Fraction(e * N, 2), Fraction(N))


# check-name tag and CovarianceMatrix field of each matrix entry, in line order
_COVMAT_ENTRIES = (
    ("var-degree", "var_degree"),
    ("cross", "covariance"),
    ("var-finweight", "var_finite_weight"),
)


def suite_covariance(max_N: int, ctx: SuiteContext) -> list[CheckResult]:
    """Degree/finite-weight covariance matrices for both fundamental weights."""
    out = []
    for j in (0, 1):
        hw = HighestWeight.fundamental(j)
        ctx.chain(hw, j, max_N)
        for N in range(1, max_N + 1):
            got = ctx.moments(hw, j, N, 2).covariance_matrix(hw)
            want = theorem_covariance_matrix(N, j)
            for tag, field in _COVMAT_ENTRIES:
                lhs, rhs = getattr(got, field), getattr(want, field)
                out.append(_scalar("covariance", f"covmat-j{j}-{tag}", N, lhs, rhs))
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
    checks = [check for suite in names for check in _SUITES[suite](max_N, ctx)]
    if not checks:
        raise ValueError(f"suite {name!r} has no checks at max_N={max_N}")
    return checks
