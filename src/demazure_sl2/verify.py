"""Identity suites: every closed-form law the computed distributions obey.

Each suite walks the relevant word lengths and yields one check per
identity per length, a tuple (name, N, lhs, rhs) whose sides are exact
rationals or, for whole mass tables, tags and witnesses; never tolerances.
run_suite is the one place that turns checks into CheckResult lines: it
adds the suite name and prints rationals with format_rational, which is
canonical, so a check passes exactly when its printed sides agree.  Suites:

  sanderson   binomial marginal of the weight-difference coordinate and
              its first two moment laws
  palindrome  per-string mirror symmetry of level-1 distributions
  stretch     covariance of a coordinate with the squared difference, the
              two vanishing covariances behind it, and agreement of the
              direct moment-table route with the pushforward route, which
              sums int numerators per column without building the image,
              on Cov(g, lead), g = (a - b)^2 - c(a - b), left uncentred
  recurrence  consecutive-length second-moment recurrences and the degree
              moment closed forms
  covariance  full degree/finite-weight covariance matrices for both
              fundamental weights against the closed form of the theorem
  conjecture  levels 2-4: cubic interpolation of the degree variance,
              held-out confirmation, conjectured table and max degree,
              at N = 2, 4, ..., 10; it has no checks below max_N = 10

The level-1 suites run on hw = L0 and the words (N, first=0).  The parity
c = N % 2 picks the lead coordinate of the level-1 covariance theorem: a
for even N, and b for odd N, whose words end with D_0.  nxt is the other
coordinate.  Each level-1 identity and each catalog entry it is compared
with is written once in lead, nxt and c.

A SuiteContext caches the operator chains only, so "all" pays for each
distribution once; a chain is the list read so far from one live
demazure.distribution_chain per (m, n, first).  Moment tables are not
cached anywhere: a chain snapshot carries its column sums, so each table
costs O(columns) and each suite builds the tables it reads, each with one
raw_moments call on a chain snapshot (the recurrence suite reuses each N's
table as the next N's).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator

from .asymptotics import CONJECTURED_DEGREE_VARIANCE, FitMismatchError, conjecture_check
from .closedform import palindromicity_check
from .demazure import WeightDistribution, distribution_chain
from .lattice import A, B, HighestWeight, Scalar, generator_index, instance_of, word_length
from .moments import CovarianceMatrix, marginal, pushforward_covariance, raw_moments, reference_formula
from .serialize import format_rational


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    n: int
    lhs: str
    rhs: str

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def format_check(c: CheckResult) -> str:
    status = "PASS" if c.passed else "FAIL"
    return f"{status} {c.name} N={c.n} lhs={c.lhs} rhs={c.rhs}"


class SuiteContext:
    """Caches alternating-word chains across suites.

    Chains only; each suite builds its tables with raw_moments.
    """

    def __init__(self) -> None:
        self._chains: dict[tuple[int, int, int], tuple[list[WeightDistribution], Iterator[WeightDistribution]]] = {}

    def chain(self, hw: HighestWeight, first: int, max_N: int) -> list[WeightDistribution]:
        """mu_0..mu_max_N (at least) of the word family (hw, first); the same list on every call."""
        hw = instance_of(hw, HighestWeight, "highest weight")  # before the lookup: (m, n) equals hw
        key = (hw.m, hw.n, generator_index(first))
        if key not in self._chains:
            self._chains[key] = ([], distribution_chain(hw, first))
        cur, it = self._chains[key]
        cur.extend(islice(it, max(0, word_length(max_N) + 1 - len(cur))))
        return cur


_L0 = HighestWeight.fundamental(0)
# the weight-difference coordinate a - b and its square
_DIFF = A - B
_SQ = _DIFF * _DIFF
# by parity c: lead, its square, and suite_stretch's f and g = (a - b)^2 - c(a - b).
# Built once, each reuses its int numerators at every N.
_LEAD, _LEAD_SQ = (A, B), (A * A, B * B)
_STRETCH = tuple((_SQ - c * _DIFF - 2 * _LEAD[c], _SQ - c * _DIFF) for c in (0, 1))
# degree and degree in a of the level-1 tables of suite_stretch and
# suite_recurrence: the top powers of a read are those of lead^2 and
# nxt^2 = (a - d)^2 in suite_recurrence; suite_stretch reads p <= 1.  Degree
# 2 in a is what the chain's column sums carry, so a table costs no pass
# over entries.
_LEVEL1_BOUNDS = (4, 2)

# one check of a suite: name, N and the two sides, each a text or a rational
Checks = Iterator[tuple[str, int, str | Scalar, str | Scalar]]


def suite_sanderson(max_N: int, ctx: SuiteContext) -> Checks:
    """Marginal of a - b is a binomial row; its moments obey N/4 laws."""
    for N in range(1, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        got = marginal(mu, _DIFF)
        want = {k - N // 2: comb(N, k) for k in range(N + 1)}
        if got == want:
            yield "binomial-marginal", N, f"binomial-row({N})", f"binomial-row({N})"
        else:
            t = next(t for t in sorted(set(got) | set(want)) if got.get(t, 0) != want.get(t, 0))
            yield "binomial-marginal", N, f"{got.get(t, 0)} at t={t}", f"{want.get(t, 0)} at t={t}"
        table = raw_moments(mu, 3, 0)  # cov((a - b)^2, a - b) reads d^3, and no power of a
        yield "var-weight-diff", N, table.cov(_DIFF, _DIFF), Fraction(N, 4)
        yield "cov-sqdiff-diff", N, table.cov(_SQ, _DIFF), Fraction((N % 2) * N, 4)


def suite_palindrome(max_N: int, ctx: SuiteContext) -> Checks:
    """Shifted mirror symmetry of every delta string, level 1."""
    for N in range(1, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        res = palindromicity_check(mu, N)
        if res.ok:
            yield "string-palindrome", N, "palindromic", "palindromic"
        else:
            yield "string-palindrome", N, f"mass{tuple(res.witness)}={mu.mass(res.witness)}", "mirror mass"


def suite_stretch(max_N: int, ctx: SuiteContext) -> Checks:
    """Squared-difference covariances and the pushforward route agreement."""
    for N in range(2, max_N + 1):
        mu = ctx.chain(_L0, 0, max_N)[N]
        table = raw_moments(mu, *_LEVEL1_BOUNDS)
        c = N % 2
        lead, (f, g) = _LEAD[c], _STRETCH[c]
        rhs = reference_formula("stretch_covariance", N)
        yield "stretch-cov", N, table.cov(lead, _SQ), rhs
        yield "sym-cov-zero", N, table.cov(f, g), 0
        yield "pushforward-cov-route", N, table.cov(g, lead), pushforward_covariance(mu, g, lead)


# the closed-form lines of the recurrence suite in line order: check name and
# the catalog entry it is compared with
_RECURRENCE_CLOSED_FORMS = (
    ("second-moment-increment", "second_moment_increment"),
    ("cross-moment-increment", "cross_moment_increment"),
    ("degree-variance", "var_degree"),
    ("second-moment-closed", "second_moment_lead"),
    ("first-moment-closed", "expected_lead"),
)


def suite_recurrence(max_N: int, ctx: SuiteContext) -> Checks:
    """Second-moment recurrences in N and the degree-moment closed forms."""
    mus = ctx.chain(_L0, 0, max_N + 1)
    after = raw_moments(mus[2], *_LEVEL1_BOUNDS)
    for N in range(2, max_N + 1):
        now, after = after, raw_moments(mus[N + 1], *_LEVEL1_BOUNDS)
        c = N % 2
        lead, lead_sq, nxt_sq = _LEAD[c], _LEAD_SQ[c], _LEAD_SQ[1 - c]
        incr = after.expect(nxt_sq) - now.expect(nxt_sq)
        # the step cubic: N(N^2 + N + 2)/16 for odd N, N^2(N + 1)/16 for even N
        step_rhs = Fraction(N * (N * N + N + 2 * c), 16)
        yield "second-moment-step", N, incr - 2 * now.cov(lead, _SQ), step_rhs
        cross = after.expect(nxt_sq) - now.expect(lead_sq)
        got = (incr, cross, now.cov(lead, lead), now.expect(lead_sq), now.expect(lead))
        for (name, catalog), lhs in zip(_RECURRENCE_CLOSED_FORMS, got):
            yield name, N, lhs, reference_formula(catalog, N)
        if c:
            yield "cov-b-weight-diff", N, now.cov(B, _DIFF), 0


def theorem_covariance_matrix(N: int, j: int) -> CovarianceMatrix:
    """Closed-form covariance matrix for hw = L_j and the word (N, first=j)."""
    var_degree = reference_formula("var_degree", N)  # checks N
    e = (N - generator_index(j)) % 2  # 1 where the parities of N and j differ
    return CovarianceMatrix(var_degree + Fraction(e * N, 4), Fraction(e * N, 2), Fraction(N))


def suite_covariance(max_N: int, ctx: SuiteContext) -> Checks:
    """Degree/finite-weight covariance matrices for both fundamental weights."""
    for j in (0, 1):
        hw = HighestWeight.fundamental(j)
        for N in range(1, max_N + 1):
            got = raw_moments(ctx.chain(hw, j, max_N)[N], 2).covariance_matrix(hw)
            want = theorem_covariance_matrix(N, j)
            # one line per CovarianceMatrix field, in field order, the order in
            # which a dataclass's __init__ sets them (dataclasses.astuple would
            # deep-copy each field, at about 5 us a matrix)
            for tag, lhs, rhs in zip(("var-degree", "cross", "var-finweight"), vars(got).values(), vars(want).values()):
                yield f"covmat-j{j}-{tag}", N, lhs, rhs


def suite_conjecture(max_N: int, ctx: SuiteContext) -> Checks:
    """Cubic interpolation of the degree variance at levels 2-4, at the even N <= min(10, max_N).

    A cubic fit and one held-out length need five lengths, so below
    max_N = 10 the suite yields nothing.
    """
    N_list = tuple(range(2, min(10, max_N) + 1, 2))
    if len(N_list) < 5:
        return
    for m in sorted(CONJECTURED_DEGREE_VARIANCE):
        try:
            report = conjecture_check(m, N_list)
        except FitMismatchError as err:
            for n, got, predicted in err.witnesses:
                yield f"conjecture-cubic-m{m}", n, got, predicted
            continue
        for n in report.held_out:
            row = next(r for r in report.rows if r.N == n)
            yield f"conjecture-cubic-m{m}", n, row.variance, report.fit.evaluate(n)
        for i, (got, want) in enumerate(zip(report.fit.coefficients, CONJECTURED_DEGREE_VARIANCE[m])):
            yield f"conjecture-table-m{m}-c{i}", max(N_list), got, want
        for row in report.rows:
            yield f"conjecture-max-degree-m{m}", row.N, row.max_degree, row.expected_max_degree


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
    """Run one named suite, or all of them in the order of SUITE_NAMES, into check lines."""
    if type(max_N) is not int or max_N < 1:
        raise ValueError("max_N must be at least 1")
    if name != "all" and name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of: {', '.join(('all',) + SUITE_NAMES)}")
    ctx = ctx or SuiteContext()
    names = SUITE_NAMES if name == "all" else (name,)
    checks = []
    for suite in names:
        for check, n, lhs, rhs in _SUITES[suite](max_N, ctx):
            lhs = lhs if isinstance(lhs, str) else format_rational(lhs)
            rhs = rhs if isinstance(rhs, str) else format_rational(rhs)
            checks.append(CheckResult(suite, check, n, lhs, rhs))
    if not checks:
        raise ValueError(f"suite {name!r} has no checks at max_N={max_N}")
    return checks
