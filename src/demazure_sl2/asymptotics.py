"""Law-of-large-numbers rescaling and the higher-level variance conjecture.

Rescaling convention: the degree axis is divided by the computed maximum
degree of the distribution and the finite-weight axis by the computed
maximum absolute finite weight, so the rescaled support always lies in
[0, 1] x [-1, 1].  For level-1 even words the maximum degree is N^2/4 and
the rescaled degree mean is exactly 1/2 + 1/(2N); the rescaled variances
vanish as N grows, which is the weak-law statement.  With this convention
N * var_degree_scaled tends to 1/3 for level 1 (the variance closed form
divided by (N^2/4)^2).

For levels 2-4 the degree variance of the even words (hw = m*L0, first
letter 0) is conjecturally a cubic in N; conjecture_check recovers the
cubic from four sample points by exact Lagrange interpolation, confirms it
on the held-out samples, and compares against the conjectured table below.
The maximum degree is checked against m*N^2/4 alongside.

rescaled_summary is wlln_series at one length.  wlln_series and
conjecture_check share one walk, _walk: an islice of distribution_chain up
to the longest length, which reads each snapshot once into its maximum
degree, maximum absolute finite weight and degree-2 moment table.  All
three come from the packed columns and their carried sums in O(columns):
the walk decodes no entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .demazure import WeylWord, distribution_chain
from .lattice import A, HighestWeight, finite_weight_functional, instance_of
from .moments import MomentTable, raw_moments


@dataclass(frozen=True)
class RescaledSummary:
    """Exact rescaled statistics of one distribution in a WLLN family."""

    N: int
    level: int
    max_degree: int
    max_abs_finite_weight: int
    mean_degree_scaled: Fraction
    var_degree_scaled: Fraction
    mean_finweight_scaled: Fraction
    var_finweight_scaled: Fraction


def _walk(hw: HighestWeight, first: int, ns: Sequence[int]) -> Iterator[tuple[int, int, int, MomentTable]]:
    """(N, max degree, max |finite weight|, degree-2 moment table) at each length of the increasing ns."""
    wanted = set(ns)
    for t, mu in enumerate(islice(distribution_chain(hw, first), ns[-1] + 1)):
        if t in wanted:
            # a column's finite weight is n + 2d; keys and degree bounds decode no entry
            max_fw = max([0] + [abs(hw.n + 2 * d) for d in mu.column_keys()])
            yield t, max(0, mu.degree_range()[1] - 1), max_fw, raw_moments(mu, 2)


def _summarize(hw: HighestWeight, N: int, max_deg: int, max_fw: int, table: MomentTable) -> RescaledSummary:
    # constant coordinates get scale 1 rather than a zero division; their
    # rescaled mean and variance are exact zeros either way
    dscale = max_deg if max_deg else 1
    wscale = max_fw if max_fw else 1
    w = finite_weight_functional(hw)
    ed, ew = table.expect(A), table.expect(w)
    var_d, var_w = table.cov(A, A), table.cov(w, w)
    return RescaledSummary(
        N=N,
        level=hw.level,
        max_degree=max_deg,
        max_abs_finite_weight=max_fw,
        mean_degree_scaled=Fraction(ed, dscale),
        var_degree_scaled=Fraction(var_d, dscale * dscale),
        mean_finweight_scaled=Fraction(ew, wscale),
        var_finweight_scaled=Fraction(var_w, wscale * wscale),
    )


def rescaled_summary(hw: HighestWeight, word: WeylWord) -> RescaledSummary:
    """Summary of the distribution of one word, rescaled to [0,1] x [-1,1]; wlln_series at its length."""
    word = instance_of(word, WeylWord, "word")
    return wlln_series(hw, [word.length], word.first)[0]


def wlln_series(hw: HighestWeight, N_list: Sequence[int], first: int = 0) -> list[RescaledSummary]:
    """Summaries along one alternating-word family, one recursion pass.

    ``N_list`` must be strictly increasing positive lengths; the chain is
    walked once up to the largest and snapshots are taken at each requested
    length.
    """
    ns = list(N_list)
    if not ns:
        raise ValueError("N_list must be nonempty")
    if any(type(n) is not int or n < 1 for n in ns):
        raise ValueError("word lengths must be positive integers")
    if any(y <= x for x, y in zip(ns, ns[1:])):
        raise ValueError("N_list must be strictly increasing")
    return [_summarize(hw, *snapshot) for snapshot in _walk(hw, first, ns)]


def degree_mean_limit(level: int) -> Fraction:
    """Conjectured limit of the rescaled degree mean, (s + 2) / (3s + 3)."""
    if type(level) is not int or level < 1:
        raise ValueError("level must be positive")
    return Fraction(level + 2, 3 * (level + 1))


@dataclass(frozen=True)
class PolynomialFit:
    """Exact polynomial c0 + c1*N + ... recovered from sample points."""

    coefficients: tuple[Fraction, ...]

    def evaluate(self, n: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc


def fit_polynomial(points: Sequence[tuple[int, Fraction]]) -> PolynomialFit:
    """Interpolate exactly through the points, degree len(points) - 1 (Lagrange, rational)."""
    if not points:
        raise ValueError("need at least one sample point")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("sample points must be distinct")
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # basis polynomial prod_{k != i} (X - xk) / (xi - xk)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xk * basis[t + 1]
            denom *= xi - xk
        scale = Fraction(yi, 1) / denom
        for t, c in enumerate(basis):
            coeffs[t] += scale * c
    return PolynomialFit(tuple(coeffs))


#: conjectured degree-variance cubics for hw = m*L0, even alternating words
CONJECTURED_DEGREE_VARIANCE: dict[int, tuple[Fraction, ...]] = {
    2: (Fraction(0), Fraction(-11, 81), Fraction(7, 81), Fraction(4, 81)),
    3: (Fraction(0), Fraction(-97, 384), Fraction(63, 384), Fraction(34, 384)),
    4: (Fraction(0), Fraction(-151, 375), Fraction(99, 375), Fraction(52, 375)),
}


class FitMismatchError(ValueError):
    """Sampled variances do not lie on a single cubic."""

    def __init__(self, message: str, witnesses: list[tuple[int, Fraction, Fraction]]):
        super().__init__(message)
        self.witnesses = witnesses


@dataclass(frozen=True)
class ConjectureRow:
    N: int
    variance: Fraction
    max_degree: int
    expected_max_degree: int


@dataclass(frozen=True)
class ConjectureReport:
    level: int
    rows: tuple[ConjectureRow, ...]
    fit: PolynomialFit
    held_out: tuple[int, ...]
    table_match: bool

    @property
    def max_degree_match(self) -> bool:
        return all(r.max_degree == r.expected_max_degree for r in self.rows)


def conjecture_check(m: int, N_list: Iterable[int]) -> ConjectureReport:
    """Interpolate the degree variance for hw = m*L0 and compare to the table.

    The first four sampled lengths determine a cubic; the remaining ones
    are held out and must land on it exactly, otherwise FitMismatchError is
    raised with the offending (N, computed, predicted) triples.  The
    computed maximum degree of each sample is reported against m*N^2/4.
    """
    if type(m) is not int or m not in CONJECTURED_DEGREE_VARIANCE:
        raise ValueError("level must be 2, 3, or 4")
    ns = sorted(set(N_list))
    if len(ns) < 5:
        raise ValueError("need at least 5 distinct sample lengths")
    if any(type(n) is not int or n < 2 or n % 2 for n in ns):
        raise ValueError("sample lengths must be even and at least 2")
    rows = tuple(
        ConjectureRow(N=t, variance=table.cov(A, A), max_degree=max_deg, expected_max_degree=m * t * t // 4)
        for t, max_deg, _, table in _walk(HighestWeight(m, 0), 0, ns)
    )
    fit = fit_polynomial([(r.N, r.variance) for r in rows[:4]])
    witnesses = [(r.N, r.variance, fit.evaluate(r.N)) for r in rows[4:] if fit.evaluate(r.N) != r.variance]
    if witnesses:
        raise FitMismatchError("not cubic on sampled range", witnesses)
    return ConjectureReport(
        level=m,
        rows=rows,
        fit=fit,
        held_out=tuple(ns[4:]),
        table_match=fit.coefficients == CONJECTURED_DEGREE_VARIANCE[m],
    )
