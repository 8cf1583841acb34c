"""Exact moments of weight distributions.

All statistics are rationals computed with fractions.Fraction; nothing in
this module touches floating point.  Expectations of polynomial
functionals in the lattice coordinates reduce to raw power sums, which
raw_moments collects per distribution into a MomentTable.  A table has
two bounds, its degree (p + r) and its degree in a (p): only powers of a
can cost passes over entries, so a caller that reads no high power of a
asks for a lower degree in a; expectation and covariance ask for the
degree in a of what they read.  A distribution of
demazure.distribution_chain carries its columns' sums of c * a^p for
p <= demazure.CARRIED_A_DEGREE = 2 through the fold, and
closedform.level1_distribution carries them from the area sums of its
Gaussian binomials, and copies and pickles keep them, so their tables of
degree <= 2 in a, which are all the package's readers ask for, cost
O(columns) and no pass over entries.  Each call of raw_moments builds its
table afresh; no distribution keeps one.
Tables and functionals are both written in the column coordinates (a, d),
d = a - b, of the distribution's storage: the table holds
sum(mass * a^p * d^r), and Functional.numerators gives a functional's int
coefficients in the same monomials, with no change of basis.  MomentTable
is the one moment engine: every expectation, covariance and
degree/finite-weight covariance matrix in the package is read from one, as
int dot products of its power sums with those numerators and one division
at the end: cov pairs the terms of f and g and never builds f * g, and it
ends in the final division it shares with pushforward_covariance, which
sums per column without the image, and coordinate_covariance.  Where
raw_moments has no carried sums to read (a distribution built by hand, or
a degree above 2 in a), the work per support point is int arithmetic
inside map, accumulate and sum only: a_degree + 1
additions per entry of each distinct column vector (iterated prefix sums
and a final sum) and no multiplication, turned into power sums per column
as vectors over the columns.  Mirrored columns share
one vector (see the Column storage comment in demazure.py), so each pair
is summed once.  Either way powers of d are one number per column.
pushforward(mu, *fs), the one image routine (marginal reads it for one
functional), and pushforward_covariance are the package's only readers of
Functional.on_column, and its only per-entry functional readers: they read
the decoded entries, never column_sums or a MomentTable, so the identity
suites' pushforward route checks the table route independently.
on_column gives one int where a functional is constant on a column, a
range where it is linear in a, and an iterator otherwise, so the work per
entry is C-level map and sum over the entries and those values.
pushforward sums the mass of a column on which every functional is
constant once per distinct column vector, keyed by id(vals);
pushforward_covariance sums each distinct (column vector, non-constant
values) pair once per call, keyed by id(vals) and the range or tuple of
values, and reuses the sums for every column that repeats it: mirrored
columns share their vector, and for the level-1 lead coordinate their
values too.  reference_formula exposes the catalog of closed-form values
the identity suites compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .demazure import CARRIED_A_DEGREE, WeightDistribution
from .lattice import (
    Functional,
    HighestWeight,
    Scalar,
    degree_functional,
    finite_weight_functional,
    instance_of,
    scaled_numerators,
)


class EmptyDistributionError(ValueError):
    """Moment of a distribution with zero total mass."""


class MomentTable(NamedTuple):
    """Total mass and the power sums sum(c * a^p * d^r), d = a - b, keyed by (p, r), from raw_moments.

    The table holds every key with p + r <= degree and p <= a_degree.  A
    read pairs these with Functional.numerators, the functional's int
    coefficients in the same monomials a^p * d^r.
    """

    mass: int
    sums: dict[tuple[int, int], int]

    @property
    def degree(self) -> int:
        """The largest p + r of the table."""
        return max(map(sum, self.sums))

    @property
    def a_degree(self) -> int:
        """The largest p of the table, its degree in a."""
        return max(p for p, _ in self.sums)

    def expect(self, f: Functional) -> Fraction:
        """Mean of f, exact; f's degree and degree in a must not exceed the table's."""
        q, nf = instance_of(f, Functional, "functional").numerators()
        return Fraction(self._dot(nf, f), self.mass * q)

    def cov(self, f: Functional, g: Functional) -> Fraction:
        """E[fg] - E[f]E[g], with sum(c*f*g) read term pair by term pair: f * g is never built."""
        (qf, nf), (qg, ng) = (instance_of(h, Functional, "functional").numerators() for h in (f, g))
        fg = (((i1 + i2, j1 + j2), n1 * n2) for (i1, j1), n1 in nf for (i2, j2), n2 in ng)
        sfg = self._dot(fg, f, g)
        return _covariance(qf, qg, self.mass, self._dot(nf, f), self._dot(ng, g), sfg)

    def _dot(self, terms: Iterable[tuple[tuple[int, int], int]], *factors: Functional) -> int:
        """sum(n * sums[key]) over terms, the int numerators of the product of factors."""
        if self.mass == 0:
            raise EmptyDistributionError("empty distribution")
        try:
            return sum(n * self.sums[key] for key, n in terms)
        except KeyError:
            # the table holds every power sum with p + r <= its degree and p <= its
            # degree in a, and both degrees of fg are those of f plus those of g,
            # as Q[a, d] has no zero divisors
            degree = sum(f.total_degree for f in factors)
            if degree > self.degree:
                msg = f"functional of degree {degree} exceeds the moment table's degree {self.degree}"
            else:
                a_degree = sum(map(_a_degree, factors))
                msg = f"functional of degree {a_degree} in a exceeds the moment table's degree {self.a_degree} in a"
            raise ValueError(msg) from None

    def covariance_matrix(self, hw: HighestWeight) -> CovarianceMatrix:
        """Covariance matrix of the pair (degree, finite weight); needs degree 2, also in a."""
        d, w = degree_functional(), finite_weight_functional(hw)
        return CovarianceMatrix(self.cov(d, d), self.cov(d, w), self.cov(w, w))


def _a_degree(f: Functional) -> int:
    """The degree of f in a: the largest p of its monomials a^p * d^r; 0 for the zero functional."""
    return max((p for (p, _), _ in f.numerators()[1]), default=0)


def moment_degree(degree: int) -> int:
    """degree, checked to be a moment-table degree: a nonnegative int, not a bool."""
    if type(degree) is not int or degree < 0:
        raise ValueError("degree must be a nonnegative integer")
    return degree


def raw_moments(mu: WeightDistribution, degree: int, a_degree: int | None = None) -> MomentTable:
    """Total mass and the power sums sum(c * a^p * d^r), d = a - b, for p + r <= degree, p <= a_degree.

    a_degree, the table's degree in a, defaults to degree and must not
    exceed it.  The table is computed in two stages.  Stage 1 gives the
    power sums s_p = sum(c * a^p) of each column, p <= a_degree.  When mu
    carries them (mu.column_sums, set along demazure.distribution_chain
    and by closedform.level1_distribution, and kept by copies and pickles)
    and a_degree <= demazure.CARRIED_A_DEGREE, it reads them there in
    O(columns), with no pass over entries.  Otherwise, per column of fixed
    d = a - b, with hi one past its top row, the last entries of `a_degree`
    iterated prefix sums of the column vector, and the sum of the last one,
    are sum(c * C(w + k - 1, k)) for k <= a_degree, w = hi - a.  They
    depend on the vector alone, so this stage costs a_degree + 1 additions
    per entry of each distinct vector: columns that hold the same list, as
    the mirrored columns d and -n - d after D_1, d and m - d after D_0, and
    the level-1 strings k and N - k do, reuse one result.  Times k! these
    are the rising-factorial sums sum(c * w(w+1)...(w+k-1)), and
    multiplying by a = hi - w in that basis,

        a * w(w+1)...(w+k-1) = (hi + k) * w(w+1)...(w+k-1) - w(w+1)...(w+k),

    takes them to s_p in `a_degree` rounds of one column-vector map per k,
    for all columns at once.  Stage 2, the one assembly: the table entry
    (p, r) is the dot product of s_p with the per-column powers d^r, which
    cost nothing per entry.  Nothing is kept: every call builds its table.
    """
    mu = instance_of(mu, WeightDistribution, "distribution")
    degree = moment_degree(degree)
    a_degree = degree if a_degree is None else moment_degree(a_degree)
    if a_degree > degree:
        raise ValueError("a_degree must not exceed degree")
    return _power_sums(mu, degree, a_degree)


def _power_sums(mu: WeightDistribution, degree: int, a_degree: int) -> MomentTable:
    """The MomentTable of raw_moments: per-column sums of c * a^p, then their dot products with the powers of d.

    Stage 1 reads the sums off mu.column_sums when mu carries them and
    a_degree <= CARRIED_A_DEGREE, in O(columns), and sums the entries
    otherwise (_entry_sums).  Stage 2 is the one assembly of the table.
    """
    carried = mu.column_sums
    if carried is not None and a_degree <= CARRIED_A_DEGREE:
        ds = list(carried)
        s = list(zip(*carried.values()))
    else:
        ds, s = _entry_sums(mu, a_degree)
    powers = [[1] * len(ds)]
    for _ in range(degree):
        powers.append(list(map(mul, powers[-1], ds)))
    sums = {(p, r): sum(map(mul, s[p], powers[r])) for p in range(a_degree + 1) for r in range(degree + 1 - p)}
    return MomentTable(sums[(0, 0)], sums)


def _entry_sums(mu: WeightDistribution, a_degree: int) -> tuple[list[int], list[list[int]]]:
    """(ds, s): the columns' d, and s[p] the vector over them of sum(c * a^p), p <= a_degree, from the entries."""
    his, ds, rows = [], [], []
    done: dict[int, list[int]] = {}  # id(vals) -> its stage; mu keeps every vals alive and unmutated
    for d, (a0, vals) in mu.columns():
        his.append(a0 + len(vals))
        ds.append(d)
        row = done.get(id(vals))
        if row is None:
            row = done[id(vals)] = []
            for _ in range(a_degree):
                vals = list(accumulate(vals))
                row.append(vals[-1])
            row.append(sum(vals))
        rows.append(row)
    t = [list(tk) for tk in zip(*rows)] if rows else [[] for _ in range(a_degree + 1)]
    for k in range(2, a_degree + 1):  # 0! = 1! = 1
        t[k] = list(map(mul, repeat(factorial(k)), t[k]))
    shifted = [his] + [list(map(add, his, repeat(k))) for k in range(1, a_degree)]  # hi + k
    s = [t[0]]
    for _ in range(a_degree):  # round p leaves t[k] = sum(c * a^p * w(w+1)...(w+k-1))
        t = [list(map(sub, map(mul, hk, tk), up)) for hk, tk, up in zip(shifted, t, t[1:])]
        s.append(t[0])
    return ds, s


def expectation(mu: WeightDistribution, f: Functional) -> Fraction:
    """Mean of f under mu, an exact rational, from a table of f's degree and degree in a.  Raises on zero total mass."""
    f = instance_of(f, Functional, "functional")
    return raw_moments(mu, f.total_degree, _a_degree(f)).expect(f)


def covariance(mu: WeightDistribution, f: Functional, g: Functional) -> Fraction:
    """E[fg] - E[f]E[g] under mu, exact, from a table of fg's degree and degree in a."""
    fs = [instance_of(h, Functional, "functional") for h in (f, g)]
    return raw_moments(mu, sum(h.total_degree for h in fs), sum(map(_a_degree, fs))).cov(f, g)


def variance(mu: WeightDistribution, f: Functional) -> Fraction:
    return covariance(mu, f, f)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2x2 covariance of (degree, finite weight), exact rationals."""

    var_degree: Fraction
    covariance: Fraction
    var_finite_weight: Fraction

    def determinant(self) -> Fraction:
        return self.var_degree * self.var_finite_weight - self.covariance * self.covariance


def covariance_matrix(mu: WeightDistribution) -> CovarianceMatrix:
    """Covariance matrix of the pair (degree, finite weight) under mu."""
    return raw_moments(mu, 2).covariance_matrix(mu.hw)


def pushforward(mu: WeightDistribution, *fs: Functional) -> dict[tuple[Scalar, ...], int]:
    """Image measure of mu under p -> (f(p) for f in fs); cancels to 0 are dropped.

    Summed over int numerators from Functional.on_column: with q the lcm of
    a functional's denominators, the image is first taken along q * f, and
    a column on which every functional is constant adds its total mass to
    one key, summed once per distinct column vector (mirrored columns share
    one).  Then each key's axes are divided by their q; an axis whose
    functional has int coefficients keeps int values.
    """
    qs = [instance_of(f, Functional, "functional").numerators()[0] for f in fs]
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    masses: dict[int, int] = {}  # id(vals) -> sum(vals); mu keeps every vals alive
    for d, (a0, vals) in instance_of(mu, WeightDistribution, "distribution").columns():
        rows = range(a0, a0 + len(vals))
        nums = tuple(f.on_column(d, rows) for f in fs)
        if all(type(n) is int for n in nums):
            m = masses.get(id(vals))
            if m is None:
                m = masses[id(vals)] = sum(vals)
            acc[nums] = get(nums, 0) + m
            continue
        for key, c in zip(zip(*(repeat(n) if type(n) is int else n for n in nums)), vals):
            acc[key] = get(key, 0) + c
    return {tuple(n if q == 1 else Fraction(n, q) for n, q in zip(key, qs)): c for key, c in acc.items() if c}


def marginal(mu: WeightDistribution, f: Functional) -> dict[Scalar, int]:
    """Pushforward of mu along a scalar functional: value -> total mass."""
    return {v: c for (v,), c in pushforward(mu, f).items()}


def pushforward_covariance(mu: WeightDistribution, x: Functional, y: Functional) -> Fraction:
    """coordinate_covariance(pushforward(mu, x, y)), summed per column without building the image.

    On each column Functional.on_column gives q * x and q * y as one int
    where constant, a range where linear in a, and an iterator otherwise.
    A constant is a factor of the column's sums, so the entries are summed
    per distinct (column vector, non-constant values), an iterator read into
    a tuple: mass and the sums of c times the non-constant axes and their
    product, in C-level map and sum passes, once for all columns that repeat
    the pair.  It reads the entries alone, never column_sums or a
    MomentTable, so it checks those independently.  Covariance is linear in
    the measure, so equal image points need not be merged first.
    """
    qx, qy = (instance_of(h, Functional, "functional").numerators()[0] for h in (x, y))
    # (id(vals), x's and y's values or None where constant) -> _column_moments;
    # mu keeps every vals alive
    memo: dict[tuple[int, object, object], tuple[int, int, int, int]] = {}
    mass = sx = sy = sxy = 0
    for d, (a0, vals) in instance_of(mu, WeightDistribution, "distribution").columns():
        rows = range(a0, a0 + len(vals))
        (kx, xs), (ky, ys) = _factor(x.on_column(d, rows)), _factor(y.on_column(d, rows))
        key = id(vals), xs, ys
        s = memo.get(key)
        if s is None:
            s = memo[key] = _column_moments(vals, xs, ys)
        m, cx, cy, cxy = s
        mass, sx, sy, sxy = mass + m, sx + kx * cx, sy + ky * cy, sxy + kx * ky * cxy
    return _covariance(qx, qy, mass, sx, sy, sxy)


def _factor(values: int | range | Iterator[int]) -> tuple[int, range | tuple[int, ...] | None]:
    """(k, vs) with values = k * vs on the column: (n, None) for a constant n, else 1 and the values, hashable."""
    if type(values) is int:
        return values, None
    return 1, values if type(values) is range else tuple(values)


def _column_moments(
    vals: list[int], xs: range | tuple[int, ...] | None, ys: range | tuple[int, ...] | None
) -> tuple[int, int, int, int]:
    """sum(c), sum(c * x), sum(c * y), sum(c * x * y) over one column, where None stands for x = 1 or y = 1."""
    m = sum(vals)
    cxs = vals if xs is None else list(map(mul, vals, xs))
    cx = m if xs is None else sum(cxs)
    if ys is None:
        return m, cx, m, cx
    cy = sum(map(mul, vals, ys))
    return m, cx, cy, cy if xs is None else sum(map(mul, cxs, ys))


def coordinate_covariance(measure: Mapping[tuple[Scalar, Scalar], int]) -> Fraction:
    """Covariance of the two coordinates of a pushed measure."""
    (qx, xs), (qy, ys) = (scaled_numerators([key[i] for key in measure]) for i in (0, 1))
    cs = list(measure.values())
    cxs = list(map(mul, cs, xs))
    return _covariance(qx, qy, sum(cs), sum(cxs), sum(map(mul, cs, ys)), sum(map(mul, cxs, ys)))


def _covariance(qx: int, qy: int, mass: int, sx: int, sy: int, sxy: int) -> Fraction:
    """Covariance of (x / qx, y / qy) from the int sums of c, c*x, c*y and c*x*y."""
    if mass == 0:
        raise EmptyDistributionError("empty distribution")
    return Fraction(mass * sxy - sx * sy, mass * mass * qx * qy)


# Closed-form catalog.  Each entry is one formula in the word length N and
# c = N % 2 that holds for every N >= 1.  All are for level 1, hw = L0, word
# (N, first=0), in the (a, b) coordinates of lattice.py, with lead = a for
# even N and b for odd N (whose words end with D_0) and nxt the other one:
#
#   var_degree                Var_N(lead)
#   stretch_covariance        Cov_N(lead, (a-b)^2)
#   second_moment_increment   E_{N+1}[nxt^2] - E_N[nxt^2]
#   cross_moment_increment    E_{N+1}[nxt^2] - E_N[lead^2]
#   second_moment_lead        E_N[lead^2]
#   expected_lead             E_N[lead]
_FORMULAS: dict[str, Callable[[int, int], Fraction]] = {
    "var_degree": lambda N, c: Fraction(N * (N - 1) * (2 * N + 5), 96),
    "stretch_covariance": lambda N, c: Fraction(N * (N - 1), 16),
    "second_moment_increment": lambda N, c: Fraction(N * (N * N + 3 * N - 2 + 2 * c), 16),
    "cross_moment_increment": lambda N, c: Fraction(N * (N + 2) * (N + 1 + 2 * c), 16),
    "second_moment_lead": lambda N, c: Fraction(
        3 * N**4 + 10 * N**3 + 9 * N * N - 10 * N - 12 * c * (N * N + N - 1), 192
    ),
    "expected_lead": lambda N, c: Fraction(N * N + N - 2 * c, 8),
}


def reference_formula(name: str, N: int) -> Fraction:
    """Closed-form value of a named statistic at word length N; unknown names raise ValueError."""
    if name not in _FORMULAS:
        raise ValueError(f"unknown reference formula {name!r}")
    if type(N) is not int or N < 1:
        raise ValueError("word length must be a positive integer")
    return _FORMULAS[name](N, N % 2)
