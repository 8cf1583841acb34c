"""Exact moments of weight distributions.

All statistics are rationals computed with fractions.Fraction; nothing in
this module touches floating point.  Expectations of polynomial
functionals in the lattice coordinates reduce to raw power sums, which
raw_moments collects in a single pass per distribution into a MomentTable.
Tables and functionals are both written in the column coordinates (a, d),
d = a - b, of the distribution's storage: the table holds
sum(mass * a^p * d^r), and Functional.numerators, the one change of basis,
gives a functional's int coefficients in the same monomials.  MomentTable
is the one moment engine: every expectation, covariance and
degree/finite-weight covariance matrix in the package is read from one, as
int dot products of its power sums with those numerators and one division
at the end: cov pairs the terms of f and g and never builds f * g, and it
ends in the final division it shares with pushforward_covariance, which
sums per column without the image, and coordinate_covariance.  Per support
point the work is int arithmetic inside map, accumulate and sum only:
raw_moments makes degree + 1 additions per entry of each distinct column
vector (iterated prefix sums and a final sum) and no multiplication, and
turns their results into power sums per column, as vectors over the
columns.  Mirrored columns share one vector (see the Column storage comment
in demazure.py), so each pair is summed once.  pushforward is
demazure.image_measure on the two coordinates.  reference_formula exposes
the catalog of closed-form values the identity suites compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial
from operator import add, mul, sub
from typing import Callable, Iterable, Mapping, NamedTuple

from .demazure import WeightDistribution, image_measure
from .lattice import (
    Functional,
    HighestWeight,
    Scalar,
    degree_functional,
    finite_weight_functional,
    scaled_numerators,
)


class EmptyDistributionError(ValueError):
    """Moment of a distribution with zero total mass."""


class MomentTable(NamedTuple):
    """Total mass and the power sums sum(c * a^p * d^r), d = a - b, keyed by (p, r), from raw_moments.

    A read pairs these with Functional.numerators, the functional's int
    coefficients in the same monomials a^p * d^r.
    """

    mass: int
    sums: dict[tuple[int, int], int]

    def expect(self, f: Functional) -> Fraction:
        """Mean of f, exact; f's total degree must not exceed the table's."""
        q, nf = f.numerators()
        return Fraction(self._dot(nf, f), self.mass * q)

    def cov(self, f: Functional, g: Functional) -> Fraction:
        """E[fg] - E[f]E[g], with sum(c*f*g) read term pair by term pair: f * g is never built."""
        (qf, nf), (qg, ng) = f.numerators(), g.numerators()
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
            # the table holds every power sum of degree p + r <= its degree;
            # the change of basis keeps total degrees, and deg(fg) = deg f + deg g,
            # as Q[a, b] has no zero divisors
            degree, top = sum(f.total_degree for f in factors), max(i for i, _ in self.sums)
            msg = f"functional of degree {degree} exceeds the moment table's degree {top}"
            raise ValueError(msg) from None

    def covariance_matrix(self, hw: HighestWeight) -> CovarianceMatrix:
        """Covariance matrix of the pair (degree, finite weight); needs degree 2."""
        d, w = degree_functional(), finite_weight_functional(hw)
        return CovarianceMatrix(self.cov(d, d), self.cov(d, w), self.cov(w, w))


def raw_moments(mu: WeightDistribution, degree: int) -> MomentTable:
    """Total mass and the power sums sum(c * a^p * d^r), d = a - b, for p + r <= degree.

    Per column of fixed d = a - b, with hi one past its top row, the last
    entries of `degree` iterated prefix sums of the column vector, and the
    sum of the last one, are sum(c * C(w + k - 1, k)) for k <= degree,
    w = hi - a.  They depend on the vector alone, so this stage costs
    degree + 1 additions per entry of each distinct vector: columns that
    hold the same list, as the mirrored columns d and -n - d after D_1,
    d and m - d after D_0, and the level-1 strings k and N - k do, reuse
    one result.  Times k! these are the rising-factorial sums
    sum(c * w(w+1)...(w+k-1)), and multiplying by a = hi - w in that basis,

        a * w(w+1)...(w+k-1) = (hi + k) * w(w+1)...(w+k-1) - w(w+1)...(w+k),

    takes them to s_p = sum(c * a^p) in `degree` rounds of one column-vector
    map per k, for all columns at once.  The table entry (p, r) is the dot
    product of s_p with the per-column powers d^r.
    """
    if type(degree) is not int or degree < 0:
        raise ValueError("degree must be a nonnegative integer")
    his, ds, rows = [], [], []
    done: dict[int, list[int]] = {}  # id(vals) -> its stage; mu keeps every vals alive and unmutated
    for d, (a0, vals) in mu.columns():
        his.append(a0 + len(vals))
        ds.append(d)
        row = done.get(id(vals))
        if row is None:
            row = done[id(vals)] = []
            for _ in range(degree):
                vals = list(accumulate(vals))
                row.append(vals[-1])
            row.append(sum(vals))
        rows.append(row)
    t = [list(tk) for tk in zip(*rows)] if rows else [[] for _ in range(degree + 1)]
    for k in range(2, degree + 1):  # 0! = 1! = 1
        t[k] = list(map(mul, repeat(factorial(k)), t[k]))
    shifted = [his] + [list(map(add, his, repeat(k))) for k in range(1, degree)]  # hi + k
    s = [t[0]]
    for _ in range(degree):  # round p leaves t[k] = sum(c * a^p * w(w+1)...(w+k-1))
        t = [list(map(sub, map(mul, hk, tk), up)) for hk, tk, up in zip(shifted, t, t[1:])]
        s.append(t[0])
    powers = [[1] * len(ds)]
    for _ in range(degree):
        powers.append(list(map(mul, powers[-1], ds)))
    sums = {(p, r): sum(map(mul, s[p], powers[r])) for p in range(degree + 1) for r in range(degree + 1 - p)}
    return MomentTable(sums[(0, 0)], sums)


def expectation(mu: WeightDistribution, f: Functional) -> Fraction:
    """Mean of f under mu, an exact rational.  Raises on zero total mass."""
    return raw_moments(mu, f.total_degree).expect(f)


def covariance(mu: WeightDistribution, f: Functional, g: Functional) -> Fraction:
    """E[fg] - E[f]E[g] under mu, exact."""
    return raw_moments(mu, f.total_degree + g.total_degree).cov(f, g)


def variance(mu: WeightDistribution, f: Functional) -> Fraction:
    return covariance(mu, f, f)


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric 2x2 covariance of (degree, finite weight), exact rationals."""

    var_degree: Fraction
    covariance: Fraction
    var_finite_weight: Fraction

    def rows(self) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
        return ((self.var_degree, self.covariance), (self.covariance, self.var_finite_weight))

    def determinant(self) -> Fraction:
        return self.var_degree * self.var_finite_weight - self.covariance * self.covariance


def covariance_matrix(mu: WeightDistribution) -> CovarianceMatrix:
    """Covariance matrix of the pair (degree, finite weight) under mu."""
    return raw_moments(mu, 2).covariance_matrix(mu.hw)


@dataclass(frozen=True)
class CoordinateMap:
    """Pair of functionals (x, y) used to push a distribution forward."""

    x: Functional
    y: Functional


def pushforward(mu: WeightDistribution, cmap: CoordinateMap) -> dict[tuple[Scalar, Scalar], int]:
    """Image measure of mu under the coordinate map; cancels to 0 are dropped."""
    return image_measure(mu, (cmap.x, cmap.y))


def pushforward_covariance(mu: WeightDistribution, cmap: CoordinateMap) -> Fraction:
    """coordinate_covariance(pushforward(mu, cmap)), summed per column without building the image.

    On each column Functional.on_column gives x and y as int numerators (one
    int where constant), so mass, sum(c*x), sum(c*y) and sum(c*x*y) take at
    most three dot products.  Covariance is linear in the measure, so equal
    image points need not be merged first.
    """
    qx = qy = 1
    mass = sx = sy = sxy = 0
    for d, (a0, vals) in mu.columns():
        rows = range(a0, a0 + len(vals))
        (qx, xs), (qy, ys) = cmap.x.on_column(d, rows), cmap.y.on_column(d, rows)
        m = sum(vals)
        if type(xs) is int:
            cy = ys * m if type(ys) is int else sum(map(mul, vals, ys))
            cx, cxy = xs * m, xs * cy
        else:
            cxs = list(map(mul, vals, xs))
            ys = [ys] * len(vals) if type(ys) is int else list(ys)
            cx, cy, cxy = sum(cxs), sum(map(mul, vals, ys)), sum(map(mul, cxs, ys))
        mass, sx, sy, sxy = mass + m, sx + cx, sy + cy, sxy + cxy
    return _covariance(qx, qy, mass, sx, sy, sxy)


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
