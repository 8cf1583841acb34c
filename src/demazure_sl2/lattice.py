"""Weight-lattice coordinates for the rank-2 affine Cartan matrix ((2,-2),(-2,2)).

A dominant integral weight Lambda = m*L0 + n*L1 of level m+n determines the
affine lattice of weights Lambda - a*alpha0 - b*alpha1, indexed here by the
integer pair (a, b).  Everything downstream works in these coordinates:

* pairing with coroot 0:   <alpha0^, lambda> = m - 2*(a - b)
* pairing with coroot 1:   <alpha1^, lambda> = n + 2*(a - b)
* degree (pairing with -d, the grading by delta-steps): a
* finite weight: the coroot-1 pairing, i.e. the weight seen by the
  underlying finite sl2.

Sign convention.  The finite weight is taken with the Cartan-pairing sign
n + 2*(a - b); under it the degree/finite-weight covariance of a
parity-mismatched Demazure word is +N/2.  Some sources flip this sign
(equivalent up to the finite Weyl reflection); only the off-diagonal
covariance entries are affected.

The module also provides Functional, an exact polynomial algebra in the
lattice coordinates over the rationals.  Moments of weight distributions
are always expectations of such functionals, so keeping them symbolic and
exact (int / fractions.Fraction coefficients, no floats) is what makes
every identity in this package checkable as literal equality of rationals.
A Functional is stored in the column coordinates (a, d), d = a - b, in
which distributions are stored and moment tables are summed, so no read
changes basis: b enters only as the functional B = a - d.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, product, repeat
from math import lcm
from operator import add, mul
from typing import Collection, Iterable, Iterator, Mapping, TypeVar, Union

Scalar = Union[int, Fraction]
T = TypeVar("T")


class ValidatedTuple:
    """First base of a named tuple whose __new__ checks: its _make (so _replace) runs __new__, as copy and pickle do."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable) -> "ValidatedTuple":
        return cls(*iterable)


class HighestWeight(ValidatedTuple, namedtuple("HighestWeight", "m n")):
    """Dominant integral weight m*L0 + n*L1 (zero delta-component).

    A ValidatedTuple: m and n must be ints (not bools) on every route to an
    instance.  Like LatticePoint it equals, and hashes as, the plain tuple
    (m, n).
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int) -> "HighestWeight":
        if not (type(m) is int and type(n) is int):
            raise TypeError("highest weight coefficients must be integers")
        if m < 0 or n < 0:
            raise ValueError("highest weight must be dominant: m, n >= 0")
        if m + n < 1:
            raise ValueError("level m + n must be at least 1")
        return super().__new__(cls, m, n)

    @property
    def level(self) -> int:
        return self.m + self.n

    @classmethod
    def fundamental(cls, j: int) -> "HighestWeight":
        """The fundamental weight L_j, j in {0, 1}."""
        return cls(1 - generator_index(j), j)


class LatticePoint(ValidatedTuple, namedtuple("LatticePoint", "a b")):
    """Coordinates (a, b) of the weight Lambda - a*alpha0 - b*alpha1.

    A ValidatedTuple like HighestWeight: a and b must be ints (not bools),
    on every route to an instance.  It equals, and hashes as, the
    plain tuple (a, b), so either keys the same entry.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "LatticePoint":
        if not (type(a) is int and type(b) is int):
            raise TypeError("lattice coordinates must be integers")
        return super().__new__(cls, a, b)


def generator_index(j: int) -> int:
    """j, checked to be a generator index: the int 0 or 1, not a bool."""
    if type(j) is not int or j not in (0, 1):
        raise ValueError("generator index must be 0 or 1")
    return j


def word_length(N: int) -> int:
    """N, checked to be a word length: a nonnegative int, not a bool."""
    if type(N) is not int or N < 0:
        raise ValueError("word length must be a nonnegative integer")
    return N


def instance_of(value: T, cls: type[T], what: str) -> T:
    """value, checked to be a cls: a plain tuple or a scalar is not one; what names it in the error."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be a {cls.__name__}, not {type(value).__name__}")
    return value


def coroot_pairing(j: int, hw: HighestWeight, p: LatticePoint) -> int:
    """<alpha_j^, lambda> for lambda = hw - a*alpha0 - b*alpha1."""
    d = p[0] - p[1]
    return hw.n + 2 * d if generator_index(j) else hw.m - 2 * d


def scaled_numerators(values: Collection[Scalar]) -> tuple[int, list[int]]:
    """(q, [q * v for v in values]), all ints, with q the lcm of the denominators."""
    q = lcm(*(v.denominator for v in values))
    return q, [v.numerator * (q // v.denominator) for v in values]


def _norm_coeff(c: Scalar) -> Scalar:
    # keep integral coefficients as plain ints so integer functionals
    # evaluate in pure int arithmetic
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class Functional:
    """Exact polynomial in the column coordinates a and d = a - b.

    Terms are stored as {(p, r): coefficient} for the monomial a^p * d^r
    with int or Fraction coefficients; the constructor's keys mean the same,
    and B = a - d writes b.  Supports +, -, *, ** and scalar multiplication;
    total degree is unbounded (moment identities here use up to degree 4).
    """

    __slots__ = ("_terms", "_numerators")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        data: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (i, j), c in terms.items():
                if type(i) is not int or type(j) is not int or i < 0 or j < 0:
                    raise ValueError("monomial exponents must be nonnegative integers")
                c = _norm_coeff(c)
                if c:
                    data[(i, j)] = c
        self._terms = data
        self._numerators = None

    @classmethod
    def constant(cls, c: Scalar) -> "Functional":
        return cls({(0, 0): c})

    @property
    def total_degree(self) -> int:
        """Largest i + j over the support; 0 for the zero functional."""
        return max((i + j for i, j in self._terms), default=0)

    def evaluate(self, p: LatticePoint) -> Scalar:
        a, d = p[0], p[0] - p[1]
        acc: Scalar = 0
        for (i, r), c in self._terms.items():
            acc += c * a**i * d**r
        return acc

    def numerators(self) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
        """(q, ((p, r), n) ...): the nonzero int coefficients n of q * f in a^p * d^r, sorted.

        q is the lcm of the denominators.  The monomials are those of a
        distribution's columns (fixed d = a - b) and of its moment tables.
        """
        if self._numerators is None:
            q, ns = scaled_numerators(self._terms.values())
            self._numerators = q, tuple(sorted(zip(self._terms, ns)))
        return self._numerators

    def on_column(self, d: int, rows: range) -> int | Iterator[int]:
        """q * f(a, d) for a in rows, with q = numerators()[0], the lcm of the denominators.

        On the column of fixed d, f is a polynomial in a whose coefficients are
        read from the numerators at d, and it is evaluated in ints by Horner's
        rule over all rows at once.  Zero top coefficients are dropped; where
        f is constant on the column the result is that one int instead of an
        iterator over the rows.  The caller reads q once from numerators().
        """
        nums = self.numerators()[1]
        poly = [0] * (nums[-1][0][0] + 1 if nums else 1)  # sorted, so the last term has the top power of a
        for (p, r), n in nums:
            poly[p] += n * d**r
        while len(poly) > 1 and not poly[-1]:
            poly.pop()
        if len(poly) == 1:
            return poly[0]
        vals = repeat(poly.pop(), len(rows))
        for p in reversed(poly):
            vals = map(add, map(mul, vals, rows), repeat(p))
        return vals

    def __add__(self, other: "Functional | Scalar") -> "Functional":
        return _collect(chain(self._terms.items(), _as_functional(other)._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Functional":
        return _collect((k, -c) for k, c in self._terms.items())

    def __sub__(self, other: "Functional | Scalar") -> "Functional":
        return self + -other

    def __rsub__(self, other: "Functional | Scalar") -> "Functional":
        return _as_functional(other) - self

    def __mul__(self, other: "Functional | Scalar") -> "Functional":
        if isinstance(other, (int, Fraction)):
            return _collect((k, c * other) for k, c in self._terms.items())
        if not isinstance(other, Functional):
            return NotImplemented
        pairs = product(self._terms.items(), other._terms.items())
        return _collect(((i1 + i2, j1 + j2), c1 * c2) for ((i1, j1), c1), ((i2, j2), c2) in pairs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Functional":
        if type(k) is not int or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Functional.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_functional(other)
        if not isinstance(other, Functional):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a constant hashes as the scalar it equals
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "Functional(0)"
        text = ""
        for (i, r), c in sorted(self._terms.items()):
            powers = [x if k == 1 else f"{x}^{k}" for x, k in (("a", i), ("d", r)) if k]
            sign = "" if not text else " - " if c < 0 else " + "
            text += sign + "*".join([str(abs(c) if text else c), *powers])
        return f"Functional({text})"


def _collect(terms: Iterable[tuple[tuple[int, int], Scalar]]) -> Functional:
    """Functional of the terms summed per monomial; the constructor normalises them."""
    sums: dict[tuple[int, int], Scalar] = {}
    for key, c in terms:
        # a first term is stored as is: 0 + Fraction would build a new Fraction
        sums[key] = sums[key] + c if key in sums else c
    return Functional(sums)


def _as_functional(x: "Functional | Scalar") -> Functional:
    if isinstance(x, Functional):
        return x
    return Functional.constant(x)


#: the coordinate functionals a and b = a - d
A = Functional({(1, 0): 1})
B = Functional({(1, 0): 1, (0, 1): -1})


def degree_functional() -> Functional:
    return A


def finite_weight_functional(hw: HighestWeight) -> Functional:
    return Functional({(0, 0): hw.n, (0, 1): 2})
