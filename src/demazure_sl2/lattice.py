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
coordinates a and b over the rationals.  Moments of weight distributions
are always expectations of such functionals, so keeping them symbolic and
exact (int / fractions.Fraction coefficients, no floats) is what makes
every identity in this package checkable as literal equality of rationals.
A Functional is written in a and b; Functional.numerators gives it in the
column coordinates (a, d), d = a - b, in which distributions are stored and
moment tables are summed.  That is the one change of basis in the package.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, product, repeat
from math import comb, lcm
from operator import add, mul
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]


class HighestWeight(namedtuple("HighestWeight", "m n")):
    """Dominant integral weight m*L0 + n*L1 (zero delta-component).

    A validated named tuple: m and n must be ints (not bools), and every
    route to an instance (the constructor, _make, _replace, copy and pickle)
    runs the checks.  Like LatticePoint it equals, and hashes as, the plain
    tuple (m, n).
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

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "HighestWeight":
        # namedtuple's own _make, which _replace calls, would skip __new__
        return cls(*iterable)

    @property
    def level(self) -> int:
        return self.m + self.n

    @classmethod
    def fundamental(cls, j: int) -> "HighestWeight":
        """The fundamental weight L_j, j in {0, 1}."""
        if type(j) is not int or j not in (0, 1):
            raise ValueError("generator index must be 0 or 1")
        return cls(1 - j, j)


class LatticePoint(NamedTuple):
    """Coordinates (a, b) of the weight Lambda - a*alpha0 - b*alpha1."""

    a: int
    b: int


def coroot_pairing(j: int, hw: HighestWeight, p: LatticePoint) -> int:
    """<alpha_j^, lambda> for lambda = hw - a*alpha0 - b*alpha1."""
    if type(j) is not int or j not in (0, 1):
        raise ValueError("generator index must be 0 or 1")
    d = p[0] - p[1]
    return hw.n + 2 * d if j else hw.m - 2 * d


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
    """Exact polynomial in the lattice coordinates a and b.

    Terms are stored as {(i, j): coefficient} for the monomial a^i * b^j
    with int or Fraction coefficients.  Supports +, -, *, ** and scalar
    multiplication; total degree is unbounded (moment identities here use
    up to degree 4).
    """

    __slots__ = ("_terms", "_numerators")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        data: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError("monomial exponents must be nonnegative")
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
        a, b = p[0], p[1]
        acc: Scalar = 0
        for (i, j), c in self._terms.items():
            acc += c * a**i * b**j
        return acc

    def numerators(self) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
        """(q, ((p, r), n) ...): the nonzero int coefficients n of q * f(a, a - d) in a^p * d^r, sorted.

        q is the lcm of the denominators.  These are the column coordinates
        of a distribution (columns of fixed d = a - b) and of its moment
        tables; b = a - d is expanded binomially here, once per functional,
        and nowhere else.
        """
        if self._numerators is None:
            q, ns = scaled_numerators(self._terms.values())
            form: dict[tuple[int, int], int] = {}
            for (i, j), n in zip(self._terms, ns):
                for k in range(j + 1):
                    key = (i + k, j - k)
                    form[key] = form.get(key, 0) + n * comb(j, k) * (-1) ** (j - k)
            self._numerators = q, tuple(sorted((key, n) for key, n in form.items() if n))
        return self._numerators

    def on_column(self, d: int, rows: range) -> tuple[int, int | Iterator[int]]:
        """(q, q * f(a, a - d) for a in rows), with q the lcm of the denominators.

        On the column b = a - d, f is a polynomial in a whose coefficients are
        read from the numerators at d, and it is evaluated in ints by Horner's
        rule over all rows at once.  Zero top coefficients are dropped; where
        f is constant on the column the second item is that one int instead
        of an iterator over the rows.
        """
        q, nums = self.numerators()
        poly = [0] * (nums[-1][0][0] + 1 if nums else 1)  # sorted, so the last term has the top power of a
        for (p, r), n in nums:
            poly[p] += n * d**r
        while len(poly) > 1 and not poly[-1]:
            poly.pop()
        if len(poly) == 1:
            return q, poly[0]
        vals = repeat(poly.pop(), len(rows))
        for p in reversed(poly):
            vals = map(add, map(mul, vals, rows), repeat(p))
        return q, vals

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
        bits = []
        for (i, j), c in sorted(self._terms.items()):
            mono = "a" * bool(i) + (f"^{i}" if i > 1 else "")
            mono += "b" * bool(j) + (f"^{j}" if j > 1 else "")
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return "Functional(" + " + ".join(bits) + ")"


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


#: the coordinate functionals themselves
A = Functional({(1, 0): 1})
B = Functional({(0, 1): 1})


def degree_functional() -> Functional:
    return A


def finite_weight_functional(hw: HighestWeight) -> Functional:
    return Functional({(0, 0): hw.n, (1, 0): 2, (0, 1): -2})
