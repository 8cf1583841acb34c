import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure_sl2 import (
    A,
    B,
    Functional,
    HighestWeight,
    LatticePoint,
    coroot_pairing,
    finite_weight_functional,
)
from demazure_sl2.lattice import degree_functional
from oracles import column_numerators, step


def test_highest_weight_validation():
    assert HighestWeight(1, 0).level == 1
    assert HighestWeight(2, 3).level == 5
    with pytest.raises(ValueError):
        HighestWeight(0, 0)
    with pytest.raises(ValueError):
        HighestWeight(-1, 2)
    with pytest.raises(TypeError):
        HighestWeight(1.5, 0)
    # int values only: a bool would reach the JSON header as true
    with pytest.raises(TypeError, match="highest weight coefficients must be integers"):
        HighestWeight(True, 0)
    with pytest.raises(ValueError, match="level m \\+ n must be at least 1"):
        HighestWeight(1, 0)._replace(m=0)


def test_fundamental_weights():
    assert HighestWeight.fundamental(0) == HighestWeight(1, 0)
    assert HighestWeight.fundamental(1) == HighestWeight(0, 1)
    with pytest.raises(ValueError):
        HighestWeight.fundamental(2)
    for j in (True, 1.0, 0.0):
        with pytest.raises(ValueError, match="^generator index must be 0 or 1$"):
            HighestWeight.fundamental(j)


def test_coroot_pairing_values():
    hw = HighestWeight(1, 0)
    assert coroot_pairing(0, hw, LatticePoint(0, 0)) == 1
    assert coroot_pairing(1, hw, LatticePoint(0, 0)) == 0
    assert coroot_pairing(0, hw, LatticePoint(2, 1)) == -1
    assert coroot_pairing(1, hw, LatticePoint(2, 1)) == 2
    hw2 = HighestWeight(2, 3)
    assert coroot_pairing(0, hw2, LatticePoint(4, 1)) == 2 - 6
    assert coroot_pairing(1, hw2, LatticePoint(4, 1)) == 3 + 6
    with pytest.raises(ValueError):
        coroot_pairing(2, hw, LatticePoint(0, 0))
    for j in (True, 1.0, False):
        with pytest.raises(ValueError, match="^generator index must be 0 or 1$"):
            coroot_pairing(j, hw, LatticePoint(0, 0))


def test_degree_and_finite_weight():
    hw = HighestWeight(0, 1)
    p = LatticePoint(3, 1)
    assert degree_functional().evaluate(p) == 3
    assert finite_weight_functional(hw).evaluate(p) == 5


def test_step_directions():
    p = LatticePoint(2, 5)
    assert step(p, 0, 3) == LatticePoint(5, 5)
    assert step(p, 1, -2) == LatticePoint(2, 3)
    with pytest.raises(ValueError):
        step(p, 2, 1)


def test_functional_algebra():
    diff = A - B
    sq = diff * diff
    assert sq.evaluate(LatticePoint(4, 1)) == 9
    assert sq == A * A - 2 * A * B + B * B
    assert (diff**2) == sq
    assert diff.total_degree == 1
    assert sq.total_degree == 2
    assert (sq * sq).total_degree == 4
    f = Functional({(0, 0): Fraction(1, 2), (1, 0): 1})
    assert f.evaluate(LatticePoint(3, 0)) == Fraction(7, 2)
    assert (f - f) == Functional()
    assert (-diff).evaluate(LatticePoint(1, 4)) == 3
    assert (2 * diff + 1).evaluate(LatticePoint(1, 0)) == 3


def test_functional_validation():
    with pytest.raises(ValueError):
        Functional({(-1, 0): 1})
    # exponents are ints, as for **: a float would print as 0.5*a, a bool as 1
    for key in ((0.5, 0), (0, 1.0), (True, 0), (0, False)):
        with pytest.raises(ValueError, match="^monomial exponents must be nonnegative integers$"):
            Functional({key: 1})
    with pytest.raises(TypeError):
        Functional({(0, 0): 1.5})
    with pytest.raises(ValueError):
        A ** (-1)
    for k in (True, 1.0):
        with pytest.raises(ValueError, match="^exponent must be a nonnegative integer$"):
            A**k


def test_functional_normalizes_integral_fractions():
    f = Functional({(1, 0): Fraction(4, 2)})
    assert f == 2 * A
    assert isinstance(f.evaluate(LatticePoint(1, 0)), int)


_points = st.builds(LatticePoint, st.integers(-9, 9), st.integers(-9, 9))
_coeffs = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)
_functionals = st.builds(
    Functional,
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs, max_size=5
    ),
)


def test_float_coefficients_raise_even_at_zero():
    with pytest.raises(TypeError):
        Functional({(1, 0): 0.0})
    with pytest.raises(TypeError):
        A * 0.0


@given(c=_coeffs)
@settings(max_examples=60, deadline=None)
def test_constant_functional_hashes_as_its_scalar(c):
    assert hash(Functional.constant(c)) == hash(c)
    assert Functional.constant(c) in {c}
    assert c in {Functional.constant(c)}


@given(f=_functionals, g=_functionals, p=_points)
@settings(max_examples=60, deadline=None)
def test_evaluation_is_ring_homomorphism(f, g, p):
    assert (f + g).evaluate(p) == f.evaluate(p) + g.evaluate(p)
    assert (f * g).evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (f - g).evaluate(p) == f.evaluate(p) - g.evaluate(p)


@given(f=_functionals, p=_points)
@settings(max_examples=100, deadline=None)
def test_numerators_and_on_column_are_f_in_column_coordinates(f, p):
    # q * f(a, b) = sum(n * a^p * (a - b)^r) over the numerators, and
    # on_column reads them on the column d = a - b; f + (a - b)^2 - a varies
    # along most columns (a range or an iterator over rows), (a - b)^2 + c
    # along none (one int)
    a, d = p[0], p[0] - p[1]
    for g in (f + (A - B) ** 2 - A, (A - B) ** 2 + f.evaluate(p)):
        q, nums = g.numerators()
        assert list(nums) == sorted(nums) and all(type(n) is int and n for _, n in nums)
        value = q * g.evaluate(p)
        assert sum(n * a**i * d**r for (i, r), n in nums) == value
        vals = g.on_column(d, range(a, a + 1))  # q * g, with q read from numerators() alone
        assert ([vals] if type(vals) is int else list(vals)) == [value]


def test_on_column_is_an_int_a_range_or_an_iterator_by_the_degree_in_a():
    # on the column of fixed d, q * f is one int where f is constant in a, a
    # range exactly where it is linear in a, and an iterator otherwise; the
    # degree in a is read off finite differences of evaluate alone.  a * d
    # and a^2 * d vanish at d = 0, where a^2 * d + a is linear.
    half = Fraction(1, 2)
    fs = (
        Functional(),
        Functional.constant(half),
        (A - B) ** 2 + 3,
        A,
        B,
        A - Fraction(7, 8),
        A * (A - B),
        half * A * B,
        A * A - A,
        A * A * (A - B),
        A * A * (A - B) + A,
        (A - 2) ** 3 - B,
    )
    for f in fs:
        q = f.numerators()[0]
        for d in range(-3, 4):
            values = [q * f.evaluate(LatticePoint(a, a - d)) for a in range(-4, 4)]
            degree = 0
            while len(set(values)) > 1:
                values = [v - u for u, v in zip(values, values[1:])]
                degree += 1
            for rows in (range(-2, 3), range(5, 6), range(-7, -1)):
                got = f.on_column(d, rows)
                want = [q * f.evaluate(LatticePoint(a, a - d)) for a in rows]
                kind = type(got) if type(got) in (int, range) else "iterator"
                assert kind == (int if degree == 0 else range if degree == 1 else "iterator"), (f, d)
                assert ([got] * len(rows) if degree == 0 else list(got)) == want, (f, d, rows)


def test_lattice_point_validation():
    # int coordinates only, on every route to an instance: a float point
    # would give float moments (A.evaluate(LatticePoint(1.5, 0)) == 1.5)
    for a, b in ((1.5, 0), (0, 2.0), (True, 0), (0, False), (None, 0)):
        with pytest.raises(TypeError, match="^lattice coordinates must be integers$"):
            LatticePoint(a, b)
    p = LatticePoint(3, -1)
    with pytest.raises(TypeError):
        p._replace(a=0.5)
    with pytest.raises(TypeError):
        LatticePoint._make([1, 1.0])
    assert LatticePoint._make([3, -1]) == p == (3, -1)
    assert hash(p) == hash((3, -1)) and {(3, -1): 7}[p] == 7
    assert pickle.loads(pickle.dumps(p)) == p
    assert (p.a, p.b) == (3, -1)


def test_functionals_are_stored_in_column_coordinates():
    # key (p, r) means a^p * d^r with d = a - b; B = a - d is where b enters
    assert Functional({(0, 1): 1}) == A - B
    assert B == Functional({(1, 0): 1, (0, 1): -1})
    assert A == Functional({(1, 0): 1})
    assert finite_weight_functional(HighestWeight(2, 3)) == Functional({(0, 0): 3, (0, 1): 2})
    assert Functional({(2, 1): 1}).evaluate(LatticePoint(3, 1)) == 3 * 3 * 2
    assert (A - B).numerators() == (1, (((0, 1), 1),))
    assert (Fraction(1, 2) * B * B).numerators() == (2, (((0, 2), 1), ((1, 1), -2), ((2, 0), 1)))


def test_functional_repr():
    assert repr(Functional()) == "Functional(0)"
    assert repr(A) == "Functional(1*a)"
    assert repr(B) == "Functional(-1*d + 1*a)"
    assert repr(A - B) == "Functional(1*d)"
    assert repr(Fraction(1, 2) + A * A - (A - B) ** 3) == "Functional(1/2 - 1*d^3 + 1*a^2)"
    assert repr(finite_weight_functional(HighestWeight(0, 1))) == "Functional(1 + 2*d)"
    assert repr(B * B) == "Functional(1*d^2 - 2*a*d + 1*a^2)"
    assert repr(-A) == "Functional(-1*a)"
    assert repr(Fraction(-1, 2) * A * B - Fraction(1, 3)) == "Functional(-1/3 + 1/2*a*d - 1/2*a^2)"


_ab_terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _coeffs, max_size=5)


@given(terms=_ab_terms)
@settings(max_examples=100, deadline=None)
def test_numerators_match_the_binomial_change_of_basis(terms):
    # f = sum(c * a^i * b^j) built with A/B arithmetic has the numerators
    # that expanding b = a - d binomially, term by term, gives
    f = Functional()
    for (i, j), c in terms.items():
        f = f + c * A**i * B**j
    assert f.numerators() == column_numerators(terms)
