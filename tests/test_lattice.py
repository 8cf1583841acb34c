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
from oracles import step


def test_highest_weight_validation():
    assert HighestWeight(1, 0).level == 1
    assert HighestWeight(2, 3).level == 5
    with pytest.raises(ValueError):
        HighestWeight(0, 0)
    with pytest.raises(ValueError):
        HighestWeight(-1, 2)
    with pytest.raises(TypeError):
        HighestWeight(1.5, 0)


def test_fundamental_weights():
    assert HighestWeight.fundamental(0) == HighestWeight(1, 0)
    assert HighestWeight.fundamental(1) == HighestWeight(0, 1)
    with pytest.raises(ValueError):
        HighestWeight.fundamental(2)


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
    with pytest.raises(TypeError):
        Functional({(0, 0): 1.5})
    with pytest.raises(ValueError):
        A ** (-1)


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
    # along most columns (an iterator over rows), (a - b)^2 + c along none
    # (one int)
    a, d = p[0], p[0] - p[1]
    for g in (f + (A - B) ** 2 - A, (A - B) ** 2 + f.evaluate(p)):
        q, nums = g.numerators()
        assert list(nums) == sorted(nums) and all(type(n) is int and n for _, n in nums)
        value = q * g.evaluate(p)
        assert sum(n * a**i * d**r for (i, r), n in nums) == value
        q_col, vals = g.on_column(d, range(a, a + 1))
        assert q_col == q
        assert ([vals] if type(vals) is int else list(vals)) == [value]
