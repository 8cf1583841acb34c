import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure_sl2 import (
    A,
    B,
    CoordinateMap,
    CovarianceMatrix,
    EmptyDistributionError,
    Functional,
    HighestWeight,
    WeightDistribution,
    WeylWord,
    covariance,
    covariance_matrix,
    distribution_chain,
    expectation,
    level1_distribution,
    pushforward,
    reference_formula,
    theorem_covariance_matrix,
    variance,
    weight_distribution,
)
from demazure_sl2 import demazure, moments
from demazure_sl2.moments import (
    coordinate_covariance,
    pushforward_covariance,
    raw_moments,
)
from frozen import REFERENCE_N6_PUSHED
from oracles import (
    brute_covariance,
    brute_expectation,
    brute_pushforward,
    random_functional,
    random_mirror_symmetric_pairs,
    random_signed_measure,
)

L0 = HighestWeight.fundamental(0)


@pytest.fixture(scope="module")
def mu6():
    return weight_distribution(L0, WeylWord(6, 0))


def test_moment_values_on_mu6(mu6):
    assert expectation(mu6, A) == Fraction(21, 4)
    assert expectation(mu6, A * A) == Fraction(263, 8)
    assert variance(mu6, A - B) == Fraction(3, 2)
    # mirror symmetry of the even word forces this covariance to vanish
    assert covariance(mu6, A, A - B) == 0


def test_expectation_requires_mass():
    with pytest.raises(EmptyDistributionError):
        expectation(WeightDistribution(L0, {}), A)
    cancelled = WeightDistribution(L0, {(0, 0): 2, (1, 1): -2})
    with pytest.raises(EmptyDistributionError):
        expectation(cancelled, A)
    # zero mass is reported before the degree check, even for a product above the table's degree
    table = raw_moments(cancelled, 1)
    for read in (lambda: table.cov(A * B, A), lambda: table.expect(A * A), lambda: table.cov(A, B)):
        with pytest.raises(EmptyDistributionError):
            read()


def test_raw_moments_table():
    # keys (p, r) of sum(c * a^p * d^r), d = a - b: both points lie on d = -1
    mu = WeightDistribution(L0, {(1, 2): 3, (0, 1): -1})
    mass, table = raw_moments(mu, 2)
    assert mass == 2
    assert table[(0, 0)] == 2
    assert table[(1, 0)] == 3
    assert table[(0, 1)] == 3 * -1 - 1 * -1
    assert table[(1, 1)] == 3 * -1
    assert table[(2, 0)] == 3
    assert table[(0, 2)] == 3 * 1 - 1 * 1
    assert set(table) == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (1, 1)}


def test_covariance_matrix_matches_theorem(mu6):
    got = covariance_matrix(mu6)
    assert got == theorem_covariance_matrix(6, 0)
    assert got.var_degree == Fraction(85, 16)
    assert got.covariance == 0
    assert got.var_finite_weight == 6
    assert got.rows() == ((Fraction(85, 16), 0), (0, 6))
    assert got.determinant() == Fraction(85 * 6, 16)


def test_covariance_matrix_mismatched_parity():
    mu1 = weight_distribution(L0, WeylWord(1, 0))
    got = covariance_matrix(mu1)
    assert got == CovarianceMatrix(Fraction(1, 4), Fraction(1, 2), Fraction(1))


def test_pushforward_matches_reference(mu6):
    diff = A - B
    pushed = pushforward(mu6, CoordinateMap(diff * diff, A))
    assert pushed == REFERENCE_N6_PUSHED
    assert sum(pushed.values()) == 64


def test_pushforward_drops_cancelled_cells():
    mu = WeightDistribution(L0, {(1, 0): 1, (0, 1): -1})
    cmap = CoordinateMap((A - B) ** 2, Functional.constant(0))
    assert pushforward(mu, cmap) == {}


def _with_key_types(measure):
    # Fraction(2) == 2, so compare the key types too: Fractions must stay Fractions
    return sorted((repr(key), c) for key, c in measure.items())


def test_pushforward_matches_pointwise_oracle():
    rng = random.Random(2024)
    third, half = Fraction(1, 3), Fraction(1, 2)
    maps = [
        CoordinateMap((A - B) ** 2, A),
        CoordinateMap(third * A * B - half * B * B + 3, A - Fraction(7, 8)),
        CoordinateMap((A - B - half) ** 2, B - Fraction(47, 8)),
        CoordinateMap(A**3 - 2 * B, Functional.constant(half)),
        CoordinateMap(Functional.constant(0), A + B),
        # both coordinates constant on every column of fixed a - b
        CoordinateMap((A - B - half) ** 2, third * (A - B)),
        # both coordinates vary along a column and repeat values on it
        CoordinateMap((A - 2) ** 2, (B - 1) ** 2 - A),
    ]
    for _ in range(40):
        mu = random_signed_measure(rng)
        # add the mirror image (a, b) -> (b, a) with negated masses: under maps
        # symmetric in a and b the masses cancel to zero
        summed = {tuple(p): c for p, c in mu.items()}
        for (a, b), c in mu.items():
            summed[(b, a)] = summed.get((b, a), 0) - c
        both = WeightDistribution(mu.hw, summed)
        for cmap in maps:
            for nu in (mu, both):
                got = pushforward(nu, cmap)
                assert _with_key_types(got) == _with_key_types(brute_pushforward(nu, (cmap.x, cmap.y)))
                if nu.total_mass():
                    assert coordinate_covariance(got) == brute_covariance(nu, cmap.x, cmap.y)
                    assert pushforward_covariance(nu, cmap) == coordinate_covariance(got)
                else:
                    with pytest.raises(EmptyDistributionError):
                        pushforward_covariance(nu, cmap)
        assert pushforward(both, CoordinateMap((A - B) ** 2, third * (A + B))) == {}


def test_pushforward_covariance_builds_no_image(mu6, monkeypatch):
    def refuse(*args):
        raise AssertionError("image_measure called")

    monkeypatch.setattr(moments, "image_measure", refuse)
    monkeypatch.setattr(demazure, "image_measure", refuse)
    x, y = A - B, A - Fraction(36, 8)
    got = pushforward_covariance(mu6, CoordinateMap(x * x, y))
    assert got == reference_formula("stretch_covariance", 6)


def test_coordinate_statistics():
    table = {(0, 0): 1, (2, 1): 1}
    assert coordinate_covariance(table) == Fraction(1, 2)
    with pytest.raises(EmptyDistributionError):
        coordinate_covariance({})


def test_pushforward_preserves_pair_moments(mu6):
    x = A - B
    y = A - Fraction(36, 8)
    direct = covariance(mu6, x * x, y)
    pushed = coordinate_covariance(pushforward(mu6, CoordinateMap(x * x, y)))
    assert direct == pushed == reference_formula("stretch_covariance", 6)


def test_reference_formula_values():
    assert reference_formula("var_degree", 6) == Fraction(85, 16)
    assert reference_formula("second_moment_lead", 6) == Fraction(263, 8)
    assert reference_formula("expected_lead", 6) == Fraction(21, 4)
    assert reference_formula("expected_lead", 5) == Fraction(7, 2)
    assert reference_formula("stretch_covariance", 6) == Fraction(15, 8)
    assert reference_formula("var_degree", 1) == 0


def test_reference_formula_errors():
    with pytest.raises(ValueError):
        reference_formula("no-such-formula", 4)
    with pytest.raises(ValueError):
        reference_formula("var_degree", 0)
    for N in (True, 1.0):
        with pytest.raises(ValueError, match="^word length must be a positive integer$"):
            reference_formula("var_degree", N)


def test_expect_above_table_degree_names_both_degrees():
    table = raw_moments(level1_distribution(4), 2)
    with pytest.raises(ValueError, match="degree 3 exceeds the moment table's degree 2"):
        table.expect(A**3)
    with pytest.raises(ValueError, match="degree 3 exceeds"):
        table.cov(A * B, A)


def test_table_cov_builds_no_product(monkeypatch):
    mu = level1_distribution(7)  # odd N: the lead coordinate is b
    table = raw_moments(mu, 4)
    sq = (A - B) * (A - B)
    f, g = A + B, sq - Fraction(1, 3) * A

    def refuse(self, other):
        raise AssertionError("Functional product built")

    monkeypatch.setattr(Functional, "__mul__", refuse)
    assert table.cov(f, g) == brute_covariance(mu, f, g)
    assert table.cov(B, sq) == reference_formula("stretch_covariance", 7)
    assert variance(mu, B) == reference_formula("var_degree", 7)


def test_reference_formulas_match_exact_moments_at_every_parity():
    sq = (A - B) * (A - B)
    tables = [raw_moments(level1_distribution(N), 4) for N in range(26)]
    for N in range(1, 25):
        now, after = tables[N], tables[N + 1]
        # lead = a for even N and b for odd N; nxt is the other coordinate
        lead, nxt = (A, B) if N % 2 == 0 else (B, A)
        exact = {
            "var_degree": now.cov(lead, lead),
            "stretch_covariance": now.cov(lead, sq),
            "second_moment_increment": after.expect(nxt * nxt) - now.expect(nxt * nxt),
            "cross_moment_increment": after.expect(nxt * nxt) - now.expect(lead * lead),
            "second_moment_lead": now.expect(lead * lead),
            "expected_lead": now.expect(lead),
        }
        assert exact.keys() == moments._FORMULAS.keys()
        for name, value in exact.items():
            assert value == reference_formula(name, N), (name, N)


def test_moments_match_brute_force_sweep():
    # table reads of int numerators against Fractions summed per support
    # point; a + b and a - b have cross terms that cancel in their product,
    # and the random functionals mix denominators
    rng = random.Random(97)
    diff, half = A - B, Fraction(1, 2)
    fixed = [(A, B), (diff, diff), (A * B, diff), (A + B, diff), (A, Functional())]
    fixed.append((half * A - Fraction(1, 3) * B, Fraction(2, 7) * B * B))
    for _ in range(50):
        mu = random_signed_measure(rng, max_abs=8, max_support=12)
        if mu.total_mass() == 0:
            continue
        table = raw_moments(mu, 4)
        for f, g in fixed + [(random_functional(rng), random_functional(rng)) for _ in range(3)]:
            assert expectation(mu, f) == table.expect(f) == brute_expectation(mu, f)
            assert covariance(mu, f, g) == table.cov(f, g) == brute_covariance(mu, f, g)


def test_raw_moments_degree4_match_pointwise_sums():
    # the power sums against the definition sum(c * a^p * (a - b)^r) point
    # by point, at every degree 0..6: on random signed measures, which reach
    # negative coordinates, and on genuine chains, whose long columns run
    # every round of the prefix sums and of the a^p recurrence
    rng = random.Random(4)
    measures = [random_signed_measure(rng) for _ in range(60)]
    for m, n, first in ((1, 0, 0), (2, 1, 1), (0, 3, 1)):
        measures += islice(distribution_chain(HighestWeight(m, n), first), 15)
    assert any(a < 0 or b < 0 for mu in measures for (a, b), _ in mu.items())
    assert max(len(vals) for mu in measures for _, (_, vals) in mu.columns()) > 10
    for mu in measures:
        pointwise = {(p, r): sum(c * a**p * (a - b) ** r for (a, b), c in mu.items()) for p in range(7) for r in range(7 - p)}
        for degree in range(7):
            mass, table = raw_moments(mu, degree)
            assert mass == mu.total_mass()
            assert table == {key: v for key, v in pointwise.items() if sum(key) <= degree}
    empty = WeightDistribution(L0, {})
    for degree in range(7):
        moments = raw_moments(empty, degree)
        assert moments.mass == 0
        assert set(moments.sums.values()) == {0}
        with pytest.raises(EmptyDistributionError):
            moments.expect(A)


def test_raw_moments_agrees_on_shared_and_unshared_columns():
    # raw_moments runs its column stage once per distinct list; columns that
    # share a list differ in d and a0, so everything after the stage stays
    # per column.  The rebuild from entries shares nothing.
    vals = [3, -1, 0, 2]
    cols = {-2: (0, vals), 1: (5, vals), 4: (-3, vals), 0: (1, [1, 4]), 6: (2, vals[:2])}
    mu = WeightDistribution.from_columns(HighestWeight(2, 1), cols)
    rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
    assert rebuilt == mu
    assert len({id(v) for _, (_, v) in rebuilt.columns()}) == len(cols)
    for degree in range(7):
        table = raw_moments(mu, degree)
        assert table == raw_moments(rebuilt, degree), degree
        keys = [(p, r) for p in range(degree + 1) for r in range(degree + 1 - p)]
        assert table.sums == {(p, r): sum(c * a**p * (a - b) ** r for (a, b), c in mu.items()) for p, r in keys}


def test_raw_moments_rejects_a_negative_degree():
    for mu in (weight_distribution(L0, WeylWord(3, 0)), WeightDistribution(L0, {})):
        for degree in (-1, True, 1.0):
            with pytest.raises(ValueError, match="^degree must be a nonnegative integer$"):
                raw_moments(mu, degree)


@given(
    pairs=st.integers(0, 2**30).map(
        lambda seed: random_mirror_symmetric_pairs(random.Random(seed))
    )
)
@settings(max_examples=60, deadline=None)
def test_mirror_symmetric_pairs_have_zero_covariance(pairs):
    assert coordinate_covariance(pairs) == 0
