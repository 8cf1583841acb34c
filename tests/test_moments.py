import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure_sl2 import (
    A,
    B,
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
    marginal,
    pushforward,
    reference_formula,
    theorem_covariance_matrix,
    variance,
    weight_distribution,
)
from demazure_sl2 import demazure, moments
from demazure_sl2.demazure import _pack
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
    assert got.determinant() == Fraction(85 * 6, 16)


def test_covariance_matrix_mismatched_parity():
    mu1 = weight_distribution(L0, WeylWord(1, 0))
    got = covariance_matrix(mu1)
    assert got == CovarianceMatrix(Fraction(1, 4), Fraction(1, 2), Fraction(1))


def test_pushforward_matches_reference(mu6):
    diff = A - B
    pushed = pushforward(mu6, diff * diff, A)
    assert pushed == REFERENCE_N6_PUSHED
    assert sum(pushed.values()) == 64


def test_pushforward_drops_cancelled_cells():
    mu = WeightDistribution(L0, {(1, 0): 1, (0, 1): -1})
    assert pushforward(mu, (A - B) ** 2, Functional.constant(0)) == {}


def _with_key_types(measure):
    # Fraction(2) == 2, so compare the key types too: Fractions must stay Fractions
    return sorted((repr(key), c) for key, c in measure.items())


def test_pushforward_matches_pointwise_oracle():
    rng = random.Random(2024)
    third, half = Fraction(1, 3), Fraction(1, 2)
    maps = [
        ((A - B) ** 2, A),
        (third * A * B - half * B * B + 3, A - Fraction(7, 8)),
        ((A - B - half) ** 2, B - Fraction(47, 8)),
        (A**3 - 2 * B, Functional.constant(half)),
        (Functional.constant(0), A + B),
        # both coordinates constant on every column of fixed a - b
        ((A - B - half) ** 2, third * (A - B)),
        # both coordinates vary along a column and repeat values on it
        ((A - 2) ** 2, (B - 1) ** 2 - A),
    ]
    for _ in range(40):
        mu = random_signed_measure(rng)
        # add the mirror image (a, b) -> (b, a) with negated masses: under maps
        # symmetric in a and b the masses cancel to zero
        summed = {tuple(p): c for p, c in mu.items()}
        for (a, b), c in mu.items():
            summed[(b, a)] = summed.get((b, a), 0) - c
        both = WeightDistribution(mu.hw, summed)
        for x, y in maps:
            for nu in (mu, both):
                got = pushforward(nu, x, y)
                assert _with_key_types(got) == _with_key_types(brute_pushforward(nu, (x, y)))
                if nu.total_mass():
                    assert coordinate_covariance(got) == brute_covariance(nu, x, y)
                    assert pushforward_covariance(nu, x, y) == coordinate_covariance(got)
                else:
                    with pytest.raises(EmptyDistributionError):
                        pushforward_covariance(nu, x, y)
        assert pushforward(both, (A - B) ** 2, third * (A + B)) == {}


def test_pushforward_takes_any_number_of_functionals():
    # one image routine for one, two or three axes, and marginal is its
    # one-axis image unpacked; key types are compared, as Fraction(2) == 2
    rng = random.Random(28)
    for _ in range(40):
        mu = random_signed_measure(rng)
        for fs in (
            (random_functional(rng),),
            (A - B,),
            tuple(random_functional(rng, rng.randint(0, 3)) for _ in range(3)),
            (A * A - B, Fraction(1, 3) * (A - B), Functional.constant(2)),
        ):
            got = pushforward(mu, *fs)
            assert _with_key_types(got) == _with_key_types(brute_pushforward(mu, fs))
        f = random_functional(rng)
        want = {v: c for (v,), c in pushforward(mu, f).items()}
        assert sorted(map(repr, marginal(mu, f).items())) == sorted(map(repr, want.items()))
    assert pushforward(WeightDistribution(L0, {(0, 0): 2, (1, 5): 3})) == {(): 5}


def test_pushforward_covariance_builds_no_image(mu6, monkeypatch):
    def refuse(*args):
        raise AssertionError("pushforward called")

    monkeypatch.setattr(moments, "pushforward", refuse)
    x, y = A - B, A - Fraction(36, 8)
    got = pushforward_covariance(mu6, x * x, y)
    assert got == reference_formula("stretch_covariance", 6)


def test_per_entry_readers_agree_with_the_oracles_on_shared_and_repeated_columns():
    # pushforward sums a constant column's mass once per distinct column
    # vector, and pushforward_covariance sums once per distinct (column
    # vector, values) and reuses it for every column that repeats the pair:
    # mirrored columns of a D_1 and a D_0 output share their vector, an
    # unpickled copy shares it again, and the hand-built measure has equal
    # lists on different rows (a = 0..2 at d = 0, a = 3..5 at d = 3), where
    # B and (a - b)^2 - 3(a - b) agree and A does not.  Neither reader reads
    # column sums: wrong ones change no value.
    lv2 = list(islice(distribution_chain(HighestWeight(2, 1), 1), 8))
    d1, d0 = lv2[6], lv2[7]  # the word (N, first=1) ends with D_1 for even N and D_0 for odd N
    hand = WeightDistribution(L0, {(0, 0): 1, (1, 1): 2, (2, 2): 3, (3, 0): 1, (4, 1): 2, (5, 2): 3})
    wrong = WeightDistribution.from_columns(d1.hw, d1._packed, d1._width, dict.fromkeys(d1._packed, (0, 0, 0)))
    diff = A - B
    pairs = (
        (diff * diff - diff, B),
        (diff * diff - 3 * diff, B),
        (Functional.constant(1), B),
        (diff, A),
        (Fraction(1, 3) * A * B, A * A - Fraction(1, 2)),
    )
    for mu in (d1, d0, pickle.loads(pickle.dumps(d0)), hand, wrong):
        rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
        assert rebuilt.column_sums is None and rebuilt == mu
        for x, y in pairs:
            want = brute_pushforward(mu, (x, y))
            cov = coordinate_covariance(want)
            for nu in (mu, rebuilt):
                assert _with_key_types(pushforward(nu, x, y)) == _with_key_types(want)
                assert pushforward_covariance(nu, x, y) == cov
            marg = {v: c for (v,), c in brute_pushforward(mu, (x,)).items()}
            assert marginal(mu, x) == marginal(rebuilt, x) == marg
    assert pushforward(hand, Functional.constant(1), B) == {(1, 0): 2, (1, 1): 4, (1, 2): 6}
    assert raw_moments(wrong, 1).mass == 0  # the table does read the wrong sums


def test_coordinate_statistics():
    table = {(0, 0): 1, (2, 1): 1}
    assert coordinate_covariance(table) == Fraction(1, 2)
    with pytest.raises(EmptyDistributionError):
        coordinate_covariance({})


def test_pushforward_preserves_pair_moments(mu6):
    x = A - B
    y = A - Fraction(36, 8)
    direct = covariance(mu6, x * x, y)
    pushed = coordinate_covariance(pushforward(mu6, x * x, y))
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


def test_steps_from_a_pickled_snapshot_read_carried_sums_alone(monkeypatch):
    # a pickled chain snapshot keeps its column sums, so the steps after it
    # bound their slots off them and the covariance matrix reads them: no
    # entry is decoded and no table sums entries, as from the original
    chain = distribution_chain(HighestWeight(4, 0), 0)
    snap = next(islice(chain, 20, None))
    want = covariance_matrix(next(islice(chain, 3, None)))  # mu_24
    calls = []

    def counted(name, original):
        return lambda *args: calls.append(name) or original(*args)

    for module, name in ((moments, "_entry_sums"), (demazure, "_unpack")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    mu = pickle.loads(pickle.dumps(snap))
    for j in (0, 1, 0, 1):
        mu = demazure.apply_demazure(j, mu)
    assert covariance_matrix(mu) == want
    assert calls == []


def test_raw_moments_agrees_on_shared_and_unshared_columns():
    # raw_moments runs its column stage once per distinct list; columns with
    # equal packed ints share one decoded list, and differ in d and a0, so
    # everything after the stage stays per column.  The rebuild from entries
    # packs each column apart, and its equal columns share one list too.
    vals = _pack([3, -1, 0, 2], 64)
    cols = {-2: (0, vals), 1: (5, vals), 4: (-3, vals), 0: (1, _pack([1, 4], 64)), 6: (2, _pack([3, -1], 64))}
    mu = WeightDistribution.from_columns(HighestWeight(2, 1), cols, 64, None)
    rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
    assert rebuilt == mu
    assert len({id(v) for _, (_, v) in mu.columns()}) == len({id(v) for _, (_, v) in rebuilt.columns()}) == 3
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


def test_raw_moments_keeps_its_highest_degree_table_on_the_distribution():
    # every degree's table equals a fresh table of a rebuilt distribution
    rng = random.Random(12)
    measures = [random_signed_measure(rng) for _ in range(20)] + [level1_distribution(9), WeightDistribution(L0, {})]
    for mu in measures:
        top = raw_moments(mu, 4)
        assert raw_moments(mu, 4) == top
        for degree in range(4):
            fresh = raw_moments(WeightDistribution(mu.hw, dict(mu.items())), degree)
            assert raw_moments(mu, degree) == fresh and fresh.degree == degree
        assert mu == WeightDistribution(mu.hw, dict(mu.items()))


def test_a_restricted_table_keeps_its_degree_error():
    mu = level1_distribution(5)
    raw_moments(mu, 4)
    table = raw_moments(mu, 1)
    assert table.expect(A) == expectation(level1_distribution(5), A)
    with pytest.raises(ValueError, match="^functional of degree 2 exceeds the moment table's degree 1$"):
        table.cov(A, A)


def test_raw_moments_checks_the_degree_before_its_memo():
    # True and 1.0 equal 1, but a memo read first would serve them the degree-1 table
    mu = level1_distribution(4)
    raw_moments(mu, 1)
    for degree in (True, 1.0, 4.0, None):
        with pytest.raises(ValueError, match="^degree must be a nonnegative integer$"):
            raw_moments(mu, degree)


def test_a_degree_tables_are_the_full_table_restricted():
    # every 0 <= a_degree <= degree <= 5 on random signed measures, whose
    # columns hold interior zeros, and on chains, whose mirrored columns
    # share one vector
    rng = random.Random(29)
    measures = [random_signed_measure(rng) for _ in range(30)]
    for m, n, first in ((1, 0, 0), (2, 1, 1), (0, 3, 1)):
        measures += islice(distribution_chain(HighestWeight(m, n), first), 2, 12, 3)
    assert any(0 in vals[1:-1] for mu in measures for _, (_, vals) in mu.columns())
    assert any(len({id(v) for _, (_, v) in mu.columns()}) < len(list(mu.columns())) for mu in measures)
    for mu in measures:
        full = raw_moments(mu, 5)
        for degree in range(6):
            for a_degree in range(degree + 1):
                table = raw_moments(mu, degree, a_degree)
                want = {(p, r): v for (p, r), v in full.sums.items() if p + r <= degree and p <= a_degree}
                assert table.mass == full.mass and table.sums == want, (degree, a_degree)
                assert (table.degree, table.a_degree) == (degree, a_degree)


def test_carried_column_sums_give_the_per_entry_tables():
    # a chain's distributions carry their columns' sums of c * a^p, p <= 2,
    # through the fold, and a pickle round trip, copy.copy and copy.deepcopy
    # keep them; a rebuild from the entries has none, so its tables are
    # summed from the entries
    rng = random.Random(30)
    weights = {(1, 0), (0, 1)}
    while len(weights) < 7:
        m = rng.randint(0, 5)
        weights.add((m, rng.randint(max(0, 1 - m), 5 - m)))
    for m, n in sorted(weights):
        for first in (0, 1):
            for N, mu in enumerate(islice(distribution_chain(HighestWeight(m, n), first), 13)):
                rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
                copies = (pickle.loads(pickle.dumps(mu)), copy.copy(mu), copy.deepcopy(mu))
                assert mu.column_sums is not None and rebuilt.column_sums is None and rebuilt == mu
                assert all(nu.column_sums == mu.column_sums and nu == mu for nu in copies)
                for degree in range(5):
                    for a_degree in range(min(degree, 2) + 1):
                        tables = [raw_moments(nu, degree, a_degree) for nu in (mu, rebuilt, *copies)]
                        assert tables[1:] == [tables[0]] * 4, (m, n, first, N, degree, a_degree)


@pytest.mark.parametrize(
    "m, n, first, Ns",
    [(2, 1, 1, (40, 50)), (1, 2, 0, (35, 45, 55)), (4, 0, 0, (30,))],
)
def test_carried_column_sums_past_64_bit_slots(m, n, first, Ns):
    # at levels 2-4 the multiplicities of these snapshots need 128-bit slots;
    # the sums carried through D_0 flips (n > 0) and D_1 folds there still
    # equal the table a rebuild from the entries sums from them
    chain = distribution_chain(HighestWeight(m, n), first)
    for N, mu in enumerate(islice(chain, max(Ns) + 1)):
        if N in Ns:
            assert mu._width == 128 and mu.column_sums is not None, N
            rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
            assert rebuilt.column_sums is None and raw_moments(mu, 2) == raw_moments(rebuilt, 2), N


def test_expectation_and_covariance_ask_for_the_degree_in_a_they_read(monkeypatch):
    # functionals of d = a - b alone have degree 0 in a, so a chain snapshot
    # serves them from its carried sums at any degree, with no pass over
    # entries; a rebuild from the entries carries none and sums them
    mu = next(islice(distribution_chain(HighestWeight(4, 0), 0), 23, None))
    copy_ = WeightDistribution(mu.hw, dict(mu.items()))
    d = A - B
    summed = []
    entry_sums = moments._entry_sums
    monkeypatch.setattr(moments, "_entry_sums", lambda *args: summed.append(args) or entry_sums(*args))
    got = covariance(mu, d * d, d), expectation(mu, d**3)
    assert summed == []
    assert got == (covariance(copy_, d * d, d), expectation(copy_, d**3))
    assert summed != []


def test_a_read_above_the_degree_in_a_names_that_degree():
    table = raw_moments(level1_distribution(6), 4, 2)
    assert table.expect(A * A) == expectation(level1_distribution(6), A * A)
    with pytest.raises(ValueError, match="^functional of degree 3 in a exceeds the moment table's degree 2 in a$"):
        table.expect(A**3)
    with pytest.raises(ValueError, match="^functional of degree 3 in a exceeds the moment table's degree 2 in a$"):
        table.cov(A, B * B)
    with pytest.raises(ValueError, match="^functional of degree 4 in a exceeds the moment table's degree 2 in a$"):
        table.cov(A * A, A * A)
    # a read above the degree names the degree first
    with pytest.raises(ValueError, match="^functional of degree 5 exceeds the moment table's degree 4$"):
        table.cov(A**3, A * A)


def test_raw_moments_checks_the_degree_in_a():
    mu = level1_distribution(4)
    for a_degree in (True, 1.0, -1):
        with pytest.raises(ValueError, match="^degree must be a nonnegative integer$"):
            raw_moments(mu, 2, a_degree)
    with pytest.raises(ValueError, match="^a_degree must not exceed degree$"):
        raw_moments(mu, 2, 3)


_MU3 = level1_distribution(3)


@pytest.mark.parametrize(
    "read, what",
    [
        (lambda: expectation(_MU3, 3), "functional must be a Functional, not int"),
        (lambda: variance(_MU3, 2), "functional must be a Functional, not int"),
        (lambda: covariance(_MU3, A, 2), "functional must be a Functional, not int"),
        (lambda: pushforward_covariance(_MU3, A, 2), "functional must be a Functional, not int"),
        (lambda: raw_moments(_MU3, 2).expect(3), "functional must be a Functional, not int"),
        (lambda: raw_moments(_MU3, 2).cov(A, (1, 0)), "functional must be a Functional, not tuple"),
        (lambda: covariance_matrix((1, 0)), "distribution must be a WeightDistribution, not tuple"),
        (lambda: raw_moments((1, 0), 2), "distribution must be a WeightDistribution, not tuple"),
        (lambda: pushforward_covariance((1, 0), A, B), "distribution must be a WeightDistribution, not tuple"),
        (lambda: pushforward((1, 0), A), "distribution must be a WeightDistribution, not tuple"),
    ],
    ids=[
        "expectation",
        "variance",
        "covariance",
        "pushforward_covariance",
        "table_expect",
        "table_cov",
        "covariance_matrix",
        "raw_moments",
        "pushforward_covariance_mu",
        "pushforward_mu",
    ],
)
def test_moment_readers_name_a_wrong_argument_in_one_line(read, what):
    with pytest.raises(TypeError, match=f"^{re.escape(what)}$"):
        read()


@given(
    pairs=st.integers(0, 2**30).map(
        lambda seed: random_mirror_symmetric_pairs(random.Random(seed))
    )
)
@settings(max_examples=60, deadline=None)
def test_mirror_symmetric_pairs_have_zero_covariance(pairs):
    assert coordinate_covariance(pairs) == 0
