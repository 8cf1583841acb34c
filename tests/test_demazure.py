import copy
import pickle
from itertools import islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demazure_sl2 import (
    A,
    B,
    HighestWeight,
    LatticePoint,
    WeightDistribution,
    WeylWord,
    apply_demazure,
    coroot_pairing,
    degree_histogram,
    distribution_chain,
    finite_weight_functional,
    heatmap,
    level1_distribution,
    marginal,
    palindromicity_check,
    weight_distribution,
)
from demazure_sl2 import demazure
from demazure_sl2.serialize import distribution_csv, distribution_json
from frozen import MU2, MU3, MU5, SIGNED
from oracles import apply_demazure_pointwise, brute_pushforward, random_signed_measure, step, tensor_character_row

L0 = HighestWeight.fundamental(0)
L1 = HighestWeight.fundamental(1)


def test_weyl_word_letters():
    with pytest.raises(ValueError):
        WeylWord(-1, 0)
    with pytest.raises(ValueError):
        WeylWord(3, 2)
    # int values only: a float or bool would reach the JSON header as 1.0 or true
    with pytest.raises(ValueError, match="generator index must be 0 or 1"):
        WeylWord(2, 1.0)
    with pytest.raises(ValueError, match="word length must be a nonnegative integer"):
        WeylWord(True, 0)
    with pytest.raises(ValueError, match="word length must be a nonnegative integer"):
        WeylWord(3, 0)._replace(length=-1)
    # the chain refuses a bad first letter when it is asked for, before any next()
    for bad in (2, WeylWord(3, 0)):
        with pytest.raises(ValueError, match="generator index must be 0 or 1"):
            distribution_chain(L0, bad)


def test_weights_and_words_behave_as_frozen_values():
    hw, word = HighestWeight(m=1, n=0), WeylWord(length=3, first=1)
    assert repr(hw) == "HighestWeight(m=1, n=0)"
    assert repr(word) == "WeylWord(length=3, first=1)"
    assert repr(weight_distribution(hw, word)) == "WeightDistribution(hw=HighestWeight(m=1, n=0), support=4, mass=4)"
    assert hw == HighestWeight(1, 0) and not hw != HighestWeight(1, 0) and hw != HighestWeight(0, 1)
    assert word == WeylWord(3, 1) and word != WeylWord(3, 0) and word != WeylWord(2, 1)
    assert hash(HighestWeight(2, 1)) == hash((2, 1))
    assert hash(word) == hash(WeylWord(3, 1))
    for value, name in ((hw, "m"), (hw, "n"), (hw, "other"), (word, "length"), (word, "first"), (word, "other")):
        with pytest.raises(AttributeError):
            setattr(value, name, 2)
    for value in (hw, word):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
    bad = [
        (lambda: HighestWeight(1.5, 0), TypeError, "highest weight coefficients must be integers"),
        (lambda: HighestWeight(-1, 2), ValueError, "highest weight must be dominant: m, n >= 0"),
        (lambda: HighestWeight(0, 0), ValueError, "level m + n must be at least 1"),
        (lambda: WeylWord(-1, 0), ValueError, "word length must be a nonnegative integer"),
        (lambda: WeylWord(2.0, 0), ValueError, "word length must be a nonnegative integer"),
        (lambda: WeylWord(3, 2), ValueError, "generator index must be 0 or 1"),
    ]
    for build, error, message in bad:
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message


def test_distribution_basics():
    mu = WeightDistribution(L0, {(0, 0): 1, (1, 1): 0, (2, 2): -3})
    assert mu.support_size == 2  # zero entries are dropped
    assert mu.mass((1, 1)) == 0
    assert mu.mass((2, 2)) == -3
    assert mu.total_mass() == -2
    assert min(c for _, c in mu.items()) < 0
    assert dict(WeightDistribution.delta(L0).items()) == {LatticePoint(0, 0): 1}


def test_column_with_interior_gap():
    # one column d = 0 with a gap at a = 1, plus a lone point in column d = 3
    mu = WeightDistribution(L0, {(0, 0): 2, (2, 2): 5, (3, 0): -1})
    assert len(mu) == mu.support_size == 3
    assert mu.mass((1, 1)) == 0
    assert dict(mu.items()) == {LatticePoint(0, 0): 2, LatticePoint(2, 2): 5, LatticePoint(3, 0): -1}
    assert apply_demazure(0, mu) == apply_demazure_pointwise(0, mu)
    assert apply_demazure(1, mu) == apply_demazure_pointwise(1, mu)


def test_len_counts_nonzero_entries_after_cancellation():
    # under D_1 at L0, (1, 2) has k = -2 and sends -1 onto (1, 1), which
    # cancels the fixed point there: column d = 0 keeps a = 0 and a = 2
    mu = WeightDistribution(L0, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1})
    out = apply_demazure(1, mu)
    assert out == apply_demazure_pointwise(1, mu)
    assert dict(out.items()) == {LatticePoint(0, 0): 1, LatticePoint(2, 2): 1}
    assert any(0 in vals for _, (_, vals) in out.columns())  # the gap is stored
    assert len(out) == out.support_size == 2
    assert out.mass((1, 1)) == 0


def test_empty_distribution():
    empty = WeightDistribution(L0, {})
    assert empty == WeightDistribution(L0, {(4, 1): 0}) == WeightDistribution(L0)
    assert len(empty) == empty.support_size == 0
    assert empty.total_mass() == 0 and list(empty.items()) == []
    assert empty.sorted_items() == []
    assert empty.mass((0, 0)) == 0
    assert apply_demazure(0, empty) == empty
    assert apply_demazure(1, empty) == empty
    # k = -1 everywhere: the output is empty too
    assert apply_demazure(0, WeightDistribution(L0, {(1, 0): 3, (5, 4): 1})) == empty


def test_mass_reads_points_through_lattice_point():
    # a bool coordinate would read the mass at 1, and a float one fail as a list index
    mu = level1_distribution(4)
    assert mu.mass((2, 2)) == mu.mass(LatticePoint(2, 2)) == 2
    for p in ((1.5, 0), (True, 0), (1.0, 0)):
        with pytest.raises(TypeError, match="^lattice coordinates must be integers$"):
            mu.mass(p)


def test_mass_outside_column_range_is_zero():
    mu = weight_distribution(L0, WeylWord(6, 0))
    for (a, b), c in mu.items():
        assert mu.mass((a, b)) == c
    d_values = {a - b for (a, b), _ in mu.items()}
    for d in d_values:
        degrees = [a for (a, b), _ in mu.items() if a - b == d]
        assert mu.mass((min(degrees) - 1, min(degrees) - 1 - d)) == 0
        assert mu.mass((max(degrees) + 1, max(degrees) + 1 - d)) == 0
    assert mu.mass((0, 100)) == 0  # column absent


def test_rebuilt_distribution_equals_kernel_output():
    import random

    rng = random.Random(77)
    for _ in range(40):
        mu = random_signed_measure(rng)
        out = apply_demazure(rng.randint(0, 1), mu)
        assert WeightDistribution(out.hw, dict(out.items())) == out
    for first in (0, 1):
        mu = weight_distribution(HighestWeight(2, 1), WeylWord(9, first))
        assert WeightDistribution(mu.hw, dict(mu.items())) == mu


def test_mirrored_output_columns_share_one_list():
    # a D_j output is s_j-invariant and _fold stores one list per mirrored
    # pair: after D_1 columns d and -n - d, after D_0 columns d and m - d;
    # raw_moments sums each shared list once
    shared = 0
    for m, n in ((1, 0), (0, 1), (2, 1), (1, 3), (4, 0)):
        hw = HighestWeight(m, n)
        for first in (0, 1):
            for t, mu in enumerate(islice(distribution_chain(hw, first), 1, 10), start=1):
                j = (first + t - 1) % 2  # the letter applied last
                cols = dict(mu.columns())
                for d, (_, vals) in cols.items():
                    e = -n - d if j else m - d
                    assert cols[e][1] is vals, (m, n, first, t, d)
                    shared += e != d
    assert shared > 0


def test_sorted_and_string_orders():
    mu = WeightDistribution(L0, {(2, 0): 1, (0, 0): 1, (1, 2): 1, (1, 0): 1})
    assert [tuple(p) for p, _ in mu.sorted_items()] == [(0, 0), (1, 0), (1, 2), (2, 0)]


def test_sorted_items_order_on_gaps_single_column_and_empty():
    import random

    # interior zeros, negative coordinates and negative masses
    mu = WeightDistribution(L1, SIGNED)
    assert [(tuple(p), c) for p, c in mu.sorted_items()] == sorted(SIGNED.items())
    assert all(type(p) is LatticePoint for p, _ in mu.sorted_items())
    # a single column with a gap
    col = WeightDistribution(L0, {(5, 5): 1, (0, 0): 2, (2, 2): 3})
    assert [(tuple(p), c) for p, c in col.sorted_items()] == [((0, 0), 2), ((2, 2), 3), ((5, 5), 1)]
    empty = WeightDistribution(L0, {})
    assert empty.sorted_items() == []
    assert empty.degree_range() == (0, 0)
    rng = random.Random(5)
    for _ in range(60):
        mu = random_signed_measure(rng)
        assert mu.sorted_items() == sorted(mu.items())
        lo, hi = mu.degree_range()
        assert all(lo <= a < hi for (a, _), _ in mu.items())


def assert_padded_layout(pieces, expected):
    """pieces holds expected in order, "" in every other slot, and joins to expected's text."""
    assert [p for p in pieces if p] == expected
    assert all(p == "" for p in pieces if not p)
    assert "".join(pieces) == "".join(expected)


def test_canonical_pieces_format_once_per_column_row_b_and_distinct_vector():
    mu = level1_distribution(12)
    distinct = {id(vals): vals for _, (_, vals) in mu.columns()}
    calls = {"d": [], "a": [], "b": [], "mult": []}

    def field(axis):
        def piece(v):
            calls[axis].append(v)
            return "%s%d;" % (axis, v)

        return axis, piece

    pieces = mu.canonical_pieces([field(axis) for axis in calls])
    expected = ["%s%d;" % p for (a, b), c in sorted(mu.items()) for p in zip(calls, (a - b, a, b, c))]
    assert_padded_layout(pieces, expected)
    lo, hi = mu.degree_range()
    assert len(pieces) == len(calls) * len(dict(mu.columns())) * (hi - lo)  # F * K * R slots
    # mirrored strings share one list, so a per-point mult piece would run len(mu) times
    assert len(calls["mult"]) == sum(map(len, distinct.values())) < len(mu)
    assert sorted(calls["d"]) == sorted(d for d, _ in mu.columns())
    assert calls["a"] == list(range(lo, hi))
    assert len(calls["b"]) == len(set(calls["b"])) == max(calls["b"]) - min(calls["b"]) + 1
    assert WeightDistribution(L0, {}).canonical_pieces([field("a"), field("mult")]) == []


def test_canonical_pieces_of_no_fields_is_empty():
    assert level1_distribution(3).canonical_pieces([]) == []
    assert WeightDistribution(L0, {}).canonical_pieces([]) == []


def test_canonical_and_canonical_pieces_equal_sorted_items_oracle():
    import random

    rng = random.Random(41)
    cases = [random_signed_measure(rng) for _ in range(80)]
    cases += [WeightDistribution(L0, {(5, 5): 1, (0, 0): 2, (2, 2): 3}), WeightDistribution(L0, {})]
    cases += [level1_distribution(N) for N in range(0, 31, 3)]
    assert sum(0 in vals for mu in cases for _, (_, vals) in mu.columns()) >= 20  # interior zeros
    assert any(a < 0 or b < 0 for mu in cases for (a, b), _ in mu.items())
    assert any(len({id(v) for _, (_, v) in mu.columns()}) < len(dict(mu.columns())) for mu in cases)
    # a repeated axis, as the heatmap repeats "a" and "mult"; each field tags its text
    axes = ("mult", "a", "d", "b", "a", "mult")
    fields = [(axis, lambda v, i=i: "%d:%d;" % (i, v)) for i, axis in enumerate(axes)]
    for mu in cases:
        oracle = sorted(mu.items())
        ab = mu.canonical_pieces([("a", "%d,".__mod__), ("b", "%d;".__mod__)])
        assert "".join(ab) == "".join("%d,%d;" % tuple(p) for p, _ in mu.sorted_items())
        values = [{"a": a, "b": b, "d": a - b, "mult": c} for (a, b), c in oracle]
        expected = ["%d:%d;" % (i, v[axis]) for v in values for i, axis in enumerate(axes)]
        assert_padded_layout(mu.canonical_pieces(fields), expected)


def test_items_yields_one_plain_tuple_pair_per_support_point():
    import random

    rng = random.Random(23)
    cases = [WeightDistribution(L0, {}), WeightDistribution(L1, SIGNED)]
    cases += [random_signed_measure(rng) for _ in range(60)]
    assert sum(0 in vals for mu in cases for _, (_, vals) in mu.columns()) >= 20  # interior zeros
    for mu in cases:
        pairs = list(mu.items())
        assert all(type(p) is tuple and len(p) == 2 for p, _ in pairs)
        assert len(pairs) == len({p for p, _ in pairs}) == len(mu)
        assert all(c and mu.mass(p) == c for p, c in pairs)
        assert dict(mu.items()) == dict(mu.sorted_items())


def test_marginal_matches_pointwise_oracle():
    import random
    from fractions import Fraction

    rng = random.Random(11)
    fs = [A - B, (A - B) ** 2 * Fraction(1, 3), A * B - Fraction(5, 2) * B, A + B, B * 0]
    for _ in range(60):
        mu = random_signed_measure(rng)
        for f in fs:
            want = {key: c for (key,), c in brute_pushforward(mu, (f,)).items()}
            got = marginal(mu, f)
            # Fraction(2) == 2: compare the value types too
            assert sorted(map(repr, got.items())) == sorted(map(repr, want.items()))
    # columns whose masses cancel exactly
    assert marginal(WeightDistribution(L0, {(0, 0): 2, (3, 3): -2, (4, 1): 1}), A - B) == {3: 1}


def test_small_distributions_match_hand_expansion():
    assert dict(weight_distribution(L0, WeylWord(2, 0)).items()) == {
        LatticePoint(*k): v for k, v in MU2.items()
    }
    assert dict(weight_distribution(L0, WeylWord(3, 0)).items()) == {
        LatticePoint(*k): v for k, v in MU3.items()
    }
    mu5 = weight_distribution(L0, WeylWord(5, 0))
    assert dict(mu5.items()) == {LatticePoint(*k): v for k, v in MU5.items()}
    assert mu5.total_mass() == 32


def test_single_point_operator_cases():
    # k = 1: two-term string sum
    out = apply_demazure(0, WeightDistribution.delta(L0))
    assert dict(out.items()) == {LatticePoint(0, 0): 1, LatticePoint(1, 0): 1}
    # k = 0: fixed point
    assert apply_demazure(1, WeightDistribution.delta(L0)) == WeightDistribution.delta(L0)
    # k = -1: annihilated
    out = apply_demazure(0, WeightDistribution(L0, {(1, 0): 1}))
    assert out.support_size == 0
    # k = -2: one negative term
    hw2 = HighestWeight(2, 0)
    out = apply_demazure(0, WeightDistribution(hw2, {(2, 0): 1}))
    assert dict(out.items()) == {LatticePoint(1, 0): -1}
    # k = -3: two negative terms
    out = apply_demazure(0, WeightDistribution(L0, {(2, 0): 1}))
    assert dict(out.items()) == {LatticePoint(0, 0): -1, LatticePoint(1, 0): -1}
    for bad in (2, 1.0, True):
        with pytest.raises(ValueError, match="generator index must be 0 or 1"):
            apply_demazure(bad, WeightDistribution.delta(L0))


def test_running_sum_edge_cases_match_oracle():
    # at L0 under D_1 (C = 0): the antidominant column d = -3 sits on rows
    # 9..10, above every other column; at e = 1 column d = 1 and column
    # d = -2 cancel on row 5, so the running sum's bottom rows are zero
    mu = WeightDistribution(L0, {(5, 3): 1, (5, 4): 1, (5, 7): 2, (5, 5): 3, (9, 12): 4, (10, 13): -1})
    # at L1 under D_1 (C = -1, odd): column d = -1 has k = -1 and drops out
    odd = WeightDistribution(L1, {(5, 4): 1, (2, 2): 1, (3, 4): 7, (4, 6): 2})
    for m in (mu, odd):
        for j in (0, 1):
            assert apply_demazure(j, m) == apply_demazure_pointwise(j, m), (m, j)
    assert dict(apply_demazure(1, mu).columns()) == {
        2: (5, [1, 0, 0, 0, -4, 1]),
        -2: (5, [1, 0, 0, 0, -4, 1]),
        1: (9, [-4, 1]),
        -1: (9, [-4, 1]),
        0: (5, [3, 0, 0, 0, -4, 1]),
    }
    assert dict(apply_demazure(1, odd).columns()) == {
        1: (5, [1]),
        -2: (5, [1]),
        0: (2, [1, 0, -2, 1]),
        -1: (2, [1, 0, -2, 1]),
    }


def _string_column(j, s, r0, vals):
    """Points of string column s from row r0 up: column d = s on rows a for D_1, column d = -s on rows b for D_0."""
    d = s if j else -s
    return {((r, r - d) if j else (r + d, r)): c for r, c in enumerate(vals, r0)}


def test_running_int_restarts_after_cancelling_and_meets_rows_on_both_sides():
    # at (2, 2) both letters pair k = 2s + 2 (C = -2), and the sweep runs
    # e = 4..-1 over dominant string columns e and antidominant -3 - e.  At
    # e = 3 column -6 cancels column 4, so the running int is 0 mid-sweep;
    # then column -5 starts below row 5, the lowest row read so far, and
    # each later step reads one column below every row read and one above
    hw = HighestWeight(2, 2)
    for big, width in ((2**60, 64), (2**124, 128)):
        layout = [(4, 5, [big]), (-6, 5, [big]), (-5, 3, [2]), (1, 1, [big, 1]), (-4, 9, [1])]
        layout += [(0, 6, [5]), (-3, 0, [1, 1]), (-1, 4, [3])]
        for j in (0, 1):
            entries = {}
            for s, r0, vals in layout:
                entries.update(_string_column(j, s, r0, vals))
            mu = WeightDistribution(hw, entries)
            out = apply_demazure(j, mu)
            assert out == apply_demazure_pointwise(j, mu), (width, j)
            assert out._width == width
            keys = set(out.column_keys())
            sign = 1 if j else -1
            assert sign * 4 in keys and sign * 3 not in keys and sign * 2 in keys, (width, j)


def test_matches_definitional_oracle_on_chains():
    # level 1 to N = 12; at higher levels several antidominant columns
    # overlap per step
    cases = [(L0, 12), (L1, 12)]
    cases += [(HighestWeight(1, 1), 13), (HighestWeight(2, 1), 11), (HighestWeight(4, 0), 10), (HighestWeight(0, 3), 10)]
    for hw, N in cases:
        for first in (0, 1):
            # the oracle walks its own word: letter t is first for even t
            mu = WeightDistribution.delta(hw)
            for t, fast in enumerate(islice(distribution_chain(hw, first), 1, N + 1)):
                mu = apply_demazure_pointwise((first + t) % 2, mu)
                assert fast == mu, (hw, first, t)


def test_total_mass_doubles_on_matched_words():
    for N in range(1, 13):
        assert weight_distribution(L0, WeylWord(N, 0)).total_mass() == 2**N
        assert weight_distribution(L1, WeylWord(N, 1)).total_mass() == 2**N
        # a mismatched first letter wastes the first operator on a fixed point
        assert weight_distribution(L0, WeylWord(N, 1)).total_mass() == 2 ** (N - 1)
        assert weight_distribution(L1, WeylWord(N, 0)).total_mass() == 2 ** (N - 1)


def test_entries_positive_on_genuine_words():
    for N in range(0, 15):
        assert all(c >= 0 for _, c in weight_distribution(L0, WeylWord(N, 0)).items())


def test_distribution_chain_prefixes():
    chain = list(islice(distribution_chain(L0, 0), 9))
    assert len(chain) == 9
    for t in range(9):
        assert chain[t] == weight_distribution(L0, WeylWord(t, 0))


def test_marginal_of_weight_difference_is_binomial():
    for N in range(1, 9):
        mu = weight_distribution(L0, WeylWord(N, 0))
        got = marginal(mu, A - B)
        half = N // 2
        assert got == {t: comb(N, t + half) for t in range(-half, N - half + 1)}


def test_finite_weight_marginal_is_tensor_character_row():
    # an independent whole-marginal route at every level: the finite-weight
    # marginal of the word (N, first) is a product of sl2 characters
    weights = ((1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3), (2, 2), (4, 1), (1, 3), (3, 2))
    checked = 0
    for m, n in weights:
        hw = HighestWeight(m, n)
        w = finite_weight_functional(hw)
        for first in (0, 1):
            for N, mu in enumerate(islice(distribution_chain(hw, first), 1, 13), start=1):
                assert marginal(mu, w) == tensor_character_row(hw, first, N), (m, n, first, N)
                checked += 1
    assert checked == 240


def test_marginal_drops_cancelled_values():
    mu = WeightDistribution(L0, {(0, 0): 1, (1, 1): -1})
    assert marginal(mu, A - B) == {}
    assert marginal(mu, A) == {0: 1, 1: -1}


_entries = st.dictionaries(
    st.tuples(st.integers(-15, 15), st.integers(-15, 15)),
    st.integers(-5, 5).filter(bool),
    min_size=1,
    max_size=30,
)
_hws = st.sampled_from([HighestWeight(1, 0), HighestWeight(0, 1), HighestWeight(2, 1), HighestWeight(0, 3)])
_js = st.sampled_from([0, 1])


@given(hw=_hws, entries=_entries, j=_js)
@settings(max_examples=80, deadline=None)
def test_fast_operator_matches_definitional(hw, entries, j):
    mu = WeightDistribution(hw, entries)
    assert apply_demazure(j, mu) == apply_demazure_pointwise(j, mu)


# masses around the edges of 64- and 128-bit slots and past them, both signs
_EDGES = (2**62, 2**63, 2**126, 2**127, 2**200)
_big_masses = st.builds(lambda e, off, neg: (-1) ** neg * (e + off), st.sampled_from(_EDGES), st.integers(-2, 2), _js)
_points = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


def _cancelling_partner(hw, j, p):
    """The point on p's row in string column C - 1 - s: under D_j its string is p's, with the other sign.

    s = d = a - b and C = -n for j = 1 (rows a); s = -d and C = -m for j = 0
    (rows b).  Output column e takes both or neither, so a pair of equal
    masses cancels in every output column.
    """
    a, b = p
    return (a, a + hw.n + 1 + (a - b)) if j else (b + hw.m + 1 - (a - b), b)


@given(
    hw=_hws,
    entries=st.dictionaries(_points, _big_masses, min_size=1, max_size=8),
    pairs=st.lists(_points, max_size=4),
    pair_mass=_big_masses,
    j=_js,
    k=_js,
)
@settings(max_examples=120, deadline=None)
def test_operator_matches_definitional_at_slot_edges(hw, entries, pairs, pair_mass, j, k):
    # signed masses at the slot edges, with cancelling pairs, so output
    # columns and the bottom rows of the running sum cancel to zero; the
    # second application reads a signed input that carries no column sums
    for p in pairs:
        entries[p] = entries[_cancelling_partner(hw, j, p)] = pair_mass
    mu = WeightDistribution(hw, entries)
    once = apply_demazure(j, mu)
    assert once == apply_demazure_pointwise(j, mu)
    assert once.column_sums is None
    twice = apply_demazure(k, once)
    assert twice == apply_demazure_pointwise(k, apply_demazure_pointwise(j, mu))
    assert WeightDistribution(hw, dict(twice.items())) == twice


def test_slot_edges_cancel_and_fill_exactly():
    # a row summing to +-(2^63 - 1) fills a 64-bit slot; total masses of
    # 2^64 and past 2^200 take 128- and 256-bit slots
    cases = [
        WeightDistribution(L0, {(5, 4): 2**62, (5, 5): 2**62 - 1}),
        WeightDistribution(L0, {(5, 7): 2**62, (5, 8): 2**62 - 1}),
        WeightDistribution(L0, {(5, 4): 2**63, (5, 5): -(2**63) + 1}),
        WeightDistribution(L0, {(5, 4): 2**127 + 1, (6, 5): -(2**200), (6, 7): -(2**200)}),
    ]
    outs = [apply_demazure(1, mu) for mu in cases]
    assert [out._width for out in outs] == [64, 64, 128, 256]
    assert [max(out.items(), key=lambda item: abs(item[1]))[1] for out in outs[:2]] == [2**63 - 1, -(2**63) + 1]
    for mu, out in zip(cases, outs):
        assert out == apply_demazure_pointwise(1, mu)
        assert apply_demazure(0, out) == apply_demazure_pointwise(0, apply_demazure_pointwise(1, mu))
    # every column of a pair cancels: the output is empty
    pairs = {p: 2**200 for q in ((0, 0), (3, 1), (4, 8)) for p in (q, _cancelling_partner(L0, 1, q))}
    assert apply_demazure(1, WeightDistribution(L0, pairs)) == WeightDistribution(L0)


def test_packed_columns_decode_and_widen_at_every_width():
    # the packed form behind the operator: entries up to +-(2^(W-1) - 1), interior zeros
    from demazure_sl2.demazure import _pack, _unpack, _widen

    for width in (64, 128, 192, 320):
        edge = 2 ** (width - 1) - 1
        for vals in ([1], [-1], [edge], [-edge], [edge, 0, -edge, 1], [-1, 0, 0, edge], [3, -(2**62), 2**62, -edge]):
            x = _pack(vals, width)
            assert _unpack(x, width, True) == vals, (width, vals)
            assert _unpack(_widen(x, width, width + 128), width + 128, True) == vals, (width, vals)
            if min(vals) >= 0:  # a column with no negative entry decodes without the offset
                assert _unpack(x, width, False) == vals, (width, vals)


def test_every_route_stores_packed_columns_and_decodes_nothing(monkeypatch):
    # the lists are only the view decoded on the first read of entries: no
    # route to a distribution decodes, column keys and degree bounds read the
    # packing, and a copy reuses the packed ints
    decoded = []
    unpack = demazure._unpack
    monkeypatch.setattr(demazure, "_unpack", lambda *args: decoded.append(args) or unpack(*args))
    hw = HighestWeight(2, 1)
    entries = {(0, 0): 3, (1, 0): -2, (2, 1): 0, (1, 3): 5, (4, 2): 2**70}
    hand = WeightDistribution(hw, entries)
    snap = weight_distribution(hw, WeylWord(9, 1))
    routes = {
        "__init__": hand,
        "delta": WeightDistribution.delta(hw),
        "from_columns": WeightDistribution.from_columns(hw, hand._packed, hand._width, None),
        "distribution_chain": snap,
        "copy": copy.copy(snap),
        "deepcopy": copy.deepcopy(snap),
        "pickle": pickle.loads(pickle.dumps(snap)),
        "level1_distribution": level1_distribution(20),
    }
    for name, mu in routes.items():
        assert mu._lists is None and mu._width % 64 == 0, name
        assert all(type(x) is int and x for _, x in mu._packed.values()), name
        assert list(mu.column_keys()) == list(mu._packed), name
        mu.degree_range()
    assert hand.degree_range() == (0, 5) and sorted(hand.column_keys()) == [-2, 0, 1, 2]
    assert decoded == []
    for name in ("copy", "deepcopy"):
        assert all(routes[name]._packed[d][1] is x for d, (_, x) in snap._packed.items()), name
    assert all(mu == snap for mu in (routes["copy"], routes["deepcopy"], routes["pickle"]))
    assert routes["from_columns"] == hand and dict(hand.items()) == {p: c for p, c in entries.items() if c}
    out = apply_demazure(0, hand)  # reads the input's entries to bound its slots
    assert out._lists is None and out == apply_demazure_pointwise(0, hand)


def test_apply_demazure_leaves_its_input_untouched():
    # at level 1 the mass passes 2^63 after mu_63, so D_1 on mu_63 needs
    # 128-bit slots: the output holds them, and mu_63 keeps its 64-bit packing
    mu = next(islice(distribution_chain(L0, 0), 63, None))
    packed, state = mu._packed, (mu.hw, dict(mu._packed), mu._width, mu.column_sums)
    assert mu._width == 64
    out = apply_demazure(1, mu)
    assert out._width == 128 and mu._width == 64 and mu._packed is packed
    assert (mu.hw, mu._packed, mu._width, mu.column_sums) == state
    assert out == level1_distribution(64)
    # a signed input packed at 64 bits, whose slots widen from its entries' bound
    cols = {1: (5, demazure._pack([2**62], 64)), 0: (5, demazure._pack([-(2**62)], 64))}
    hand = WeightDistribution.from_columns(L0, cols, 64, None)
    out = apply_demazure(1, hand)
    assert out._width == 128 and hand._width == 64 and hand._packed is cols
    assert out == apply_demazure_pointwise(1, hand)


def test_copies_and_pickles_keep_column_sums_and_shared_vectors():
    # the column sums are state, so every copy keeps them and reads its tables
    # off them; mirrored columns share one decoded list in every copy, as the
    # decode runs once per distinct int value, and pickle does not keep ints shared
    for (m, n), first, N in (((4, 0), 0, 23), ((4, 0), 0, 22), ((2, 1), 1, 27), ((1, 0), 0, 30)):
        hw = HighestWeight(m, n)
        snap = next(islice(distribution_chain(hw, first), N, None))
        copies = {"copy": copy.copy(snap), "deepcopy": copy.deepcopy(snap), "pickle": pickle.loads(pickle.dumps(snap))}
        shared = len({id(vals) for _, (_, vals) in snap.columns()})
        assert shared < len(list(snap.column_keys()))
        for name, nu in copies.items():
            assert nu.column_sums == snap.column_sums and nu.column_sums is not None, (hw, N, name)
            assert nu == snap and nu._width == snap._width, (hw, N, name)
            assert len({id(vals) for _, (_, vals) in nu.columns()}) == shared, (hw, N, name)


@given(hw=_hws, entries=_entries, j=_js)
@settings(max_examples=80, deadline=None)
def test_operator_is_idempotent(hw, entries, j):
    once = apply_demazure(j, WeightDistribution(hw, entries))
    assert apply_demazure(j, once) == once


@given(hw=_hws, entries=_entries, j=_js)
@settings(max_examples=60, deadline=None)
def test_output_is_reflection_symmetric(hw, entries, j):
    out = apply_demazure(j, WeightDistribution(hw, entries))
    for p, c in out.items():
        mirror = step(p, j, coroot_pairing(j, hw, p))
        assert out.mass(mirror) == c


@given(hw=_hws, entries=_entries, j=_js)
@settings(max_examples=60, deadline=None)
def test_operator_never_mutates_a_vector(hw, entries, j):
    # column vectors are shared between columns and distributions, and the
    # kernel adds into lists of its own: no input vector may change
    def snapshot(mu):
        return [(d, r0, list(vals)) for d, (r0, vals) in mu.columns()]

    mu = WeightDistribution(hw, entries)
    before = snapshot(mu)
    once = apply_demazure(j, mu)
    assert snapshot(mu) == before
    after_once = snapshot(once)
    for k in (j, 1 - j):
        apply_demazure(k, once)
        assert snapshot(once) == after_once
        assert snapshot(mu) == before


@given(hw=_hws, e1=_entries, e2=_entries, j=_js)
@settings(max_examples=60, deadline=None)
def test_operator_is_linear(hw, e1, e2, j):
    combined: dict[tuple[int, int], int] = dict(e1)
    for k, v in e2.items():
        combined[k] = combined.get(k, 0) + v
    lhs = apply_demazure(j, WeightDistribution(hw, combined))
    d1 = apply_demazure(j, WeightDistribution(hw, e1))
    d2 = apply_demazure(j, WeightDistribution(hw, e2))
    summed: dict[tuple[int, int], int] = {tuple(p): c for p, c in d1.items()}
    for p, c in d2.items():
        key = tuple(p)
        summed[key] = summed.get(key, 0) + c
    assert lhs == WeightDistribution(hw, summed)


def test_seeded_idempotence_battery():
    import random

    rng = random.Random(1352)
    for _ in range(120):
        mu = random_signed_measure(rng)
        j = rng.randint(0, 1)
        once = apply_demazure(j, mu)
        assert once == apply_demazure_pointwise(j, mu)
        assert apply_demazure(j, once) == once


def test_distribution_entries_must_be_ints():
    # a float mass would pass through apply_demazure and print as "%d"; a
    # bool coordinate or mass would print as True
    for entries in ({(0, 0): 1.5}, {(0, 0): 0.0}, {(0, 0): True}, {(0.0, 0): 1}, {(0, False): 1}):
        with pytest.raises(TypeError, match="^distribution coordinates and masses must be integers$"):
            WeightDistribution(L0, entries)
    assert WeightDistribution(L0, {LatticePoint(1, 1): 2, (0, 0): 0}).sorted_items() == [((1, 1), 2)]


def test_readers_name_a_plain_tuple_or_scalar_in_one_line():
    mu = weight_distribution(L0, WeylWord(3, 0))
    with pytest.raises(TypeError, match="^functional must be a Functional, not int$"):
        marginal(mu, 3)
    with pytest.raises(TypeError, match="^word must be a WeylWord, not tuple$"):
        weight_distribution(L0, (3, 0))
    with pytest.raises(TypeError, match="^highest weight must be a HighestWeight, not tuple$"):
        distribution_chain((1, 0), 0)
    # a distribution checks its weight when built, not in the first operator or moment read
    for build in (lambda: WeightDistribution((1, 0), {(0, 0): 1}), lambda: WeightDistribution.delta((1, 0))):
        with pytest.raises(TypeError, match="^highest weight must be a HighestWeight, not tuple$"):
            build()
    # the operator, the palindrome check and the writers check the distribution they read
    readers = (
        lambda: apply_demazure(1, (1, 0)),
        lambda: palindromicity_check((1, 0), 3),
        lambda: heatmap((1, 0)),
        lambda: degree_histogram((1, 0)),
        lambda: distribution_csv((1, 0)),
        lambda: distribution_json((1, 0), WeylWord(3, 0)),
    )
    for read in readers:
        with pytest.raises(TypeError, match="^distribution must be a WeightDistribution, not tuple$"):
            read()
