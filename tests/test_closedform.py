import os
import subprocess
import sys
from itertools import islice
from math import comb
from pathlib import Path

import pytest

import demazure_sl2
from demazure_sl2 import (
    HighestWeight,
    LatticePoint,
    WeightDistribution,
    apply_demazure,
    distribution_chain,
    gaussian_binomial,
    level1_distribution,
    palindromicity_check,
    string_symmetry_shift,
)
from demazure_sl2.moments import raw_moments
from oracles import binomial_row, lattice_path_area_counts


def test_gaussian_binomial_small_values():
    assert gaussian_binomial(2, 1) == (1, 1)
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(5, 0) == (1,)
    assert gaussian_binomial(5, 5) == (1,)
    assert gaussian_binomial(3, -1) == ()
    assert gaussian_binomial(3, 4) == ()
    with pytest.raises(ValueError):
        gaussian_binomial(-1, 0)
    for k in (2.5, "2", True, 1.0):
        with pytest.raises(ValueError, match="^k must be an integer$"):
            gaussian_binomial(5, k)


def test_gaussian_binomial_counts_paths_by_area():
    for N in range(0, 13):
        for k in range(0, N + 1):
            assert gaussian_binomial(N, k) == tuple(lattice_path_area_counts(N, k))


def test_gaussian_binomial_satisfies_pascal_recurrence():
    for N in range(1, 31):
        for k in range(1, N):
            left = gaussian_binomial(N - 1, k - 1)
            right = gaussian_binomial(N - 1, k)
            want = [0] * (k * (N - k) + 1)
            want[: len(left)] = left
            for i, c in enumerate(right):
                want[k + i] += c
            assert gaussian_binomial(N, k) == tuple(want)


def test_gaussian_binomial_shape_up_to_60():
    for N in (10, 25, 41, 60):
        for k in range(0, N + 1):
            q = gaussian_binomial(N, k)
            assert len(q) == k * (N - k) + 1
            assert q == q[::-1]
            assert sum(q) == comb(N, k)


def test_row_cache_handles_out_of_order_requests():
    assert sum(gaussian_binomial(17, 3)) == comb(17, 3)
    assert sum(gaussian_binomial(9, 4)) == comb(9, 4)
    assert sum(gaussian_binomial(23, 11)) == comb(23, 11)


# Run in a fresh interpreter so rows built by earlier tests are not counted.
ROW_MEMORY_SCRIPT = """
import gc, tracemalloc
from demazure_sl2 import gaussian_binomial, level1_distribution
tracemalloc.start()
gaussian_binomial(40, 0)
gc.collect()
before = tracemalloc.get_traced_memory()[0]
for N in (16, 24, 32, 40):
    level1_distribution(N)
gc.collect()
print(before, tracemalloc.get_traced_memory()[0])
"""


def test_row_cache_holds_one_row():
    # no Gaussian binomial row outlives the call that built it: a sweep of
    # closed forms retains no memory beyond what one call left before it
    env = {**os.environ, "PYTHONPATH": str(Path(demazure_sl2.__file__).parents[1])}
    argv = [sys.executable, "-c", ROW_MEMORY_SCRIPT]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    before, retained = map(int, run.stdout.split())
    assert retained <= before, (before, retained)


def test_level1_matches_recursion(chain41):
    for N, mu in enumerate(chain41):
        assert level1_distribution(N) == mu, N


def test_level1_carried_sums_equal_the_entry_tables():
    # the closed form carries its column sums from the area sums of [N k]_q;
    # a rebuild from its entries carries none, so its table is summed from them
    for N in range(41):
        mu = level1_distribution(N)
        rebuilt = WeightDistribution(mu.hw, dict(mu.items()))
        assert mu.column_sums is not None and rebuilt.column_sums is None and rebuilt == mu
        assert raw_moments(mu, 4, 2) == raw_moments(rebuilt, 4, 2), N


def test_level1_chain_equals_the_closed_form_past_64_bit_slots():
    # the mass, which bounds the slots, passes 2^62 near N = 62, so the
    # chain's packed columns widen to 128-bit slots on the way to N = 70
    mu = next(islice(distribution_chain(HighestWeight.fundamental(0), 0), 70, None))
    assert mu._width == 128
    assert mu == level1_distribution(70)


def test_closed_form_at_slot_width_edges():
    # [N k]_q is built at q = 2^W with W = WeightDistribution.slot_width(2^N):
    # 64 at N = 62, 128 at N = 63 .. 126 and 192 at N = 127; both readers
    # equal the list recurrence
    widths = []
    for N in (62, 63, 64, 125, 126, 127):
        want = binomial_row(N, N)
        mu = level1_distribution(N)
        widths.append(mu._width)
        assert [gaussian_binomial(N, k) for k in range(N + 1)] == list(map(tuple, want)), N
        assert {d: vals for d, (_, vals) in mu.columns()} == {k - N // 2: want[k] for k in range(N + 1)}, N
    assert widths == [64, 128, 128, 128, 128, 192]


def test_level1_column_geometry():
    # string d = k - N//2 is [N k]_q on rows d^2 .. (N^2 - c)/4 + c*d, and
    # the palindromicity shift at its lowest row spans the whole string
    for N in range(0, 62):
        c = N % 2
        cols = dict(level1_distribution(N).columns())
        assert sorted(cols) == list(range(-(N // 2), N - N // 2 + 1)), N
        for d, (a0, vals) in cols.items():
            assert tuple(vals) == gaussian_binomial(N, d + N // 2), (N, d)
            assert (a0, a0 + len(vals) - 1) == (d * d, (N * N - c) // 4 + c * d), (N, d)
            assert string_symmetry_shift(N, LatticePoint(a0, a0 - d)) == len(vals) - 1, (N, d)


def test_level1_mirrored_strings_share_one_list():
    # strings k and N - k hold one coefficient list, as a D_j output does
    for N in range(12):
        cols = dict(level1_distribution(N).columns())
        for k in range(N + 1):
            assert cols[k - N // 2][1] is cols[N - k - N // 2][1], (N, k)


def test_level1_mirror_matches_the_l1_recursion(chain40_j1):
    # (L1, first letter 1) is (L0, first letter 0) with the generators
    # swapped, which swaps the coordinates a and b
    L1 = HighestWeight.fundamental(1)
    for N, mu in enumerate(chain40_j1):
        mirror = WeightDistribution(L1, {(b, a): c for (a, b), c in level1_distribution(N).items()})
        assert mirror == mu, N


def test_level1_odd_extends_even_by_one_step():
    for N in (1, 3, 7, 11):
        assert level1_distribution(N) == apply_demazure(0, level1_distribution(N - 1))
    with pytest.raises(ValueError):
        level1_distribution(-2)


@pytest.mark.parametrize("N", [2.0, 1.0, True, -1, "4", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda N: gaussian_binomial(N, 1),
        level1_distribution,
        lambda N: string_symmetry_shift(N, LatticePoint(0, 0)),
        lambda N: palindromicity_check(level1_distribution(4), N),
    ],
    ids=["gaussian_binomial", "level1_distribution", "string_symmetry_shift", "palindromicity_check"],
)
def test_closed_forms_reject_a_bad_word_length(call, N):
    with pytest.raises(ValueError, match="^word length must be a nonnegative integer$"):
        call(N)


def test_string_symmetry_shift_values():
    # even length: S = N^2/4 + (a-b)^2 - 2a
    assert string_symmetry_shift(6, LatticePoint(2, 2)) == 5
    assert string_symmetry_shift(6, LatticePoint(0, 0)) == 9
    # odd length: S = (N^2-1)/4 + (a-b)^2 - (a-b) - 2b
    assert string_symmetry_shift(5, LatticePoint(0, 0)) == 6
    assert string_symmetry_shift(5, LatticePoint(3, 3)) == 0
    with pytest.raises(ValueError):
        string_symmetry_shift(-1, LatticePoint(0, 0))


def test_string_symmetry_shift_reads_points_through_lattice_point():
    # a float coordinate would give a float shift, and a bool that of 1
    assert string_symmetry_shift(4, (1, 0)) == string_symmetry_shift(4, LatticePoint(1, 0)) == 3
    for p in ((1.5, 0), (True, 0)):
        with pytest.raises(TypeError, match="^lattice coordinates must be integers$"):
            string_symmetry_shift(4, p)


def test_shift_is_involutive_on_support(chain41):
    # the mirror of the mirror is the original point
    for N in range(1, 21):
        mu = chain41[N]
        for (a, b), _ in mu.items():
            s = string_symmetry_shift(N, LatticePoint(a, b))
            assert string_symmetry_shift(N, LatticePoint(a + s, b + s)) == -s


def test_palindromicity_on_computed_distributions(chain41):
    for N in range(1, 21):
        res = palindromicity_check(chain41[N], N)
        assert res.ok and res.witness is None and bool(res)


def test_palindromicity_reports_witness():
    mu6 = level1_distribution(6)
    broken = {tuple(p): c for p, c in mu6.items()}
    broken[(1, 0)] += 1
    res = palindromicity_check(WeightDistribution(mu6.hw, broken), 6)
    assert not res.ok
    assert res.witness is not None
    assert not bool(res)
