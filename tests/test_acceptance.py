"""Acceptance gate: the ten headline guarantees, one test and line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion.  Everything is exact: no tolerance appears anywhere
except the explicitly asymptotic variance diagnostic inside criterion 9,
whose bound (1/N) is part of the statement being checked.
"""

import random
import time
from fractions import Fraction

import pytest

from demazure_sl2 import (
    A,
    B,
    HighestWeight,
    apply_demazure,
    conjecture_check,
    gaussian_binomial,
    level1_distribution,
    pushforward,
    wlln_series,
)
from demazure_sl2.asymptotics import CONJECTURED_DEGREE_VARIANCE
from demazure_sl2.moments import coordinate_covariance
from demazure_sl2.verify import SuiteContext, run_suite
from frozen import REFERENCE_N6, REFERENCE_N6_PUSHED
from oracles import (
    apply_demazure_pointwise,
    lattice_path_area_counts,
    random_mirror_symmetric_pairs,
    random_signed_measure,
)

L0 = HighestWeight.fundamental(0)


def _report(ok: bool, line: str) -> None:
    print(("PASS " if ok else "FAIL ") + line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def ctx():
    return SuiteContext()


def test_criterion_1_reference_table(ctx):
    mu6 = ctx.chain(L0, 0, 6)[6]
    got = {tuple(p): c for p, c in mu6.items()}
    ok = (
        got == REFERENCE_N6
        and len(got) == 42
        and mu6.total_mass() == 64
        and got[(4, 4)] == 3
        and got[(5, 6)] == 3
        and got[(7, 7)] == 2
        and got[(9, 12)] == 1
    )
    _report(ok, "criterion-1 length-6 distribution equals the 42-entry reference table (mass 64)")


def test_criterion_2_pushforward_table(ctx):
    mu6 = ctx.chain(L0, 0, 6)[6]
    diff = A - B
    pushed = pushforward(mu6, diff * diff, A)
    ok = pushed == REFERENCE_N6_PUSHED and sum(pushed.values()) == 64
    _report(ok, "criterion-2 pushforward under ((a-b)^2, a) equals the 26-cell reference table")


def test_criterion_3_closed_form_equals_recursion(ctx):
    chain = ctx.chain(L0, 0, 40)
    ok = all(level1_distribution(N) == chain[N] for N in range(0, 41))
    _report(ok, "criterion-3 level-1 closed form equals the operator recursion for all N <= 40")


def test_criterion_4_binomial_marginal(ctx):
    results = run_suite("sanderson", 40, ctx)
    marg = [r for r in results if r.name == "binomial-marginal"]
    ok = len(marg) == 40 and all(r.passed for r in results)
    _report(ok, "criterion-4 weight-difference marginal is the binomial row for all N <= 40")


def test_criterion_5_string_palindromicity(ctx):
    results = run_suite("palindrome", 40, ctx)
    ok = len(results) == 40 and all(r.passed for r in results)
    _report(ok, "criterion-5 per-string palindromicity holds for all N <= 40")


def test_criterion_6_moment_identities(ctx):
    results = run_suite("stretch", 40, ctx) + run_suite("recurrence", 40, ctx)
    ok = bool(results) and all(r.passed for r in results)
    _report(ok, "criterion-6 moment and recurrence identities hold exactly for 2 <= N <= 40")


def test_criterion_7_covariance_matrices(ctx):
    results = run_suite("covariance", 40, ctx)
    ok = len(results) == 2 * 40 * 3 and all(r.passed for r in results)
    _report(ok, "criterion-7 covariance matrices match the closed form for both weights, N <= 40")


def test_criterion_8_conjecture_table():
    ok = True
    for m in (2, 3, 4):
        report = conjecture_check(m, [2, 4, 6, 8, 10])
        ok = (
            ok
            and report.table_match
            and report.max_degree_match
            and report.fit.coefficients == CONJECTURED_DEGREE_VARIANCE[m]
        )
    _report(ok, "criterion-8 degree-variance cubics recovered exactly at levels 2-4 (held-out and max degree)")


def test_criterion_9_wlln_to_100():
    t0 = time.time()
    series = wlln_series(L0, list(range(10, 101, 10)))
    elapsed = time.time() - t0
    ok = len(series) == 10
    for s in series:
        ok = ok and s.max_degree == s.N * s.N // 4
        ok = ok and s.mean_degree_scaled == Fraction(1, 2) + Fraction(1, 2 * s.N)
        ok = ok and s.mean_finweight_scaled == 0
        ok = ok and abs(s.var_degree_scaled * s.N - Fraction(1, 3)) < Fraction(1, s.N)
    vd = [s.var_degree_scaled for s in series]
    vf = [s.var_finweight_scaled for s in series]
    ok = ok and all(x > y for x, y in zip(vd, vd[1:]))
    ok = ok and all(x > y for x, y in zip(vf, vf[1:]))
    _report(ok, f"criterion-9 rescaled WLLN summaries exact for N = 10..100 ({elapsed:.1f}s)")


def test_criterion_10_property_battery():
    rng = random.Random(20250825)
    ok = True
    for _ in range(200):
        mu = random_signed_measure(rng)
        j = rng.randint(0, 1)
        once = apply_demazure(j, mu)
        ok = ok and once == apply_demazure_pointwise(j, mu)
        ok = ok and apply_demazure(j, once) == once
    for _ in range(200):
        pairs = random_mirror_symmetric_pairs(rng)
        ok = ok and coordinate_covariance(pairs) == 0
    for N in range(0, 13):
        for k in range(0, N + 1):
            ok = ok and gaussian_binomial(N, k) == tuple(lattice_path_area_counts(N, k))
    _report(ok, "criterion-10 property battery: operator oracle + idempotence (200), symmetric covariances (200), path counts N <= 12")
