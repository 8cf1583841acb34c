import dataclasses
import hashlib
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from demazure_sl2 import (
    CheckResult,
    CovarianceMatrix,
    HighestWeight,
    WeightDistribution,
    WeylWord,
    format_check,
    run_suite,
    theorem_covariance_matrix,
    weight_distribution,
)
from demazure_sl2 import demazure, moments, verify
from demazure_sl2.asymptotics import FitMismatchError
from demazure_sl2.verify import SUITE_NAMES, SuiteContext
from frozen import CONJECTURE_SUITE_SHA256


def test_theorem_covariance_matrix_values():
    assert theorem_covariance_matrix(1, 0) == CovarianceMatrix(
        Fraction(1, 4), Fraction(1, 2), Fraction(1)
    )
    assert theorem_covariance_matrix(5, 0) == CovarianceMatrix(
        Fraction(35, 8), Fraction(5, 2), Fraction(5)
    )
    assert theorem_covariance_matrix(6, 0) == CovarianceMatrix(
        Fraction(85, 16), Fraction(0), Fraction(6)
    )
    # parity match flips with the generator index
    assert theorem_covariance_matrix(5, 1).covariance == 0
    assert theorem_covariance_matrix(6, 1).covariance == 3
    with pytest.raises(ValueError):
        theorem_covariance_matrix(0, 0)
    with pytest.raises(ValueError):
        theorem_covariance_matrix(3, 2)
    for N in (True, 1.0):
        with pytest.raises(ValueError, match="^word length must be a positive integer$"):
            theorem_covariance_matrix(N, 0)
    for j in (True, 1.0):
        with pytest.raises(ValueError, match="^generator index must be 0 or 1$"):
            theorem_covariance_matrix(3, j)


def test_format_check_lines():
    ok = CheckResult("sanderson", "var-weight-diff", 4, "1", "1")
    bad = CheckResult("stretch", "stretch-cov", 7, "3/2", "5/2")
    assert format_check(ok) == "PASS var-weight-diff N=4 lhs=1 rhs=1"
    assert format_check(bad) == "FAIL stretch-cov N=7 lhs=3/2 rhs=5/2"


def test_every_suite_passes_at_small_depth():
    ctx = SuiteContext()
    for name in SUITE_NAMES:
        results = run_suite(name, 10, ctx)
        assert results, name
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        assert all(r.suite == name for r in results)


def test_each_suite_alone_prints_its_block_of_all():
    # no suite reads a chain that an earlier suite extended: each one alone,
    # on a fresh context, prints the lines it prints within "all" (the
    # recurrence suite reads mu_{max_N + 1})
    every = run_suite("all", 12)
    for name in SUITE_NAMES:
        assert run_suite(name, 12, SuiteContext()) == [r for r in every if r.suite == name], name


def test_conjecture_suite_needs_five_lengths_up_to_max_N():
    # the suite samples the even N <= min(10, max_N) and needs five of them
    assert not [r for r in run_suite("all", 9) if r.suite == "conjecture"]
    with pytest.raises(ValueError, match="has no checks at max_N=9"):
        run_suite("conjecture", 9)
    lines = "".join(format_check(r) + "\n" for r in run_suite("conjecture", 10))
    assert hashlib.sha256(lines.encode()).hexdigest() == CONJECTURE_SUITE_SHA256


def test_run_all_concatenates_in_order():
    results = run_suite("all", 4)
    seen = [r.suite for r in results]
    # suite blocks appear in declaration order
    order = [s for s in SUITE_NAMES for _ in range(seen.count(s))]
    assert seen == order
    assert all(r.passed for r in results)


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite("nope", 5)
    with pytest.raises(ValueError):
        run_suite("all", 0)
    for max_N in (True, 1.0):
        with pytest.raises(ValueError, match="^max_N must be at least 1$"):
            run_suite("sanderson", max_N)


def test_suite_context_caches_and_extends_chains():
    ctx = SuiteContext()
    hw = HighestWeight.fundamental(0)
    c5 = ctx.chain(hw, 0, 5)
    assert len(c5) == 6
    mu5 = c5[5]
    c9 = ctx.chain(hw, 0, 9)
    assert c9 is c5 and len(c9) == 10
    assert c9[5] is mu5  # extending appends; it recomputes no held prefix
    for t in (0, 3, 7):
        assert c9[t] == weight_distribution(hw, WeylWord(t, 0))
    # extending resumes the alternation on either parity of the stored length
    for other, first in ((HighestWeight.fundamental(1), 1), (HighestWeight(2, 1), 1)):
        c5 = ctx.chain(other, first, 5)
        c10 = ctx.chain(other, first, 10)
        assert c10 is c5 and len(c10) == 11
        for t in range(11):
            assert c10[t] == weight_distribution(other, WeylWord(t, first))
    t4 = moments.raw_moments(ctx.chain(hw, 0, 4)[4], 2)
    mass, table = t4
    assert mass == 16
    assert table[(0, 0)] == 16
    assert moments.raw_moments(ctx.chain(hw, 0, 4)[4], 2) == t4


def test_suite_context_applies_each_operator_once(monkeypatch):
    # every chain is read from demazure.distribution_chain, so counting the
    # calls of demazure.apply_demazure counts all the operator work
    calls = []
    original = demazure.apply_demazure
    monkeypatch.setattr(demazure, "apply_demazure", lambda j, mu: calls.append(j) or original(j, mu))
    L0, L1 = HighestWeight.fundamental(0), HighestWeight.fundamental(1)
    ctx = SuiteContext()
    ctx.chain(L0, 0, 5)
    del calls[:]
    ctx.chain(L0, 0, 9)
    assert calls == [1, 0, 1, 0]  # mu_6..mu_9: the alternation resumes where the chain stopped
    ctx.chain(L0, 0, 9)
    ctx.chain(L0, 0, 3)
    assert len(calls) == 4
    max_N = 10
    for suite in SUITE_NAMES:
        if suite == "conjecture":  # walks its own m*L0 chains in asymptotics
            continue
        ctx = SuiteContext()
        ctx.chain(L0, 0, max_N + 1)  # the recurrence suite reads mu_{N+1}
        ctx.chain(L1, 1, max_N)
        del calls[:]
        assert all(r.passed for r in run_suite(suite, max_N, ctx)), suite
        assert calls == [], suite


def test_run_all_sums_each_table_at_the_bounds_its_suites_read(monkeypatch):
    # each suite builds the tables it reads once, at the bounds it reads:
    # stretch mu_2..mu_12 and recurrence mu_2..mu_13 (it reads mu_{N+1} and
    # reuses it at N + 1) read degree 4 and degree 2 in a, 11 + 12 tables;
    # sanderson reads degree 3 and no power of a at mu_1..mu_12, 12 tables.
    # The covariance suite reads (2, 2) tables of both fundamental chains at
    # N = 1..12, and the conjecture suite one per level 2-4 at N = 2, 4, ...,
    # 10: 24 + 15.  Every table read is of a chain snapshot, whose column
    # sums were carried through the fold, so no table makes a pass over
    # entries
    stages, entry_passes = [], []
    original, entry_stage = moments._power_sums, moments._entry_sums
    monkeypatch.setattr(moments, "_power_sums", lambda mu, *bounds: stages.append(bounds) or original(mu, *bounds))
    monkeypatch.setattr(moments, "_entry_sums", lambda mu, *bounds: entry_passes.append(mu) or entry_stage(mu, *bounds))
    assert all(r.passed for r in run_suite("all", 12))
    assert set(stages) == {(4, 2), (3, 0), (2, 2)}
    assert stages.count((4, 2)) == 23 and stages.count((3, 0)) == 12 and stages.count((2, 2)) == 39
    assert entry_passes == []


def test_corrupted_chain_prints_fail_lines():
    ctx = SuiteContext()
    chain = ctx.chain(HighestWeight.fundamental(0), 0, 8)
    entries = dict(chain[5].items())
    entries[(3, 2)] += 1
    chain[5] = WeightDistribution(chain[5].hw, entries)
    lines = [format_check(r) for suite in ("sanderson", "palindrome") for r in run_suite(suite, 8, ctx)]
    assert [line for line in lines if not line.startswith("PASS ")] == [
        "FAIL binomial-marginal N=5 lhs=11 at t=1 rhs=10 at t=1",
        "FAIL var-weight-diff N=5 lhs=1328/1089 rhs=5/4",
        "FAIL cov-sqdiff-diff N=5 lhs=1312/1089 rhs=5/4",
        "FAIL string-palindrome N=5 lhs=mass(3, 2)=3 rhs=mirror mass",
    ]


def test_conjecture_fit_mismatch_prints_witness_lines(monkeypatch):
    def mismatch(m, N_list):
        raise FitMismatchError("not cubic on sampled range", [(10, Fraction(1), Fraction(2))])

    monkeypatch.setattr(verify, "conjecture_check", mismatch)
    assert [format_check(r) for r in run_suite("conjecture", 10)] == [
        f"FAIL conjecture-cubic-m{m} N=10 lhs=1 rhs=2" for m in (2, 3, 4)
    ]


def test_benchmark_counts_a_suite_fail_line_as_a_failed_job(monkeypatch):
    # bench/worker.py fails a suite job on its FAIL lines, not only when it raises
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    worker = importlib.import_module("worker")
    original = verify.run_suite

    def corrupted(*args):
        results = original(*args)
        return results[:-1] + [dataclasses.replace(results[-1], rhs=results[-1].rhs + "!")]

    monkeypatch.setattr(verify, "run_suite", corrupted)
    result = worker.run_pass([{"kind": "suite", "suite": "recurrence", "max_N": 6}], trace=False)
    assert [f["problems"] for f in result["failures"]] == [["FAIL first-moment-closed N=6 lhs=21/4 rhs=21/4!"]]


def test_suite_context_checks_word_lengths():
    # a bool length would read mu_1, a float one fail inside islice
    ctx = SuiteContext()
    hw = HighestWeight.fundamental(0)
    for N in (True, 2.0, -1):
        with pytest.raises(ValueError, match="^word length must be a nonnegative integer$"):
            ctx.chain(hw, 0, N)
    assert len(ctx.chain(hw, 0, 0)) == 1


def test_suite_context_checks_first_letters_before_its_chain_cache():
    # True and 1.0 equal and hash as 1, so an unchecked cache key would serve
    # them the chain cached for 1, where a fresh context raises; the degree
    # rule is raw_moments' own (test_raw_moments_rejects_a_negative_degree)
    ctx = SuiteContext()
    hw = HighestWeight.fundamental(0)
    assert ctx.chain(hw, 1, 3) is ctx.chain(hw, 1, 3)
    for first in (True, 1.0, 2):
        with pytest.raises(ValueError, match="^generator index must be 0 or 1$"):
            ctx.chain(hw, first, 3)


def test_suite_context_names_a_plain_tuple_before_its_cache():
    # (1, 0) equals and hashes as L0, so a lookup first would serve it L0's chain
    ctx = SuiteContext()
    ctx.chain(HighestWeight.fundamental(0), 0, 3)
    for bad, name in (((1, 0), "tuple"), (1, "int")):
        with pytest.raises(TypeError, match=f"^highest weight must be a HighestWeight, not {name}$"):
            ctx.chain(bad, 0, 3)
