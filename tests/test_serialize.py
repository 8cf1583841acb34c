import copy
import gc
import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest

from demazure_sl2 import (
    HighestWeight,
    WeightDistribution,
    WeylWord,
    conjecture_check,
    heatmap,
    level1_distribution,
    weight_distribution,
    wlln_series,
)
from demazure_sl2 import demazure
from demazure_sl2.demazure import _pack
from demazure_sl2.serialize import (
    conjecture_json,
    distribution_csv,
    distribution_json,
    format_rational,
    wlln_csv,
)

from frozen import PADDED_ENDS, READ_PATH_SHA256, SIGNED
from oracles import csv_per_point, heatmap_per_point, json_dumps_oracle, random_signed_measure

L0 = HighestWeight.fundamental(0)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(4) == "4"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(-7) == "-7"
    # a float would print its binary expansion, 3602879701896397/36028797018963968
    for bad in (0.1, 2.0, "1/2"):
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            format_rational(bad)


def test_distribution_csv_exact_bytes():
    mu = weight_distribution(L0, WeylWord(2, 0))
    assert distribution_csv(mu) == "a,b,mult\n0,0,1\n1,0,1\n1,1,1\n1,2,1\n"


def test_distribution_json_schema():
    word = WeylWord(3, 0)
    mu = weight_distribution(L0, word)
    text = distribution_json(mu, word)
    assert text.endswith("\n") and "\r" not in text
    doc = json.loads(text)
    assert doc["highest_weight"] == {"m": 1, "n": 0}
    assert doc["word"] == {"length": 3, "first": 0}
    entries = doc["entries"]
    assert [(e["a"], e["b"]) for e in entries] == sorted((e["a"], e["b"]) for e in entries)
    assert all(isinstance(e["mult"], str) for e in entries)
    total = sum(int(e["mult"]) for e in entries)
    assert total == 8
    # byte determinism
    assert text == distribution_json(weight_distribution(L0, word), word)


def test_distribution_json_names_a_plain_tuple_word_in_one_line():
    # a (length, first) tuple equals its WeylWord but has no .length
    with pytest.raises(TypeError, match="^word must be a WeylWord, not tuple$"):
        distribution_json(level1_distribution(2), (2, 0))


def test_distribution_exports_match_frozen_digests():
    cases = {
        "level1_24": (level1_distribution(24), WeylWord(24, 0)),
        "hw21_word9_first1": (weight_distribution(HighestWeight(2, 1), WeylWord(9, 1)), WeylWord(9, 1)),
        "signed": (WeightDistribution(HighestWeight(1, 2), SIGNED), WeylWord(3, 0)),
    }
    for name, (mu, word) in cases.items():
        assert _sha256(distribution_csv(mu)) == READ_PATH_SHA256[name]["csv"], name
        assert _sha256(distribution_json(mu, word)) == READ_PATH_SHA256[name]["json"], name


def test_distribution_csv_equals_per_point_format():
    # interior zeros and signed masses, and level-1 strings k and N - k sharing one list
    rng = random.Random(17)
    measures = [random_signed_measure(rng) for _ in range(60)]
    measures += [level1_distribution(N) for N in range(25)]
    assert sum(0 in vals for mu in measures for _, (_, vals) in mu.columns()) >= 10
    assert any(len({id(v) for _, (_, v) in mu.columns()}) < len(dict(mu.columns())) for mu in measures)
    for mu in measures:
        assert distribution_csv(mu) == csv_per_point(mu)


def test_distribution_json_equals_indented_dumps():
    # the spliced text is byte-identical to json.dumps of the whole document
    rng = random.Random(9)
    measures = [random_signed_measure(rng) for _ in range(30)]
    measures += [level1_distribution(10), WeightDistribution(L0, {})]
    for mu in measures:
        assert distribution_json(mu, WeylWord(4, 1)) == json_dumps_oracle(mu, WeylWord(4, 1))
    assert '"entries": []' in distribution_json(WeightDistribution(L0, {}), WeylWord(0, 0))


def test_exports_of_a_layout_padded_in_its_first_and_last_slot_equal_the_oracles():
    # the writers splice head and tail around padding, and JSON trims ",\n" from the last real entry
    for mu in (WeightDistribution(L0, PADDED_ENDS), WeightDistribution(HighestWeight(1, 2), SIGNED)):
        layout = mu.canonical_pieces([("mult", str)])
        assert layout[0] == layout[-1] == ""
        assert distribution_csv(mu) == csv_per_point(mu)
        assert distribution_json(mu, WeylWord(3, 0)) == json_dumps_oracle(mu, WeylWord(3, 0))


def _writers(mu, word=WeylWord(3, 0)):
    """(writer, oracle) per export of mu: the heatmap joins CSV and JSON on nonnegative masses."""
    pairs = [(distribution_csv, csv_per_point), (lambda m: distribution_json(m, word), lambda m: json_dumps_oracle(m, word))]
    if all(c >= 0 for _, c in mu.items()):
        pairs.append((heatmap, heatmap_per_point))
    return pairs


def _memo_cases():
    rng = random.Random(27)
    measures = [random_signed_measure(rng) for _ in range(30)]
    measures += [WeightDistribution(mu.hw, {p: abs(c) for p, c in mu.items()}) for mu in measures[:15]]
    measures += [WeightDistribution(L0, PADDED_ENDS), WeightDistribution(HighestWeight(1, 2), SIGNED)]
    measures += [level1_distribution(N) for N in (0, 1, 7, 12)]
    assert sum(0 in vals for mu in measures for _, (_, vals) in mu.columns()) >= 10  # interior zeros
    assert sum(len(_writers(mu)) == 3 for mu in measures) >= 15
    return measures


def test_writers_share_decimal_text_in_any_order_and_on_repeated_calls():
    # the mult text is kept on the distribution for every writer: each order
    # of the writers, run twice over on a fresh copy, gives the oracles' bytes
    for mu in _memo_cases():
        writers = _writers(mu)
        expected = [oracle(mu) for _, oracle in writers]
        for order in (writers, writers[::-1], writers[1:] + writers[:1]):
            fresh = WeightDistribution(mu.hw, dict(mu.items()))
            for _ in range(2):
                got = {write: write(fresh) for write, _ in order}
                assert [got[write] for write, _ in writers] == expected


def test_copies_and_pickles_do_not_carry_a_stale_text_memo():
    # a memo keyed by id(vals) and pickled with the distribution would name the
    # old lists: with the original gone, the unpickled lists reuse their ids
    # and the memo serves another vector's text
    rng = random.Random(3)
    for trial in range(100):
        mu = random_signed_measure(rng)
        for write, _ in _writers(mu):
            write(mu)  # fill the memo
        expected = [oracle(mu) for _, oracle in _writers(mu)]
        if trial % 2:
            clones = [copy.copy(mu), copy.deepcopy(mu)]
            del mu
        else:
            data = pickle.dumps(mu)
            del mu
            gc.collect()
            clones = [pickle.loads(data)]
        for clone in clones:
            assert [write(clone) for write, _ in _writers(clone)] == expected


def test_each_distinct_vector_is_formatted_once_across_all_writers(monkeypatch):
    calls = []

    class Mult(int):
        def __str__(self):
            calls.append(int(self))
            return int.__str__(self)

    # entries decode as Mult, so every str of one is counted; columns sharing an int share one decoded list
    unpack = demazure._unpack
    monkeypatch.setattr(demazure, "_unpack", lambda *args: list(map(Mult, unpack(*args))))
    vals, flat = [1, 3, 0, 2], [5]
    x, y = _pack(vals, 64), _pack(flat, 64)
    mu = WeightDistribution.from_columns(HighestWeight(1, 2), {-1: (0, x), 2: (3, x), 0: (1, y), 1: (2, x)}, 64, None)
    plain = WeightDistribution(mu.hw, {p: int(c) for p, c in mu.items()})
    expected = [oracle(plain) for _, oracle in _writers(mu)]
    del calls[:]
    assert [write(mu) for write, _ in _writers(mu)] == expected
    assert [write(mu) for write, _ in _writers(mu)] == expected
    assert sorted(calls) == sorted(vals + flat)  # one str per entry of each distinct vector, interior zero too


def test_wlln_csv_rows():
    text = wlln_csv(wlln_series(L0, [2, 4]))
    lines = text.splitlines()
    assert lines[0] == "level,N,max_degree,mean_deg,var_deg,mean_fin,var_fin"
    assert lines[1] == "1,2,1,3/4,3/16,0,1/2"
    assert lines[2] == "1,4,4,5/8,13/128,0,1/4"


def test_conjecture_json_schema():
    report = conjecture_check(2, [2, 4, 6, 8, 10])
    doc = json.loads(conjecture_json(report))
    assert doc["level"] == 2
    assert doc["fit"] == ["0", "-11/81", "7/81", "4/81"]
    assert doc["table_match"] is True
    assert doc["max_degree_match"] is True
    assert doc["held_out"] == [10]
    assert [r["N"] for r in doc["rows"]] == [2, 4, 6, 8, 10]
    assert doc["rows"][0]["variance"] == "38/81"
    assert doc["rows"][0]["max_degree"] == 2 == doc["rows"][0]["expected_max_degree"]
