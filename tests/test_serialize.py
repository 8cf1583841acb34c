import hashlib
import json
import random
from fractions import Fraction

import pytest

from demazure_sl2 import (
    HighestWeight,
    WeightDistribution,
    WeylWord,
    conjecture_check,
    level1_distribution,
    weight_distribution,
    wlln_series,
)
from demazure_sl2.serialize import (
    conjecture_json,
    distribution_csv,
    distribution_json,
    format_rational,
    wlln_csv,
)

from frozen import READ_PATH_SHA256, SIGNED
from oracles import random_signed_measure

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
        rows = "".join("%d,%d,%d\n" % (a, b, c) for (a, b), c in sorted(mu.items()))
        assert distribution_csv(mu) == "a,b,mult\n" + rows


def test_distribution_json_equals_indented_dumps():
    # the spliced text is byte-identical to json.dumps of the whole document
    rng = random.Random(9)
    measures = [random_signed_measure(rng) for _ in range(30)]
    measures += [level1_distribution(10), WeightDistribution(L0, {})]
    for mu in measures:
        word = WeylWord(4, 1)
        doc = {
            "highest_weight": {"m": mu.hw.m, "n": mu.hw.n},
            "word": {"length": 4, "first": 1},
            "entries": [{"a": p.a, "b": p.b, "mult": str(c)} for p, c in mu.sorted_items()],
        }
        assert distribution_json(mu, word) == json.dumps(doc, indent=2) + "\n"
    assert '"entries": []' in distribution_json(WeightDistribution(L0, {}), WeylWord(0, 0))


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
