"""Interchange formats: distribution JSON/CSV, WLLN CSV, conjecture JSON.

Multiplicities grow without bound, so JSON carries them as decimal strings
rather than numbers; rationals are rendered "p/q" (or "p" when integral).
Entry order is always (a, b) ascending, which makes equal inputs serialize
to identical bytes.  All text is UTF-8 with LF line endings.

Distribution tables are fields of WeightDistribution.canonical_pieces, as
the heatmap is: the row template is split into one piece per a, b and mult,
each formatted once per row, b value or distinct column vector and ordered
by one strided fill with no object per point.  The multiplicity field is
the bare decimal text str(c), which the distribution keeps once per
distinct column vector for every writer, CSV, JSON and the heatmap alike;
the template text after a multiplicity opens the next entry's a-field
instead, is cut from the first entry by canonical_pieces and closes the
document's tail.  The layout comes back padded with "": each writer
splices its head and tail into that one list in place and joins it once,
copying no second list of the pieces.  JSON entry blocks are spliced into
the "[]" of json.dumps(header, indent=2), byte-identical to json.dumps of
the whole document with indent=2 but without its pure-Python encoder (the
C one runs only without indent).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .demazure import WeightDistribution, WeylWord
from .lattice import instance_of

if TYPE_CHECKING:
    from .asymptotics import ConjectureReport, RescaledSummary


def format_rational(x: Fraction | int) -> str:
    if not isinstance(x, (int, Fraction)):  # a float would print its binary expansion
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# canonical_pieces fields: "%d,%d,%d\n" and the JSON entry block, split per
# value, with the text after a multiplicity carried by the next a-field
_CSV_FIELDS = (("a", "\n%d,".__mod__), ("b", "%d,".__mod__), ("mult", str))
_JSON_CLOSE = '"\n    },\n'
_JSON_FIELDS = (
    ("a", (_JSON_CLOSE + '    {\n      "a": %d,\n      "b": ').__mod__),
    ("b", '%d,\n      "mult": "'.__mod__),
    ("mult", str),
)


def distribution_json(mu: WeightDistribution, word: WeylWord) -> str:
    mu, word = instance_of(mu, WeightDistribution, "distribution"), instance_of(word, WeylWord, "word")
    doc = {
        "highest_weight": {"m": mu.hw.m, "n": mu.hw.n},
        "word": {"length": word.length, "first": word.first},
        "entries": [],
    }
    text = json.dumps(doc, indent=2)
    pieces = mu.canonical_pieces(_JSON_FIELDS, _JSON_CLOSE)
    if not pieces:
        return text + "\n"
    head, _, tail = text.rpartition("[]")
    pieces[:0] = head, "[\n"  # in place: the one join copies no second list of the pieces
    pieces.append('"\n    }\n  ]' + tail + "\n")  # the last entry's close, with no ",\n"
    return "".join(pieces)


def distribution_csv(mu: WeightDistribution) -> str:
    pieces = instance_of(mu, WeightDistribution, "distribution").canonical_pieces(_CSV_FIELDS)
    pieces.insert(0, "a,b,mult")  # the first a-field's "\n" ends the header
    pieces.append("\n")
    return "".join(pieces)


def wlln_csv(summaries: list[RescaledSummary]) -> str:
    lines = ["level,N,max_degree,mean_deg,var_deg,mean_fin,var_fin"]
    for s in summaries:
        stats = (s.mean_degree_scaled, s.var_degree_scaled, s.mean_finweight_scaled, s.var_finweight_scaled)
        lines.append(",".join(map(format_rational, (s.level, s.N, s.max_degree, *stats))))
    return "\n".join(lines) + "\n"


def conjecture_json(report: ConjectureReport) -> str:
    doc = {
        "level": report.level,
        "fit": [format_rational(c) for c in report.fit.coefficients],
        "table_match": report.table_match,
        "max_degree_match": report.max_degree_match,
        "held_out": list(report.held_out),
        "rows": [
            {
                "N": r.N,
                "variance": format_rational(r.variance),
                "max_degree": r.max_degree,
                "expected_max_degree": r.expected_max_degree,
            }
            for r in report.rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
