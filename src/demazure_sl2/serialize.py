"""Interchange formats: distribution JSON/CSV, WLLN CSV, conjecture JSON.

Multiplicities grow without bound, so JSON carries them as decimal strings
rather than numbers; rationals are rendered "p/q" (or "p" when integral).
Entry order is always (a, b) ascending, which makes equal inputs serialize
to identical bytes.  All text is UTF-8 with LF line endings.

Distribution tables format their cells a column at a time, as the heatmap
does: WeightDistribution.canonical() is handed a cell function that maps one
%-template over the column's (a, b, mult) triples, so only the formatted
string is kept per support point.  JSON entry blocks are spliced into the
"[]" of json.dumps(header, indent=2), byte-identical to json.dumps of the
whole document with indent=2 but without its pure-Python encoder (the C one
runs only without indent).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .asymptotics import ConjectureReport, RescaledSummary
from .demazure import WeightDistribution, WeylWord, column_triples


def format_rational(x: Fraction | int) -> str:
    if not isinstance(x, (int, Fraction)):  # a float would print its binary expansion
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _formatted_cells(template: str):
    """Cell function for canonical(): template % (a, b, mult) per column entry."""
    fmt = template.__mod__
    return lambda d, a0, vals: map(fmt, column_triples(d, a0, vals))


def distribution_json(mu: WeightDistribution, word: WeylWord) -> str:
    doc = {
        "highest_weight": {"m": mu.hw.m, "n": mu.hw.n},
        "word": {"length": word.length, "first": word.first},
        "entries": [],
    }
    text = json.dumps(doc, indent=2)
    entry = '    {\n      "a": %d,\n      "b": %d,\n      "mult": "%d"\n    }'
    entries = ",\n".join(mu.canonical(_formatted_cells(entry)))
    if entries:
        head, _, tail = text.rpartition("[]")
        text = f"{head}[\n{entries}\n  ]{tail}"
    return text + "\n"


def distribution_csv(mu: WeightDistribution) -> str:
    return "a,b,mult\n" + "".join(mu.canonical(_formatted_cells("%d,%d,%d\n")))


def wlln_csv(summaries: list[RescaledSummary]) -> str:
    lines = ["level,N,max_degree,mean_deg,var_deg,mean_fin,var_fin"]
    for s in summaries:
        lines.append(
            ",".join(
                [
                    str(s.level),
                    str(s.N),
                    str(s.max_degree),
                    format_rational(s.mean_degree_scaled),
                    format_rational(s.var_degree_scaled),
                    format_rational(s.mean_finweight_scaled),
                    format_rational(s.var_finweight_scaled),
                ]
            )
        )
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
