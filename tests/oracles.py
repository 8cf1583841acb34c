"""Independent reference implementations used only by the tests.

Everything here is written from the definitions, with no shortcuts shared
with the package code: the operator expands point by point, path counts
are enumerated combinatorially, Gaussian binomials are coefficient lists
built by the q-binomial recurrence, moments are summed per support point
with Fraction arithmetic throughout, the CSV, JSON and heatmap writers
are formatted one support point at a time, and the histogram one bar at a
time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb, lcm, log1p
from operator import sub

from demazure_sl2 import (
    Functional,
    HighestWeight,
    LatticePoint,
    WeightDistribution,
    coroot_pairing,
)
from demazure_sl2.render import CELL_SIZE, DARK_GRAY, LIGHT_GRAY, PADDING, PLOT_HEIGHT


def step(p: LatticePoint, j: int, i: int) -> LatticePoint:
    """The point of p - i*alpha_j, i.e. one string-step along alpha_j."""
    if j == 0:
        return LatticePoint(p[0] + i, p[1])
    if j == 1:
        return LatticePoint(p[0], p[1] + i)
    raise ValueError("generator index must be 0 or 1")


def apply_demazure_pointwise(j: int, mu: WeightDistribution) -> WeightDistribution:
    """Definitional expansion: each point contributes its whole string sum."""
    acc: dict[LatticePoint, int] = {}
    for p, c in mu.items():
        k = coroot_pairing(j, mu.hw, p)
        if k >= 0:
            targets = [(step(p, j, i), c) for i in range(0, k + 1)]
        elif k == -1:
            targets = []
        else:
            targets = [(step(p, j, i), -c) for i in range(k + 1, 0)]
        for q, v in targets:
            acc[q] = acc.get(q, 0) + v
    return WeightDistribution(mu.hw, {tuple(q): v for q, v in acc.items()})


def lattice_path_area_counts(N: int, k: int) -> list[int]:
    """Monotone paths (0,0) -> (k, N-k), counted by area under the path.

    The r-th east step taken at overall position t has t - r north steps
    below it; the area is the sum over east steps.  Brute force over all
    C(N, k) step orders.
    """
    counts = [0] * (k * (N - k) + 1)
    for east_positions in combinations(range(N), k):
        area = sum(t - r for r, t in enumerate(east_positions))
        counts[area] += 1
    return counts


def binomial_row(N: int, top: int) -> list[list[int]]:
    """Coefficient lists of [N k]_q for k = 0 .. top, constant term first.

    [N k+1] = [N k] (1 - q^(N-k)) / (1 - q^(k+1)): the product is one shifted
    subtraction, and the quotient c of p by 1 - q^m obeys c_i = p_i + c_(i-m),
    a running sum over each residue class mod m whose top m terms are 0.
    """
    row = [[1]]
    for k in range(top):
        cs, m = row[-1], k + 1
        p = cs + [0] * (N - k)
        p[N - k :] = map(sub, p[N - k :], cs)
        for r in range(m):
            p[r::m] = accumulate(p[r::m])
        del p[-m:]
        row.append(p)
    return row


def brute_expectation(mu: WeightDistribution, f: Functional) -> Fraction:
    mass = 0
    total = Fraction(0)
    for p, c in mu.items():
        mass += c
        total += Fraction(c) * f.evaluate(p)
    if mass == 0:
        raise ZeroDivisionError("zero mass")
    return total / mass


def brute_covariance(mu: WeightDistribution, f: Functional, g: Functional) -> Fraction:
    """E[fg] - E[f]E[g] with f and g evaluated per support point; f * g is never built."""
    mass = sum(c for _, c in mu.items())
    if mass == 0:
        raise ZeroDivisionError("zero mass")
    fg = sum(Fraction(c) * f.evaluate(p) * g.evaluate(p) for p, c in mu.items()) / mass
    return fg - brute_expectation(mu, f) * brute_expectation(mu, g)


def random_functional(rng, degree: int = 2) -> Functional:
    """Seeded random functional of total degree <= degree, coefficients with mixed denominators."""
    terms = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < 0.6:
                terms[(i, j)] = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 6, 7, 12]))
    return Functional(terms)


def column_numerators(ab_terms: dict[tuple[int, int], Fraction]) -> tuple[int, tuple]:
    """(q, sorted ((p, r), n)) of q * f for f = sum(c * a^i * b^j) over ab_terms, in a^p * d^r.

    b = a - d is expanded binomially, term by term:
    a^i * b^j = sum over k of C(j, k) * (-1)^(j - k) * a^(i + k) * d^(j - k).
    q is the lcm of the denominators of the (a, d) coefficients.
    """
    form: dict[tuple[int, int], Fraction] = {}
    for (i, j), c in ab_terms.items():
        for k in range(j + 1):
            key = (i + k, j - k)
            form[key] = form.get(key, 0) + Fraction(c) * comb(j, k) * (-1) ** (j - k)
    form = {key: c for key, c in form.items() if c}
    q = lcm(*(c.denominator for c in form.values()))
    return q, tuple(sorted((key, int(c * q)) for key, c in form.items()))


def random_signed_measure(rng, max_abs: int = 20, max_support: int = 40) -> WeightDistribution:
    """Seeded random signed measure on a random low-level lattice."""
    while True:
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        if m + n >= 1:
            break
    hw = HighestWeight(m, n)
    entries = {}
    for _ in range(rng.randint(1, max_support)):
        p = (rng.randint(-max_abs, max_abs), rng.randint(-max_abs, max_abs))
        c = rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
        entries[p] = entries.get(p, 0) + c
    return WeightDistribution(hw, entries)


def random_mirror_symmetric_pairs(rng, max_support: int = 30) -> dict[tuple[int, int], int]:
    """Measure on (x, y) pairs with mass(x, y) = mass(-x, y)."""
    out: dict[tuple[int, int], int] = {}
    for _ in range(rng.randint(1, max_support)):
        x = rng.randint(0, 10)
        y = rng.randint(-10, 10)
        c = rng.randint(1, 6)
        out[(x, y)] = out.get((x, y), 0) + c
        if x:
            out[(-x, y)] = out.get((-x, y), 0) + c
    return out


def brute_pushforward(mu: WeightDistribution, fs) -> dict[tuple, int]:
    """Image of mu under p -> (f(p) for f in fs), one evaluate per point."""
    acc: dict[tuple, int] = {}
    for p, c in mu.items():
        key = tuple(f.evaluate(p) for f in fs)
        acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def tensor_character_row(hw: HighestWeight, first: int, N: int) -> dict[int, int]:
    """Coefficients of x^(s * [leftmost letter is 0]) * chi_r * chi_s^(N - 1), N >= 1.

    chi_k = x^-k + x^(-k+2) + ... + x^k is the character of the sl2 module
    V(k), s = m + n is the level, r = m for first letter 0 and r = n for
    first letter 1, and the leftmost letter of the word (N, first) is first
    for odd N and 1 - first for even N.  Built by repeated multiplication
    of exponent dicts, with no lattice coordinates.
    """
    s = hw.level
    r = hw.n if first else hw.m
    leftmost = first if N % 2 else 1 - first
    shift = s if leftmost == 0 else 0
    row = {shift + t: 1 for t in range(-r, r + 1, 2)}
    for _ in range(N - 1):
        product: dict[int, int] = {}
        for e, c in row.items():
            for t in range(-s, s + 1, 2):
                product[e + t] = product.get(e + t, 0) + c
        row = product
    return row


def csv_per_point(mu: WeightDistribution) -> str:
    """distribution_csv formatted one support point at a time."""
    return "a,b,mult\n" + "".join("%d,%d,%d\n" % (a, b, c) for (a, b), c in sorted(mu.items()))


def json_dumps_oracle(mu: WeightDistribution, word) -> str:
    """distribution_json as json.dumps of the whole document, one entry dict per support point."""
    doc = {
        "highest_weight": {"m": mu.hw.m, "n": mu.hw.n},
        "word": {"length": word.length, "first": word.first},
        "entries": [{"a": p.a, "b": p.b, "mult": str(c)} for p, c in mu.sorted_items()],
    }
    return json.dumps(doc, indent=2) + "\n"


def heatmap_per_point(mu: WeightDistribution) -> str:
    """The heatmap document formatted one support point at a time."""
    points = sorted(mu.items())
    width = height = 2 * PADDING
    cells = []
    if points:
        d_min = min(a - b for (a, b), _ in points)
        a_min = points[0][0][0]
        width += (max(a - b for (a, b), _ in points) - d_min + 1) * CELL_SIZE
        height += (points[-1][0][0] - a_min + 1) * CELL_SIZE
        top = log1p(max(c for _, c in points))
    for (a, b), c in points:
        g = LIGHT_GRAY - round(log1p(c) / top * (LIGHT_GRAY - DARK_GRAY))
        cells.append(
            f'<rect x="{PADDING + (a - b - d_min) * CELL_SIZE:.4f}" y="{PADDING + (a - a_min) * CELL_SIZE:.4f}" '
            f'width="{CELL_SIZE:.4f}" height="{CELL_SIZE:.4f}" fill="rgb({g},{g},{g})" '
            f'data-a="{a}" data-b="{b}" data-mult="{c}"/>\n'
        )
    return _svg_document(width, height, cells)


def degree_histogram_per_degree(mu: WeightDistribution) -> str:
    """degree_histogram with totals summed per support point and each bar formatted alone.

    A degree gets a bar when it carries a support point, also when its
    masses cancel; for nonnegative measures only.
    """
    totals: dict[int, int] = {}
    for (a, _), c in mu.items():
        totals[a] = totals.get(a, 0) + c
    width, height = 2 * PADDING, 2 * PADDING
    bars = []
    if totals:
        a_min, max_mass = min(totals), max(totals.values())
        width += (max(totals) - a_min + 1) * CELL_SIZE
        height += PLOT_HEIGHT
        for a, mass in sorted(totals.items()):
            h = PLOT_HEIGHT * mass / max_mass if max_mass else 0
            x = PADDING + (a - a_min) * CELL_SIZE
            y = PADDING + PLOT_HEIGHT - h
            bars.append(
                f'<rect x="{x:.4f}" y="{y:.4f}" width="{CELL_SIZE:.4f}" height="{h:.4f}" '
                f'fill="rgb(96,96,96)" data-degree="{a}" data-mass="{mass}"/>\n'
            )
    return _svg_document(width, height, bars)


def _svg_document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.4f}" height="{height:.4f}" '
        f'viewBox="0 0 {width:.4f} {height:.4f}">\n'
    )
    return head + "".join(body) + "</svg>\n"
