import hashlib
import pickle
import random
import re
from fractions import Fraction

import pytest

from demazure_sl2 import (
    CovarianceMatrix,
    DegenerateCovarianceError,
    Ellipse,
    HighestWeight,
    WeightDistribution,
    WeylWord,
    degree_histogram,
    ellipse_path,
    heatmap,
    level1_distribution,
    weight_distribution,
)
from demazure_sl2.render import CELL_SIZE, DARK_GRAY, LIGHT_GRAY, PADDING, PLOT_HEIGHT, ellipse_document
from frozen import PADDED_ENDS, READ_PATH_SHA256, SIGNED
from oracles import degree_histogram_per_degree, heatmap_per_point, random_signed_measure

L0 = HighestWeight.fundamental(0)


@pytest.fixture(scope="module")
def mu6():
    return weight_distribution(L0, WeylWord(6, 0))


@pytest.fixture(scope="module")
def nonnegative_measures():
    """Random measures with |mass|, many with interior zeros, plus zero-free level-1 and level-3 columns."""
    rng = random.Random(5)
    measures = [random_signed_measure(rng) for _ in range(60)]
    measures = [WeightDistribution(mu.hw, {p: abs(c) for p, c in mu.items()}) for mu in measures]
    measures += [level1_distribution(N) for N in range(1, 20, 3)]
    measures += [weight_distribution(HighestWeight(2, 1), WeylWord(9, 1)), WeightDistribution(L0, PADDED_ENDS)]
    vectors = [vals for mu in measures for _, (_, vals) in mu.columns()]
    assert sum(0 in vals for vals in vectors) >= 10
    assert sum(0 not in vals and len(vals) > 1 for vals in vectors) >= 10
    return measures


def test_heatmap_cells_and_determinism(mu6):
    svg = heatmap(mu6)
    assert svg == heatmap(mu6)
    # equal distributions from different routes render to identical bytes
    assert svg == heatmap(level1_distribution(6))
    assert svg.count("<rect") == 42
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")


def test_heatmap_shading_darkest_at_max(mu6):
    svg = heatmap(mu6)
    cells = re.findall(r'<rect[^>]*fill="rgb\((\d+),\d+,\d+\)"[^>]*data-mult="(\d+)"', svg)
    assert len(cells) == 42
    grays = {}
    for gray, mult in cells:
        grays.setdefault(int(mult), set()).add(int(gray))
    # shade depends only on the multiplicity, darkest at the maximum
    assert all(len(v) == 1 for v in grays.values())
    assert min(grays) == 1 and max(grays) == 3
    assert grays[3] == {DARK_GRAY}
    assert sum(1 for _, mult in cells if mult == "3") == 6
    g1, g2, g3 = (grays[k].pop() for k in (1, 2, 3))
    assert g1 > g2 > g3


def test_heatmap_geometry(mu6):
    svg = heatmap(mu6)
    # (a, b) = (0, 0) has a - b = 0 and the leftmost column is a - b = -3
    m = re.search(r'<rect x="([\d.]+)" y="([\d.]+)"[^>]*data-a="0" data-b="0"', svg)
    assert m is not None
    assert float(m.group(1)) == PADDING + 3 * CELL_SIZE
    assert float(m.group(2)) == PADDING


def test_heatmap_equals_per_point_oracle(nonnegative_measures):
    padded = WeightDistribution(L0, PADDED_ENDS)
    layout = padded.canonical_pieces([("mult", str)])
    assert layout[0] == layout[-1] == ""  # the splice of head and tail meets padding at both ends
    for mu in nonnegative_measures + [WeightDistribution(L0, {})]:
        assert heatmap(mu) == heatmap_per_point(mu)


def test_heatmap_empty_distribution():
    svg = heatmap(WeightDistribution(L0, {}))
    assert "<rect" not in svg
    assert svg == heatmap(WeightDistribution(L0, {}))


def test_degree_histogram_empty_distribution():
    # no degree, no bar: the frame alone, as for the empty heatmap
    for entries in ({}, {(0, 0): 0}):
        assert degree_histogram(WeightDistribution(L0, entries)) == heatmap(WeightDistribution(L0, {}))
    side = f"{2 * PADDING:.4f}"
    frame = f'width="{side}" height="{side}" viewBox="0 0 {side} {side}">\n</svg>\n'
    assert degree_histogram(WeightDistribution(L0, {})) == '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" ' + frame


def test_ellipse_path_points_lie_on_quadric():
    sigma = CovarianceMatrix(Fraction(85, 16), Fraction(0), Fraction(6))
    path = ellipse_path(Ellipse((0, 0), sigma), samples=128)
    assert path.startswith('<path d="M ')
    assert path.endswith('/>')
    assert path.count("Z") == 1
    pts = re.findall(r"[ML] (-?[\d.]+) (-?[\d.]+)", path)
    assert len(pts) == 128
    s11, s22 = 85 / 16, 6.0
    for xs, ys in pts:
        x, y = float(xs), float(ys)
        q = x * x / s11 + y * y / s22
        assert abs(q - 1.0) < 1e-9
    # semi-axes are reached
    assert max(abs(float(x)) for x, _ in pts) == pytest.approx((85 / 16) ** 0.5, abs=1e-9)
    assert max(abs(float(y)) for _, y in pts) == pytest.approx(6**0.5, abs=1e-6)


def test_ellipse_path_with_cross_term():
    sigma = CovarianceMatrix(Fraction(35, 8), Fraction(5, 2), Fraction(5))
    center = (Fraction(7, 2), Fraction(1))
    path = ellipse_path(Ellipse(center, sigma), samples=64)
    pts = [(float(x), float(y)) for x, y in re.findall(r"[ML] (-?[\d.]+) (-?[\d.]+)", path)]
    det = float(sigma.determinant())
    i11, i12, i22 = 5 / det, -2.5 / det, (35 / 8) / det
    for x, y in pts:
        dx, dy = x - 3.5, y - 1.0
        q = i11 * dx * dx + 2 * i12 * dx * dy + i22 * dy * dy
        assert abs(q - 1.0) < 1e-9
    assert path == ellipse_path(Ellipse(center, sigma), samples=64)


def test_ellipse_path_rejects_degenerate_matrix():
    # determinant exactly zero
    sigma = CovarianceMatrix(Fraction(1, 4), Fraction(1, 2), Fraction(1))
    with pytest.raises(DegenerateCovarianceError):
        ellipse_path(Ellipse((0, 0), sigma))
    with pytest.raises(DegenerateCovarianceError):
        ellipse_path(Ellipse((0, 0), CovarianceMatrix(Fraction(0), Fraction(0), Fraction(1))))
    unit = Ellipse((0, 0), CovarianceMatrix(Fraction(1), Fraction(0), Fraction(1)))
    for samples in (0, 2):  # two vertices trace a segment, not an ellipse
        with pytest.raises(ValueError, match="at least 3"):
            ellipse_path(unit, samples=samples)


def test_ellipse_is_a_frozen_value():
    sigma = CovarianceMatrix(Fraction(1), Fraction(0), Fraction(2))
    e = Ellipse(center=(0, Fraction(1, 2)), matrix=sigma)
    assert repr(e) == (
        "Ellipse(center=(0, Fraction(1, 2)), matrix=CovarianceMatrix(var_degree=Fraction(1, 1), "
        "covariance=Fraction(0, 1), var_finite_weight=Fraction(2, 1)))"
    )
    assert e == Ellipse((0, Fraction(1, 2)), sigma) and e != Ellipse((0, 0), sigma)
    with pytest.raises(AttributeError):
        e.center = (0, 0)
    assert pickle.loads(pickle.dumps(e)) == e


def test_ellipse_document_wraps_path():
    sigma = CovarianceMatrix(Fraction(4), Fraction(0), Fraction(1))
    doc = ellipse_document(Ellipse((10, -2), sigma), samples=16)
    assert doc.startswith("<svg ")
    assert "<path " in doc and doc.endswith("</svg>\n")
    with pytest.raises(DegenerateCovarianceError):
        ellipse_document(Ellipse((0, 0), CovarianceMatrix(Fraction(1), Fraction(1), Fraction(1))))


def test_degree_histogram(mu6):
    svg = degree_histogram(mu6)
    bars = re.findall(r'data-degree="(\d+)" data-mass="(\d+)"', svg)
    assert [int(d) for d, _ in bars] == list(range(10))
    masses = {int(d): int(c) for d, c in bars}
    assert sum(masses.values()) == 64
    assert masses == {0: 1, 1: 3, 2: 4, 3: 7, 4: 9, 5: 11, 6: 9, 7: 8, 8: 5, 9: 7}
    # tallest bar is the full plot height
    m = re.search(r'height="([\d.]+)"[^>]*data-degree="5"', svg)
    assert float(m.group(1)) == PLOT_HEIGHT
    assert svg == degree_histogram(mu6)


def test_degree_histogram_equals_per_point_totals(nonnegative_measures):
    # zero-free columns mark their degrees occupied by one slice, columns with interior zeros per entry
    hidden = 0  # measures with a degree that only an interior zero covers: it gets no bar
    for mu in nonnegative_measures:
        totals = {}
        for (a, _), c in mu.items():
            totals[a] = totals.get(a, 0) + c
        a_min, top = min(totals), max(totals.values())
        expected = [
            (f"{PADDING + (a - a_min) * CELL_SIZE:.4f}", f"{PLOT_HEIGHT * c / top:.4f}", str(a), str(c))
            for a, c in sorted(totals.items())
        ]
        bar = r'<rect x="([\d.]+)" [^>]*height="([\d.]+)" [^>]*data-degree="(-?\d+)" data-mass="(\d+)"'
        assert re.findall(bar, degree_histogram(mu)) == expected
        zeros = {a0 + i for _, (a0, vals) in mu.columns() for i, c in enumerate(vals) if not c}
        hidden += bool(zeros - totals.keys())
    assert hidden >= 3


def test_degree_histogram_matches_the_per_degree_oracle(nonnegative_measures):
    # byte for byte, with a degree whose masses cancel, a measure whose every
    # degree total cancels, and the empty measure
    cancelled_degree = WeightDistribution(L0, {(0, 0): 1, (2, 0): 1, (2, 3): -1, (4, 4): 2})
    all_zero = WeightDistribution(L0, {(0, 0): 1, (0, 1): -1, (3, 0): 2, (3, 2): -2})
    cases = nonnegative_measures + [cancelled_degree, all_zero, WeightDistribution(L0, {})]
    for mu in cases:
        assert degree_histogram(mu) == degree_histogram_per_degree(mu)
    assert 'height="0.0000" fill="rgb(96,96,96)" data-degree="3" data-mass="0"' in degree_histogram(all_zero)


def test_degree_histogram_draws_flat_bars_when_every_total_cancels():
    mu = WeightDistribution(L0, {(0, 0): 1, (0, 1): -1})
    svg = degree_histogram(mu)
    assert re.findall(r'height="([\d.]+)"[^>]*data-degree="(-?\d+)" data-mass="(-?\d+)"', svg) == [
        ("0.0000", "0", "0")
    ]


def test_degree_histogram_rejects_negative_degree_totals():
    with pytest.raises(ValueError):
        degree_histogram(WeightDistribution(L0, {(0, 0): 1, (1, 0): -2}))
    with pytest.raises(ValueError):
        degree_histogram(WeightDistribution(L0, {(0, 0): 3, (0, 1): -1, (2, 0): 2, (2, 3): -5}))


def test_renderers_match_frozen_digests():
    cases = {
        "level1_24": level1_distribution(24),
        "hw21_word9_first1": weight_distribution(HighestWeight(2, 1), WeylWord(9, 1)),
    }
    for name, mu in cases.items():
        for kind, render in (("heatmap", heatmap), ("histogram", degree_histogram)):
            digest = hashlib.sha256(render(mu).encode()).hexdigest()
            assert digest == READ_PATH_SHA256[name][kind], (name, kind)


def test_heatmap_rejects_negative_masses():
    with pytest.raises(ValueError, match="heatmap needs nonnegative multiplicities"):
        heatmap(WeightDistribution(L0, SIGNED))


def test_degree_histogram_keeps_cancelled_degrees():
    # degree 2 carries two points whose masses cancel; degrees 1 and 3 are empty
    mu = WeightDistribution(L0, {(0, 0): 1, (2, 0): 1, (2, 3): -1, (4, 4): 2})
    bars = re.findall(r'data-degree="(\d+)" data-mass="(-?\d+)"', degree_histogram(mu))
    assert bars == [("0", "1"), ("2", "0"), ("4", "2")]
