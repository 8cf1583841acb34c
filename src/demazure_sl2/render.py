"""Deterministic SVG views of weight distributions.

Heatmaps use the (a - b, a) plane with the degree axis pointing down, one
square cell per support point, shaded by log(1 + mult) relative to the
largest multiplicity.  Covariance ellipses are emitted as closed polylines
sampled from the Cholesky image of the unit circle, so every vertex lies
on the 1-sigma quadric of the matrix.  Output is plain SVG 1.1 text with
fixed-precision coordinates; equal inputs render to identical bytes.
Heatmap cells are fields of WeightDistribution.canonical_pieces, with grays per distinct column
vector and one shade string per gray level; _svg splices head and tail into that ""-padded list in
place and joins it once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, mul, or_, truediv
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .demazure import WeightDistribution
    from .lattice import Scalar
    from .moments import CovarianceMatrix


class DegenerateCovarianceError(ValueError):
    """Covariance matrix is not positive definite."""


class Ellipse(NamedTuple):
    """1-sigma ellipse of a covariance matrix, centered at ``center``.

    The matrix must be positive definite for a path to exist;
    ellipse_path raises DegenerateCovarianceError otherwise.  A named tuple,
    like LatticePoint: it equals the plain tuple (center, matrix).
    """

    center: tuple[Scalar, Scalar]
    matrix: CovarianceMatrix


# layout in SVG user units, and the heatmap's gray range (0-255)
CELL_SIZE = 16
PADDING = 8
ELLIPSE_MARGIN = 1.0
PLOT_HEIGHT = 200
LIGHT_GRAY = 235
DARK_GRAY = 32


def _fmt(v: float) -> str:
    return f"{v:.4f}"


def _svg(width: float, height: float, pieces: list[str]) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    pieces[:0] = head, "\n"  # in place: the one join copies no second list of the pieces
    pieces.append("</svg>\n")
    return "".join(pieces)


def heatmap(mu: WeightDistribution) -> str:
    """One shaded cell per support point in the (a - b, a) plane."""
    a_min, a_end = mu.degree_range()
    if a_min == a_end:
        return _svg(2 * PADDING, 2 * PADDING, [])
    d_min, d_max = min(d for d, _ in mu.columns()), max(d for d, _ in mu.columns())
    # per distinct vector (mirrored columns share one); an interior zero adds a harmless 0
    masses = list(set(chain.from_iterable({id(v): v for _, (_, v) in mu.columns()}.values())))
    if min(masses) < 0:
        raise ValueError("heatmap needs nonnegative multiplicities")
    # gray = LIGHT_GRAY - round(log1p(c) / log1p(max) * (LIGHT_GRAY - DARK_GRAY)), log1p(max) > 0
    ratios = map(truediv, map(math.log1p, masses), repeat(math.log1p(max(masses))))
    grays = list(map(LIGHT_GRAY.__sub__, map(round, map(mul, ratios, repeat(LIGHT_GRAY - DARK_GRAY)))))
    shade = {g: f'{g},{g},{g})" data-a="' for g in set(grays)}
    size = _fmt(CELL_SIZE)
    fields = (
        ("d", lambda d: f'<rect x="{_fmt(PADDING + (d - d_min) * CELL_SIZE)}" y="'),
        ("a", lambda a: f'{_fmt(PADDING + (a - a_min) * CELL_SIZE)}" width="{size}" height="{size}" fill="rgb('),
        ("mult", dict(zip(masses, map(shade.__getitem__, grays))).__getitem__),
        ("a", '%d" data-b="'.__mod__),
        ("b", '%d" data-mult="'.__mod__),
        ("mult", '%d"/>\n'.__mod__),
    )
    width = 2 * PADDING + (d_max - d_min + 1) * CELL_SIZE
    height = 2 * PADDING + (a_end - a_min) * CELL_SIZE
    return _svg(width, height, mu.canonical_pieces(fields))


def ellipse_path(e: Ellipse, samples: int = 64) -> str:
    """SVG path element tracing the 1-sigma ellipse as a closed polyline.

    Vertices are the Cholesky image of equally spaced points on the unit
    circle; each satisfies (p - center)^T Sigma^{-1} (p - center) = 1 up to
    floating-point formatting.
    """
    if not isinstance(samples, int) or samples < 3:
        raise ValueError("samples must be an integer of at least 3")
    s11 = Fraction(e.matrix.var_degree)
    s12 = Fraction(e.matrix.covariance)
    det = e.matrix.determinant()
    if s11 <= 0 or det <= 0:
        raise DegenerateCovarianceError("degenerate covariance")
    l11 = math.sqrt(s11)
    l21 = float(s12) / l11
    l22 = math.sqrt(det / s11)
    cx, cy = float(e.center[0]), float(e.center[1])
    pieces = []
    for t in range(samples):
        theta = 2.0 * math.pi * t / samples
        u, v = math.cos(theta), math.sin(theta)
        x = cx + l11 * u
        y = cy + l21 * u + l22 * v
        cmd = "M" if t == 0 else "L"
        pieces.append(f"{cmd} {x:.12f} {y:.12f}")
    pieces.append("Z")
    return f'<path d="{" ".join(pieces)}" fill="none" stroke="black"/>'


def ellipse_document(e: Ellipse, samples: int = 64) -> str:
    """Standalone SVG document containing the ellipse path.

    The viewBox is the bounding box of the ellipse plus ELLIPSE_MARGIN on
    every side, so the path is visible without any external transform.
    """
    path = ellipse_path(e, samples)
    rx = math.sqrt(e.matrix.var_degree)
    ry = math.sqrt(e.matrix.var_finite_weight)
    cx, cy = float(e.center[0]), float(e.center[1])
    x0, y0 = cx - rx - ELLIPSE_MARGIN, cy - ry - ELLIPSE_MARGIN
    w, h = 2 * (rx + ELLIPSE_MARGIN), 2 * (ry + ELLIPSE_MARGIN)
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">'
    )
    return "\n".join([head, path, "</svg>"]) + "\n"


def degree_histogram(mu: WeightDistribution) -> str:
    """Bar chart of total mass per degree, degrees left to right.

    Bars are scaled to the largest total, and drawn with height 0 when every
    total cancels to 0; a negative degree total raises ValueError.
    """
    a_min, a_end = mu.degree_range()
    if a_min == a_end:
        return _svg(2 * PADDING, 2 * PADDING, [])
    # per-degree totals, and which degrees carry a support point at all
    totals, occupied = [0] * (a_end - a_min), [False] * (a_end - a_min)
    for _, (a0, vals) in mu.columns():
        i, j = a0 - a_min, a0 - a_min + len(vals)
        totals[i:j] = map(add, totals[i:j], vals)
        if 0 in vals:  # an interior zero occupies nothing of its own
            occupied[i:j] = map(or_, occupied[i:j], map(bool, vals))
        else:
            occupied[i:j] = repeat(True, j - i)
    if min(totals) < 0:
        raise ValueError("degree histogram needs nonnegative degree totals")
    max_mass = max(compress(totals, occupied))
    body = []
    for a in compress(range(a_min, a_end), occupied):
        mass = totals[a - a_min]
        h = PLOT_HEIGHT * mass / max_mass if max_mass else 0
        x = PADDING + (a - a_min) * CELL_SIZE
        y = PADDING + PLOT_HEIGHT - h
        body.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
            f'width="{_fmt(CELL_SIZE)}" height="{_fmt(h)}" '
            f'fill="rgb(96,96,96)" data-degree="{a}" data-mass="{mass}"/>\n'
        )
    width = 2 * PADDING + (a_end - a_min) * CELL_SIZE
    height = 2 * PADDING + PLOT_HEIGHT
    return _svg(width, height, body)
