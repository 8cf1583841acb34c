"""Closed form for level-1 weight distributions via Gaussian binomial columns.

Take hw = L0 and the alternating word of length N with first letter 0, and
write c = N % 2.  For k = 0 .. N, the delta string d = a - b = k - N//2
holds the Gaussian binomial [N choose k]_q from its lowest row a = d*d up:
the multiplicity at (d*d + i, d*d + i - d) counts the monotone lattice
paths from (0, 0) to (k, N - k) with area i.  [N k]_q has degree
k(N - k) = (N*N - c)/4 - d*d + c*d, so the string's highest row is
(N*N - c)/4 + c*d.  One formula serves both parities and no Demazure
operator is applied, so it checks the recursion independently at every N
(level-1 Demazure characters are specialised nonsymmetric Macdonald
polynomials: Sanderson, J. Algebraic Combin. 11 (2000)).

Row N comes from the product recurrence

    [N k+1]_q = [N k]_q (1 - q^(N-k)) / (1 - q^(k+1)),

evaluated at q = 2^W, where each coefficient fills one W-bit slot: the
value is the string's packed column (the Column storage comment in
demazure.py), built by shift-adds with no Python object per coefficient.
A row costs no earlier row and nothing is cached between calls; by
[N k] = [N N-k] it is built only to k = N//2.

The coefficients of [N k]_q are palindromic, so each string is mirrored by
a -> lowest + highest - a, that is (a, b) -> (a + S, b + S) with

    S = d*d + (N*N - c)/4 + c*d - 2a,

the shift behind `string_symmetry_shift` and `palindromicity_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .demazure import WeightDistribution
from .lattice import HighestWeight, LatticePoint, instance_of, word_length


def _binomial_row(N: int, top: int) -> tuple[int, list[int]]:
    """(W, [[N k]_q at q = 2^W for k = 0 .. top]): each coefficient in its own W-bit slot, constant term lowest.

    [N k+1] = [N k] (1 - q^(N-k)) / (1 - q^(k+1)).  The product is one shift
    and one subtraction.  The quotient of p by 1 - q^m is p (1 + q^m +
    q^2m + ...), summed by doubling the range of the powers and masked to
    the n = (k + 1)(N - k - 1) + 1 slots of [N k+1] at every step: modulo
    q^n the series stops once its powers reach q^n, and [N k+1] < q^n, as
    every coefficient lies in [0, 2^W).  Every coefficient is at most
    C(N, k) <= 2^N, so W = WeightDistribution.slot_width(2^N), the rule the
    chain's packing uses, keeps it below 2^(W-1), the packing's bound.
    """
    width = WeightDistribution.slot_width(1 << N)
    row = [1]
    for k in range(top):
        n = (k + 1) * (N - k - 1) + 1
        mask, span = (1 << width * n) - 1, k + 1
        x = (row[-1] - (row[-1] << width * (N - k))) & mask
        while span < n:
            x = (x + (x << width * span)) & mask
            span *= 2
        row.append(x)
    return width, row


def gaussian_binomial(N: int, k: int) -> tuple[int, ...]:
    """[N choose k]_q as its coefficient tuple, constant term first; () outside 0 <= k <= N."""
    word_length(N)
    if type(k) is not int:
        raise ValueError("k must be an integer")
    if k < 0 or k > N:
        return ()
    width, row = _binomial_row(N, min(k, N - k))
    string = WeightDistribution.from_columns(HighestWeight.fundamental(0), {0: (0, row[-1])}, width, None)
    ((_, (_, vals)),) = string.columns()  # its own row, not level1_distribution's: tests compare the two
    return tuple(vals)


def level1_distribution(N: int) -> WeightDistribution:
    """Closed-form distribution for hw = L0 and the word (N, first=0), for every N >= 0.

    String d = k - N//2 is [N k]_q from row d*d up, stored as its value at
    q = 2^W, which is its packed column; strings k and N - k share that
    int, and so one decoded coefficient list.  No Demazure operator is
    applied, so this checks the recursion independently at both parities.

    It is built with its column sums (WeightDistribution.column_sums), the
    area sums of [N k]_q, with C = C(N, k) and v = k(N - k): mass C,
    sum(i * c) = C * v/2 and sum(i^2 * c) = C * v * (N + 1 + 3v)/12 (mean
    v/2, variance v(N + 1)/12), shifted to the rows a = d*d + i.  So its
    moment tables of degree <= 2 in a cost O(columns), as a chain
    snapshot's do.  Its slot width is WeightDistribution.slot_width(2^N)
    (see _binomial_row).
    """
    width, half = _binomial_row(word_length(N), N // 2)  # [N k] = [N N-k]: read back past the middle row at even N
    cols = {d: (d * d, x) for d, x in enumerate(half + half[N % 2 - 2 :: -1], -(N // 2))}
    sums = {}
    for d in cols:
        k, sq = d + N // 2, d * d
        c, v = comb(N, k), k * (N - k)
        s1, s2 = c * v // 2, c * v * (N + 1 + 3 * v) // 12
        sums[d] = c, sq * c + s1, sq * (sq * c + 2 * s1) + s2
    return WeightDistribution.from_columns(HighestWeight.fundamental(0), cols, width, sums)


def string_symmetry_shift(N: int, p: LatticePoint) -> int:
    """Shift S with mass(a, b) = mass(a + S, b + S) on level-1 delta strings.

    S = lowest + highest row of the string through (a, b), less 2a.
    """
    c = word_length(N) % 2
    a, d = p[0], p[0] - p[1]
    return d * d + (N * N - c) // 4 + c * d - 2 * a


@dataclass(frozen=True)
class PalindromeResult:
    """Outcome of a string-palindromicity scan; witness is a failing point."""

    ok: bool
    witness: LatticePoint | None = None

    def __bool__(self) -> bool:
        return self.ok


def palindromicity_check(mu: WeightDistribution, N: int) -> PalindromeResult:
    """Check every delta string (column of fixed a - b) against its reversal.

    Expects mu to be the level-1 distribution for the word (N, first=0);
    on such input the scan succeeds, and the first point (in string order)
    whose mirror carries a different mass is reported otherwise.
    """
    for d, (a0, vals) in sorted(instance_of(mu, WeightDistribution, "distribution").columns()):
        t = string_symmetry_shift(N, LatticePoint(a0, a0 - d))  # row a0 + i mirrors to a0 + t - i
        if t != len(vals) - 1 or vals != vals[::-1]:
            i = next(i for i, c in enumerate(vals) if c and c != mu.mass((a0 + t - i, a0 + t - i - d)))
            return PalindromeResult(False, LatticePoint(a0 + i, a0 + i - d))
    return PalindromeResult(True)
