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

one shifted subtraction and one running sum per residue class mod k + 1,
so a row costs no earlier row and nothing is cached between calls; by
[N k] = [N N-k] it is built only to k = N//2.

The coefficients of [N k]_q are palindromic, so each string is mirrored by
a -> lowest + highest - a, that is (a, b) -> (a + S, b + S) with

    S = d*d + (N*N - c)/4 + c*d - 2a,

the shift behind `string_symmetry_shift` and `palindromicity_check`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import sub

from .demazure import WeightDistribution
from .lattice import HighestWeight, LatticePoint, instance_of, word_length


def _binomial_row(N: int, top: int) -> list[list[int]]:
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


def gaussian_binomial(N: int, k: int) -> tuple[int, ...]:
    """[N choose k]_q as its coefficient tuple, constant term first; () outside 0 <= k <= N."""
    word_length(N)
    if type(k) is not int:
        raise ValueError("k must be an integer")
    if k < 0 or k > N:
        return ()
    return tuple(_binomial_row(N, min(k, N - k))[-1])


def level1_distribution(N: int) -> WeightDistribution:
    """Closed-form distribution for hw = L0 and the word (N, first=0), for every N >= 0.

    String d = k - N//2 is [N k]_q from row d*d up; strings k and N - k share
    one coefficient list.  No Demazure operator is applied, so this checks
    the recursion independently at both parities.

    It carries its column sums (WeightDistribution.column_sums) from the
    area sums of [N k]_q, with C = C(N, k) and v = k(N - k): mass C,
    sum(i * c) = C * v/2 and sum(i^2 * c) = C * v * (N + 1 + 3v)/12 (mean
    v/2, variance v(N + 1)/12), shifted to the rows a = d*d + i.  So its
    moment tables of degree <= 2 in a cost O(columns), as a chain
    snapshot's do.
    """
    half = _binomial_row(word_length(N), N // 2)  # [N k] = [N N-k]: read back past the middle row at even N
    cols = {d: (d * d, cs) for d, cs in enumerate(half + half[N % 2 - 2 :: -1], -(N // 2))}
    mu = WeightDistribution.from_columns(HighestWeight.fundamental(0), cols)
    sums = {}
    for d in cols:
        k, sq = d + N // 2, d * d
        c, v = comb(N, k), k * (N - k)
        s1, s2 = c * v // 2, c * v * (N + 1 + 3 * v) // 12
        sums[d] = c, sq * c + s1, sq * (sq * c + 2 * s1) + s2
    mu.column_sums = sums
    return mu


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
