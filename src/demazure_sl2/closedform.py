"""Closed form for level-1 weight distributions via Gaussian binomial columns.

For the fundamental weight L0 and the even alternating word of length N
(first letter 0), the multiplicity at (a, b) equals the number of monotone
lattice paths from (0, 0) to (k, N - k) with area i, where the string index
k and the depth i are read off the coordinates by

    i = N*N//4 - a,      k = (a - b) + N//2.

Those path counts are exactly the coefficients of the Gaussian binomial
[N choose k]_q, generated here along row N by the product recurrence

    [N k+1]_q = [N k]_q (1 - q^(N-k)) / (1 - q^(k+1)),

one shifted subtraction and one running sum per residue class mod k + 1,
so a row costs no earlier row and nothing is cached between calls.

Odd words extend the even closed form by one more Demazure step.  The
string-reflection shift and its palindromicity check live here too: the
level-1 distribution restricted to a column of fixed a - b (a delta
string) is a palindrome, mirrored by (a, b) -> (a + S, b + S) with

    S = (N*N - c)/4 + (a-b)^2 + c(a-b) - 2a,      c = N % 2,

derived from the string midpoint a = ((N*N - c)/4 + (a-b)^2 + c(a-b)) / 2,
which for odd N is the midpoint b = ((N*N - 1)/4 + (a-b)^2 - (a-b)) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import sub

from .demazure import WeightDistribution, apply_demazure
from .lattice import HighestWeight, LatticePoint


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
    if N < 0:
        raise ValueError("N must be nonnegative")
    if k < 0 or k > N:
        return ()
    return tuple(_binomial_row(N, min(k, N - k))[-1])


def level1_distribution(N: int) -> WeightDistribution:
    """Closed-form distribution for hw = L0 and the word (N, first=0).

    Even N is assembled directly from the Gaussian binomial columns; odd N
    applies one more D_0 to the closed form at N - 1.  No operator
    recursion from the highest weight is involved for even N, which is what
    makes this an independent cross-check of the recursion.
    """
    if N < 0:
        raise ValueError("word length must be nonnegative")
    hw = HighestWeight.fundamental(0)
    if N == 0:
        return WeightDistribution.delta(hw)
    if N % 2:
        return apply_demazure(0, level1_distribution(N - 1))
    # column d = k - N/2 holds [N k]_q with q^i at degree a = N^2/4 - i; the
    # coefficients are palindromic and [N k] = [N N-k], so columns d and -d
    # share one vector, already in ascending-degree order
    half = _binomial_row(N, N // 2)
    peak = N * N // 4
    cols = {k - N // 2: (peak + 1 - len(cs), cs) for k, cs in enumerate(half + half[-2::-1])}
    return WeightDistribution.from_columns(hw, cols)


def string_symmetry_shift(N: int, p: LatticePoint) -> int:
    """Shift S with mass(a, b) = mass(a + S, b + S) on level-1 delta strings."""
    if N < 0:
        raise ValueError("word length must be nonnegative")
    a, d, c = p[0], p[0] - p[1], N % 2
    return (N * N - c) // 4 + d * d + c * d - 2 * a


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
    for d, (a0, vals) in sorted(mu.columns()):
        t = string_symmetry_shift(N, LatticePoint(a0, a0 - d))  # row a0 + i mirrors to a0 + t - i
        if t != len(vals) - 1 or vals != vals[::-1]:
            i = next(i for i, c in enumerate(vals) if c and c != mu.mass((a0 + t - i, a0 + t - i - d)))
            return PalindromeResult(False, LatticePoint(a0 + i, a0 + i - d))
    return PalindromeResult(True)
