"""Demazure operators on finitely supported measures over the weight lattice.

The operator D_j acts on a point mass at lambda with k = <alpha_j^, lambda> by

    D_j delta_lambda = delta_lambda + delta_{lambda - alpha_j} + ... + delta_{lambda - k*alpha_j}   (k >= 0)
    D_j delta_lambda = 0                                                                            (k = -1)
    D_j delta_lambda = -(delta_{lambda - (k+1)*alpha_j} + ... + delta_{lambda + alpha_j})           (k <= -2)

extended linearly to signed integer combinations.  Iterating the operators
along an alternating word starting from the point mass at the highest
weight yields the weight multiplicity distribution of the corresponding
Demazure module; for genuine words all intermediate measures stay
nonnegative.  distribution_chain, the endless chain mu_0, mu_1, ... of the
prefixes, is the one walk along the word; every other chain reads from it.

Implementation note: a measure is stored as columns of fixed d = a - b
over consecutive degrees a.  Both pairings depend on d alone, so D_j maps
whole columns: a D_1 string is a row of fixed a, a D_0 string one of fixed
b.  With s = d (j = 1), or s = -d and rows indexed by b (j = 0), the
pairing is k = 2s - C for C = -n resp. -m, and output column e (2e >= C),
equal to output column C - e, is

    sum of columns s >= e with k >= 0  minus  sum of columns s <= C - 1 - e with k <= -2.

A downward sweep over e keeps that difference as one list of its own over
the input's rows, out[e] = out[e + 1] + column e - column C - 1 - e (each
term only where it is dominant resp. antidominant), adding or subtracting
the column into its slice in place.  One application costs one addition
or subtraction per input entry and one copy per output entry, all inside
map().  The definitional per-point expansion is kept in the test suite as
an independent oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, compress, cycle, islice, repeat
from operator import add, not_, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .lattice import Functional, HighestWeight, LatticePoint, Scalar


class WeylWord(namedtuple("WeylWord", "length first")):
    """Alternating word in the two affine generators.

    ``first`` is the index of the rightmost letter, the one applied first;
    a word of length N therefore ends (leftmost letter) with ``first`` when
    N is odd and with ``1 - first`` when N is even.

    A validated named tuple: length and first must be ints (not bools), and
    every route to an instance runs the checks, as for HighestWeight.  It
    equals, and hashes as, the plain tuple (length, first).
    """

    __slots__ = ()

    def __new__(cls, length: int, first: int) -> "WeylWord":
        if type(length) is not int or length < 0:
            raise ValueError("word length must be a nonnegative integer")
        if type(first) is not int or first not in (0, 1):
            raise ValueError("first letter must be generator 0 or 1")
        return super().__new__(cls, length, first)

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "WeylWord":
        # namedtuple's own _make, which _replace calls, would skip __new__
        return cls(*iterable)


# Column storage: d -> (a0, vals) with vals[i] the mass at (a0 + i, a0 + i - d).
# Both ends of vals are nonzero and empty columns are absent, so equal
# measures have equal column dicts; interior zeros are allowed.  Vectors
# are shared between columns and distributions and never mutated.  A D_j
# output is s_j-invariant and holds one list per mirrored pair: after D_1
# columns d and -n - d, after D_0 columns d and m - d, and in
# closedform.level1_distribution strings k and N - k.  moments.raw_moments
# (to sum each shared list once), WeightDistribution.canonical_pieces and
# render.heatmap (to format or shade each shared list once) rely on this.
Column = tuple[int, list[int]]


def _trim(lo: int, vals: list[int]) -> Column | None:
    """Strip zero ends; None for an all-zero vector."""
    if vals[0] and vals[-1]:
        return lo, vals
    nonzero = [i for i, c in enumerate(vals) if c]
    return (lo + nonzero[0], vals[nonzero[0] : nonzero[-1] + 1]) if nonzero else None


class WeightDistribution:
    """Finitely supported integer measure on the (a, b) lattice.

    Entries with value 0 are not part of the support.  For genuine Demazure
    words all entries are positive multiplicities; signed values are
    permitted so the operators can be probed on arbitrary inputs.
    """

    __slots__ = ("hw", "_cols")

    def __init__(self, hw: HighestWeight, entries: Mapping[tuple[int, int], int] | None = None):
        self.hw = hw
        by_d: dict[int, dict[int, int]] = {}
        for (a, b), c in (entries or {}).items():
            if c:
                by_d.setdefault(a - b, {})[a] = c
        self._cols = {}
        for d, masses in by_d.items():
            a0 = min(masses)
            self._cols[d] = (a0, [masses.get(a, 0) for a in range(a0, max(masses) + 1)])

    @classmethod
    def delta(cls, hw: HighestWeight) -> "WeightDistribution":
        """Point mass at the highest weight itself, (a, b) = (0, 0)."""
        return cls(hw, {(0, 0): 1})

    @classmethod
    def from_columns(cls, hw: HighestWeight, cols: dict[int, Column]) -> "WeightDistribution":
        """The distribution whose columns are cols, taken as given: no copy, no check.

        Precondition: every column is trimmed (both ends of vals nonzero) and
        nonempty, as the Column storage comment above requires.
        """
        mu = cls.__new__(cls)
        mu.hw = hw
        mu._cols = cols
        return mu

    def columns(self) -> Iterable[tuple[int, Column]]:
        """(d, (a0, vals)) per column of fixed d = a - b; vals is read-only."""
        return self._cols.items()

    def mass(self, p: tuple[int, int]) -> int:
        a, b = p
        a0, vals = self._cols.get(a - b, (a, ()))
        return vals[a - a0] if 0 <= a - a0 < len(vals) else 0

    def _column_items(self, d: int) -> Iterator[tuple[tuple[int, int], int]]:
        a0, vals = self._cols[d]
        pairs = zip(range(a0, a0 + len(vals)), range(a0 - d, a0 - d + len(vals)))
        return compress(zip(pairs, vals), vals)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """((a, b), mult) per support point, a column at a time.

        Keys are plain tuples, equal to (and hashing like) the LatticePoint
        of the same point, so no object is built per point for a consumer
        that unpacks and drops it; sorted_items() gives LatticePoint keys.
        """
        return chain.from_iterable(map(self._column_items, self._cols))

    def canonical_pieces(self, fields: Sequence[tuple[str, Callable[[int], str]]]) -> list[str]:
        """Text of every support point in (a, b) order, one piece per field, padded; the one ordered reader.

        A field is (axis, piece): axis "d", "a", "b" or "mult", piece(v) its text at value v.
        piece runs once per column, row, b value and entry of each distinct column vector, never per point.
        Each field's pieces of a column take their slots of a row-major list over (a, column by descending
        d, field) by one extended-slice assignment.  The list is returned as filled, with no filter and no
        second list: slots of no support point (padding and interior zeros) hold "", so "".join of it is the
        text, and a caller splices its head and tail in place.  Slots: F * K * R (F fields, K columns, R rows);
        K * R / support_size is 1.52-1.65 at levels 1-4.
        """
        if not fields:
            return []
        lo, hi = self.degree_range()
        b_lo = lo - max(self._cols, default=0)
        spans = {"a": range(lo, hi), "b": range(b_lo, hi - min(self._cols, default=0))}
        cached = [list(map(piece, spans[axis])) if axis in spans else {} for axis, piece in fields]
        width = len(fields)
        step = width * len(self._cols)  # slots per row
        out = [""] * (step * (hi - lo))
        for k, (d, (a0, vals)) in enumerate(sorted(self._cols.items(), reverse=True)):
            slots = range(width * k + step * (a0 - lo), step * (a0 - lo + len(vals)), step)  # field 0 of each entry
            for f, ((axis, piece), cache) in enumerate(zip(fields, cached), slots.start):
                if axis == "d":
                    col = [piece(d)] * len(vals)
                elif axis == "mult":
                    if id(vals) not in cache:  # memo: mirrored columns share vals, kept alive in self._cols
                        cache[id(vals)] = list(map(piece, vals))
                    col = cache[id(vals)]
                else:
                    i = a0 - lo if axis == "a" else a0 - d - b_lo
                    col = cache[i : i + len(vals)]
                out[f : slots.stop : step] = col
            if 0 in vals:  # interior zeros are not support points
                for i in compress(slots, map(not_, vals)):
                    out[i : i + width] = [""] * width
        return out

    def sorted_items(self) -> list[tuple[LatticePoint, int]]:
        """items() sorted by (a, b), with LatticePoint keys."""
        return [(LatticePoint(*p), c) for p, c in sorted(self.items())]

    def degree_range(self) -> tuple[int, int]:
        """(lo, hi) with every support degree in range(lo, hi); (0, 0) when empty."""
        lo = min((a0 for a0, _ in self._cols.values()), default=0)
        return lo, max((a0 + len(vals) for a0, vals in self._cols.values()), default=0)

    @property
    def support_size(self) -> int:
        return sum(len(vals) - vals.count(0) for _, vals in self._cols.values())

    def total_mass(self) -> int:
        return sum(sum(vals) for _, vals in self._cols.values())

    def __len__(self) -> int:
        return self.support_size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return self.hw == other.hw and self._cols == other._cols

    def __repr__(self) -> str:
        return f"WeightDistribution(hw={self.hw}, support={len(self)}, mass={self.total_mass()})"


def _fold(cols: dict[int, Column], C: int) -> dict[int, Column]:
    """D_j on columns keyed by string coordinate s, pairing k = 2s - C.

    Vectors run over rows that D_j does not move.  Dominant columns
    (k >= 0) are summed from the top down, antidominant ones (k <= -2)
    from the bottom up; k = -1 columns contribute nothing.  One running
    list over the input's rows holds output column e: stepping e down
    adds dominant column e into its slice and subtracts antidominant
    column C - 1 - e from its slice, both in place, and the output is a
    copy of the rows reached so far.
    """
    dom = {s: col for s, col in cols.items() if 2 * s >= C}
    anti = {s: col for s, col in cols.items() if 2 * s <= C - 2}
    out: dict[int, Column] = {}
    stop = (C - 1) // 2  # the last e with 2e < C
    top = max(max(dom, default=stop), C - 1 - min(anti, default=C - 1 - stop))
    lo = min((r0 for r0, _ in cols.values()), default=0)
    rows = max((r0 + len(vals) for r0, vals in cols.values()), default=lo) - lo
    run = [0] * rows
    l, h = rows, 0  # rows l..h-1 are the ones some column has reached
    for e in range(top, stop, -1):
        for op, col in ((add, dom.get(e)), (sub, anti.get(C - 1 - e))):
            if col is not None:
                r0, vals = col
                i, j = r0 - lo, r0 - lo + len(vals)
                run[i:j] = map(op, run[i:j], vals)
                l, h = min(l, i), max(h, j)
        res = _trim(lo + l, run[l:h])
        if res is not None:
            out[e] = out[C - e] = res
    return out


def _flip(cols: dict[int, Column]) -> dict[int, Column]:
    """Re-key columns by -d and their vectors by b = a - d, and back."""
    return {-s: (r0 - s, vals) for s, (r0, vals) in cols.items()}


def apply_demazure(j: int, mu: WeightDistribution) -> WeightDistribution:
    """One application of D_j; input is not modified."""
    if type(j) is not int or j not in (0, 1):
        raise ValueError("generator index must be 0 or 1")
    if j == 1:
        cols = _fold(mu._cols, -mu.hw.n)
    else:
        cols = _flip(_fold(_flip(mu._cols), -mu.hw.m))
    return WeightDistribution.from_columns(mu.hw, cols)


def distribution_chain(hw: HighestWeight, first: int) -> Iterator[WeightDistribution]:
    """Endless iterator of mu_0, mu_1, mu_2, ...: the one walk along the alternating word.

    mu_t is the distribution of the length-t word whose rightmost letter is
    ``first``: letter t (counting from 0 in application order) is ``first``
    for even t and ``1 - first`` for odd t, and mu_{t+1} = D_j mu_t.  Only
    the latest mu_t is held.  A bad ``first`` raises here, not on next().
    """
    WeylWord(0, first)  # raises the WeylWord ValueError for a bad first
    letters = cycle((first, 1 - first))
    return accumulate(letters, lambda mu, j: apply_demazure(j, mu), initial=WeightDistribution.delta(hw))


def weight_distribution(hw: HighestWeight, word: WeylWord) -> WeightDistribution:
    """Weight multiplicity distribution of the Demazure module for ``word``."""
    return next(islice(distribution_chain(hw, word.first), word.length, None))


def image_measure(mu: WeightDistribution, fs: Sequence[Functional]) -> dict[tuple[Scalar, ...], int]:
    """Pushforward of mu along p -> (f(p) for f in fs); cancels to 0 are dropped.

    Summed over int numerators from Functional.on_column: with q the lcm of
    a functional's denominators, the image is first taken along q * f, and
    a column on which every functional is constant adds its total mass to
    one key.  Then each key's axes are divided by their q; an axis whose
    functional has int coefficients keeps int values.
    """
    qs = [f.numerators()[0] for f in fs]
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for d, (a0, vals) in mu.columns():
        rows = range(a0, a0 + len(vals))
        nums = tuple(f.on_column(d, rows)[1] for f in fs)
        if all(type(n) is int for n in nums):
            acc[nums] = get(nums, 0) + sum(vals)
            continue
        for key, c in zip(zip(*(repeat(n) if type(n) is int else n for n in nums)), vals):
            acc[key] = get(key, 0) + c
    return {tuple(n if q == 1 else Fraction(n, q) for n, q in zip(key, qs)): c for key, c in acc.items() if c}


def marginal(mu: WeightDistribution, f: Functional) -> dict[Scalar, int]:
    """Pushforward of mu along a scalar functional: value -> total mass."""
    return {v: c for (v,), c in image_measure(mu, (f,)).items()}
