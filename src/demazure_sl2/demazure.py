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
This module holds the representation, the operator and that chain; reads of
functionals off a distribution (images, marginals, moments) are in moments.

Implementation note: a measure is stored as columns of fixed d = a - b
over consecutive degrees a.  Both pairings depend on d alone, so D_j maps
whole columns: a D_1 string is a row of fixed a, a D_0 string one of fixed
b.  With s = d (j = 1), or s = -d and rows b (j = 0), the pairing is
k = 2s - C for C = -n resp. -m, and output column e (2e >= C), equal to
output column C - e, is

    sum of columns s >= e with k >= 0  minus  sum of columns s <= C - 1 - e with k <= -2.

Each column is packed into one int, its entries in fixed-width W-bit slots
from its lowest row up, so a whole column is added or subtracted in one
big-int operation.  One downward sweep over 2e >= C serves both letters.
It keeps that difference as one running int, out[e] = out[e + 1] +
column e - column C - 1 - e: in that range column e is always dominant and
column C - 1 - e always antidominant, so one block, run once per input
column, reads either straight from the input and differs between them
only in adding or subtracting.  D_0 reads column -s at its a rows shifted
by s, which are its b rows, so nothing is re-keyed.  The running int is
held from its lowest row: a column that starts below it shifts it up once,
any other is shifted onto it, and output column e is the running int
itself, shifted down only when its bottom rows cancel.  One application
costs a few big-int additions and shifts per input column, running in C
over the digits of the ints, with no Python object per entry.  Every
distribution holds its columns packed, however it was built, and the
entries as lists are a view decoded on the first read that needs them
(columns, items, the writers, ==), also in C; copies and pickles carry the
packing and the column sums and decode nothing.  The definitional
per-point expansion is kept in the test suite as an independent oracle.

The rows of a column do not move, so each step of the same sweep also
moves three running power sums sum(c * r^p) over the rows r, and output
column e stores its sums where it stores its int: the distributions of
distribution_chain carry them in the a rows, for p <= CARRIED_A_DEGREE, at
three int additions per input column; D_0 moves a column's sums
binomially to its b rows as it reads it, and the output's back as it
stores it.  That costs O(columns) per application, and moments.raw_moments
reads every table of degree <= 2 in a of a chain snapshot off them with no
pass over entries.  The slot width reads them too: the mass bounds every
entry of the next application.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, compress, cycle, islice
from operator import add, methodcaller, not_, sub
from sys import byteorder
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .lattice import (
    HighestWeight,
    LatticePoint,
    ValidatedTuple,
    generator_index,
    instance_of,
    lattice_point,
    word_length,
)


class WeylWord(ValidatedTuple, namedtuple("WeylWord", "length first")):
    """Alternating word in the two affine generators.

    ``first`` is the index of the rightmost letter, the one applied first;
    a word of length N therefore ends (leftmost letter) with ``first`` when
    N is odd and with ``1 - first`` when N is even.

    A lattice.ValidatedTuple: length and first must be ints (not bools) on
    every route to an instance, as for HighestWeight.  It equals, and
    hashes as, the plain tuple (length, first).
    """

    __slots__ = ()

    def __new__(cls, length: int, first: int) -> "WeylWord":
        return super().__new__(cls, word_length(length), generator_index(first))


# Column storage, d -> (a0, x), c_i the mass at (a0 + i, a0 + i - d): the
# packed column x = sum(c_i << W*i), W the distribution's slot width (see
# WeightDistribution.slot_width), so every |c_i| < 2^(W-1).  c_0 is
# nonzero, so x is, and its bit length gives the column's length (_length).
# Empty columns are absent and interior zeros allowed, so equal measures
# have equal column dicts.
# Every route to a distribution stores this form: __init__ packs each column
# as it is built, and delta, apply_demazure, closedform.level1_distribution,
# copies and pickles build through from_columns.  The entries as lists,
# vals[i] = c_i with both ends nonzero, are a view decoded from the packing
# on the first read of entries (_unpack) and kept.  Ints are shared between
# columns and distributions and never mutated, and the decode runs once per
# distinct value, so columns with equal ints share one decoded list, also
# after a pickle round trip, which does not keep ints shared.  A D_j
# output is s_j-invariant and holds one int per mirrored pair: after D_1
# columns d and -n - d, after D_0 columns d and m - d (D_0 reads and stores
# column d at its b rows, from a0 - d, and re-keys no column), and in
# closedform.level1_distribution strings k and N - k.  moments.raw_moments,
# moments.pushforward and moments.pushforward_covariance (to sum each shared
# list once), WeightDistribution.canonical_pieces and render.heatmap (to
# format or shade each shared list once) rely on this.
# A distribution's columns never change after construction, so memos keyed
# by id(vals) on the distribution stay valid while it lives; __reduce__
# drops them, so a copy or an unpickled distribution starts with none.
# Column sums (WeightDistribution.column_sums) are per column, not per
# vector: mirrored columns after D_0 share a vector over b rows but not
# their sums over a rows.  They are passed to from_columns by delta, by
# apply_demazure, which carries them from its input, and by
# closedform.level1_distribution, from the area sums of Gaussian binomials,
# and copies and pickles keep them.  Only a distribution built by hand
# (__init__) has none, and raw_moments sums its entries.
Column = tuple[int, list[int]]
PackedColumn = tuple[int, int]

# The degree in a of the power sums a distribution of the chain carries per
# column: 2, the largest that any moment reader of the package asks for
# (covariance_matrix, the level-1 suites, asymptotics' walk).  The sweep of
# _fold is written out for it.
CARRIED_A_DEGREE = 2
# d -> (sum(c * a^p) over column d for p = 0..CARRIED_A_DEGREE), keyed as the
# columns are; mirrored columns of a D_1 output share one tuple.
ColumnSums = dict[int, tuple[int, ...]]


def _length(x: int, width: int) -> int:
    """Number of slots of packed column x: its top slot holds the top bits, as |c| < 2^(W-1) in every slot."""
    return x.bit_length() // width + 1


def _slot_bias(n: int, width: int, half: int) -> int:
    """half in each of n width-bit slots: sum(half << width * i for i < n)."""
    return int.from_bytes(half.to_bytes(width // 8, "little") * n, "little")


def _plane(words: memoryview, t: int, k: int) -> list[int]:
    """Word t (0 the least significant) of each k-word slot of words, lowest slot first, sliced before it is listed."""
    if byteorder == "big":  # int.to_bytes wrote the most significant word first
        return words[len(words) - 1 - t :: -k].tolist()
    return words[t::k].tolist()


def _unpack(x: int, width: int, signed: bool) -> list[int]:
    """The entries of packed column x, lowest row first.

    With no negative entry the slots are the bytes of x.  Otherwise adding
    2^(W-1) to every slot leaves each in [0, 2^W), so no carry crosses a
    slot, and xor-ing it back leaves each entry's W-bit two's complement.
    At W = 64 one signed cast reads them, in C.  A wider slot is put
    together from its 64-bit words: the plane of each slot's top word, read
    signed, is shifted up by 64 bits and or-ed with the next plane down,
    read unsigned (its bits are below the shift), once per lower word.
    """
    n = _length(x, width)
    if signed:
        bias = _slot_bias(n, width, 1 << width - 1)
        x = (x + bias) ^ bias
    raw = memoryview(x.to_bytes(n * width // 8, byteorder))
    k = width // 64
    vals = _plane(raw.cast("q"), k - 1, k)
    if k > 1:
        low = raw.cast("Q")
        for t in range(k - 2, -1, -1):
            vals = [hi << 64 | lo for hi, lo in zip(vals, _plane(low, t, k))]
    return vals


def _pack(vals: list[int], width: int) -> int:
    """The column vals packed in width-bit slots: each entry offset by 2^(W-1) and written as bytes, in C."""
    half = 1 << width - 1
    raw = b"".join(map(methodcaller("to_bytes", width // 8, "little"), map(half.__add__, vals)))
    return int.from_bytes(raw, "little") - _slot_bias(len(vals), width, half)


def _widen(x: int, width: int, wider: int) -> int:
    """Packed column x moved to wider slots, in C: the words of each offset slot go to the low words of a wider one."""
    n, half = _length(x, width), 1 << width - 1
    k, step = width // 64, wider // 64
    src = memoryview((x + _slot_bias(n, width, half)).to_bytes(n * width // 8, "little")).cast("Q")
    dst = bytearray(n * wider // 8)
    words = memoryview(dst).cast("Q")
    for t in range(k):
        words[t::step] = src[t::k]
    return int.from_bytes(dst, "little") - _slot_bias(n, wider, half)


def _recode(cols: dict, code: Callable) -> dict:
    """cols with code applied to each column's int, once per distinct value: equal ints share the result.

    Ints are bucketed by (bit length, low 64 bits), which costs O(1) for
    the nonnegative ints of a Demazure character where hashing one reads
    all its digits, and matched by ==, which costs O(1) on the one object
    that mirrored columns share.
    """
    done: dict[tuple[int, int], list] = {}
    out = {}
    for d, (a0, v) in cols.items():
        bucket = done.setdefault((v.bit_length(), v & 0xFFFFFFFFFFFFFFFF), [])
        for w, r in bucket:
            if w == v:
                break
        else:
            r = code(v)
            bucket.append((v, r))
        out[d] = a0, r
    return out


class WeightDistribution:
    """Finitely supported integer measure on the (a, b) lattice.

    Entries with value 0 are not part of the support.  For genuine Demazure
    words all entries are positive multiplicities; signed values are
    permitted so the operators can be probed on arbitrary inputs.  hw must
    be a HighestWeight, and masses and coordinates ints (not bools).

    The columns are stored packed, whichever route built the distribution
    (see the Column storage comment above).  Its state, hw, the packed
    columns, their slot width and ``column_sums``, is set once, by _init,
    and never changed.  ``column_sums`` is None or the ColumnSums of the
    columns: delta and closedform.level1_distribution pass them to
    from_columns and apply_demazure carries them from its input, so every
    distribution of distribution_chain has them, and moments.raw_moments
    reads tables of degree <= CARRIED_A_DEGREE in a off them in O(columns).
    Two derived views are built once per distribution and reused by every
    reader: the lists decoded from the packing, on the first read of
    entries, and the decimal text of each distinct column vector (see
    canonical_pieces).  column_keys and degree_range read the packing and
    decode nothing.  The views take no part in ==, copies or pickles; a
    copy or a pickle holds the packing and the sums and decodes nothing.
    """

    __slots__ = ("hw", "_packed", "_width", "column_sums", "_lists", "_texts")

    def __init__(self, hw: HighestWeight, entries: Mapping[tuple[int, int], int] | None = None):
        hw = instance_of(hw, HighestWeight, "highest weight")
        by_d: dict[int, dict[int, int]] = {}
        bound = 0
        for (a, b), c in (entries or {}).items():
            if not (type(a) is int and type(b) is int and type(c) is int):
                raise TypeError("distribution coordinates and masses must be integers")
            if c:
                by_d.setdefault(a - b, {})[a] = c
                bound += abs(c)
        width = self.slot_width(bound)  # the width D_j on it needs, so its first fold does not widen
        cols = {}
        for d, masses in by_d.items():
            a0 = min(masses)
            cols[d] = (a0, _pack([masses.get(a, 0) for a in range(a0, max(masses) + 1)], width))
        self._init(hw, cols, width, None)

    def _init(self, hw: HighestWeight, packed: dict[int, PackedColumn], width: int, sums: ColumnSums | None) -> None:
        """Set the state, the packed columns at slot width width and their sums, with empty derived views."""
        self.hw, self._packed, self._width, self.column_sums = hw, packed, width, sums
        self._lists: dict[int, Column] | None = None
        self._texts: dict[int, list[str]] = {}

    @staticmethod
    def slot_width(bound: int) -> int:
        """The slot width W for entries bounded by B in absolute value: the least multiple of 64 with B < 2^(W-1)."""
        return 64 * (bound.bit_length() // 64 + 1)

    @classmethod
    def delta(cls, hw: HighestWeight) -> "WeightDistribution":
        """Point mass at the highest weight itself, (a, b) = (0, 0), with its column sums."""
        hw = instance_of(hw, HighestWeight, "highest weight")
        return cls.from_columns(hw, {0: (0, 1)}, cls.slot_width(1), {0: (1,) + (0,) * CARRIED_A_DEGREE})

    @classmethod
    def from_columns(
        cls, hw: HighestWeight, cols: dict[int, PackedColumn], width: int, sums: ColumnSums | None
    ) -> "WeightDistribution":
        """The distribution whose columns are cols, packed at slot width width, with column sums sums (None: none).

        Taken as given: no copy, no check.  Precondition: width is a
        multiple of 64, every column is packed as the Column storage comment
        above requires (its lowest slot nonzero, every entry below
        2^(width-1) in absolute value), and sums, when given, are the
        columns' ColumnSums of a measure with no negative entry.  Copies and
        pickles build through here, so they share or rebuild the ints and
        the sums alone.
        """
        mu = cls.__new__(cls)
        mu._init(hw, cols, width, sums)
        return mu

    def __reduce__(self):
        # the state alone: a memo keyed by id(vals) would go stale in a copy; the
        # column sums go with the packing, so a copy reads its tables off them too
        return WeightDistribution.from_columns, (self.hw, self._packed, self._width, self.column_sums)

    @property
    def _cols(self) -> dict[int, Column]:
        """The columns as lists: the view decoded from the packing on the first read and kept.

        Column sums are set on Demazure characters alone, whose entries are
        multiplicities, so a distribution with them has no negative entry.
        """
        if self._lists is None:
            width, signed = self._width, self.column_sums is None
            self._lists = _recode(self._packed, lambda x: _unpack(x, width, signed))
        return self._lists

    def columns(self) -> Iterable[tuple[int, Column]]:
        """(d, (a0, vals)) per column of fixed d = a - b; vals is read-only."""
        return self._cols.items()

    def column_keys(self) -> Iterable[int]:
        """The d = a - b of the nonempty columns; decodes no entry."""
        return self._packed.keys()

    def mass(self, p: tuple[int, int]) -> int:
        a, b = lattice_point(p)
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

    def canonical_pieces(self, fields: Sequence[tuple[str, Callable[[int], str]]], lead: str = "") -> list[str]:
        """Text of every support point in (a, b) order, one piece per field, padded; the one ordered reader.

        A field is (axis, piece): axis "d", "a", "b" or "mult", piece(v) its text at value v.
        piece runs once per column, row, b value and entry of each distinct column vector, never per point.
        A ("mult", str) field reads the decimal texts of the distribution's own memo, built once per distinct
        vector and shared by every call, so the CSV, JSON and heatmap writers format each multiplicity once
        between them; any other mult piece is memoised for the call alone.  A template's text after the
        multiplicity therefore opens the next entry's field 0, and ``lead``, that carried text, is cut from
        the first entry's field 0; the caller ends the text with it.
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
        cached = [
            list(map(piece, spans[axis])) if axis in spans else self._texts if piece is str else {}
            for axis, piece in fields
        ]
        width = len(fields)
        step = width * len(self._cols)  # slots per row
        out = [""] * (step * (hi - lo))
        for k, (d, (a0, vals)) in enumerate(sorted(self._cols.items(), reverse=True)):
            slots = range(width * k + step * (a0 - lo), step * (a0 - lo + len(vals)), step)  # field 0 of each entry
            for f, ((axis, piece), cache) in enumerate(zip(fields, cached), slots.start):
                if axis == "d":
                    col = [piece(d)] * len(vals)
                elif axis == "mult":
                    if id(vals) not in cache:  # mirrored columns share vals, kept alive in self._cols
                        cache[id(vals)] = list(map(piece, vals))
                    col = cache[id(vals)]
                else:
                    i = a0 - lo if axis == "a" else a0 - d - b_lo
                    col = cache[i : i + len(vals)]
                out[f : slots.stop : step] = col
            if 0 in vals:  # interior zeros are not support points
                for i in compress(slots, map(not_, vals)):
                    out[i : i + width] = [""] * width
        if lead and out:  # the first entry's field 0 is the first non-empty slot
            i = out.index(next(filter(None, out)))
            out[i] = out[i].removeprefix(lead)
        return out

    def sorted_items(self) -> list[tuple[LatticePoint, int]]:
        """items() sorted by (a, b), with LatticePoint keys."""
        return [(LatticePoint(*p), c) for p, c in sorted(self.items())]

    def degree_range(self) -> tuple[int, int]:
        """(lo, hi) with every support degree in range(lo, hi); (0, 0) when empty.  Decodes no entry."""
        spans = [(a0, _length(x, self._width)) for a0, x in self._packed.values()]
        return min((a0 for a0, _ in spans), default=0), max((a0 + n for a0, n in spans), default=0)

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


def _fold(j: int, mu: WeightDistribution) -> tuple[dict[int, PackedColumn], int, ColumnSums | None]:
    """D_j on mu's packed columns and on their row power sums: the output's columns, slot width and sums.

    The one sweep of the implementation note, for both letters, with the
    running int held from its lowest row.  For each e > (C - 1)//2 one
    block reads string column e (k >= 0) with op = add and string column
    C - 1 - e (k <= -2) with op = sub, and no k = -1 column: it starts the
    run, shifts it up or shifts the column onto it, and moves the column's
    sums to string rows, the same for both.  For D_0, string column s is
    stored column -s, read at its b rows, which start s rows above its a0;
    its sums move to those rows as it is read, and output column e's back
    to a rows as it is stored under keys -e and -(C - e), whose a0 lie e and
    C - e rows below its lowest b row.  Sums are written out for
    CARRIED_A_DEGREE = 2.

    Every output entry, and every partial sum of the sweep, is a signed sum
    of input entries of one row, so B = sum(|c|) over mu bounds it, and the
    slot width is W = WeightDistribution.slot_width(B), or mu's own when
    that is wider: a packing is never narrowed.  Column sums are set on
    Demazure characters alone, whose entries are multiplicities, so there B
    is the mass, read off them in O(columns), and the sums are carried; any
    other input is decoded and its |c| summed, the sweep reads zeros for its
    sums and the output carries none.
    """
    sums = mu.column_sums
    if sums is not None:
        bound, carried = sum(s[0] for s in sums.values()), sums
    else:
        bound = sum(sum(map(abs, vals)) for _, vals in mu._cols.values())
        carried = dict.fromkeys(mu._packed, (0,) * (CARRIED_A_DEGREE + 1))
    narrow = mu._width
    width = max(narrow, WeightDistribution.slot_width(bound))
    cols = mu._packed if width == narrow else _recode(mu._packed, lambda x: _widen(x, narrow, width))
    C, sign, up = (-mu.hw.n, 1, 0) if j else (-mu.hw.m, -1, 1)  # string column s: stored sign*s, rows from a0 + up*s
    out: dict[int, PackedColumn] = {}
    res: ColumnSums = {}
    stop = (C - 1) // 2  # the last e with 2e < C
    top = max(max(s, C - 1 - s) for s in (sign * max(cols, default=0), sign * min(cols, default=0)))
    slot = (1 << width) - 1
    run = base = s0 = s1 = s2 = 0
    for e in range(top, stop, -1):
        for t, op in ((e, add), (C - 1 - e, sub)):
            col = cols.get(sign * t)
            if col is not None:
                v = up * t
                r0, x = col[0] + v, col[1]
                if not run:  # start a run at the column's lowest row
                    base = r0
                if r0 < base:  # shift the run up and add x unshifted: x << 0 would copy it
                    run, base = op(run << width * (base - r0), x), r0
                else:
                    run = op(run, x << width * (r0 - base))
                p0, p1, p2 = carried[sign * t]
                s0, s1, s2 = op(s0, p0), op(s1, p1 + v * p0), op(s2, p2 + v * (2 * p1 + v * p0))
        if run:
            if not run & slot:  # the bottom rows cancelled
                z = ((run & -run).bit_length() - 1) // width
                run, base = run >> width * z, base + z
            if up:
                for f in (e, C - e):
                    out[-f] = base - f, run
                    res[-f] = s0, s1 - f * s0, s2 - f * (2 * s1 - f * s0)
            else:
                out[e] = out[C - e] = base, run
                res[e] = res[C - e] = s0, s1, s2
    return out, width, None if sums is None else res


def apply_demazure(j: int, mu: WeightDistribution) -> WeightDistribution:
    """One application of D_j; mu is not modified.  The output carries sums when mu does."""
    mu = instance_of(mu, WeightDistribution, "distribution")
    return WeightDistribution.from_columns(mu.hw, *_fold(generator_index(j), mu))


def distribution_chain(hw: HighestWeight, first: int) -> Iterator[WeightDistribution]:
    """Endless iterator of mu_0, mu_1, mu_2, ...: the one walk along the alternating word.

    mu_t is the distribution of the length-t word whose rightmost letter is
    ``first``: letter t (counting from 0 in application order) is ``first``
    for even t and ``1 - first`` for odd t, and mu_{t+1} = D_j mu_t.  Only
    the latest mu_t is held.  ``first`` is checked by lattice.generator_index,
    as in WeylWord, and hw by WeightDistribution, so a bad one raises here,
    not on next().
    """
    letters = cycle((generator_index(first), 1 - first))
    mu0 = WeightDistribution.delta(hw)
    return accumulate(letters, lambda mu, j: apply_demazure(j, mu), initial=mu0)


def weight_distribution(hw: HighestWeight, word: WeylWord) -> WeightDistribution:
    """Weight multiplicity distribution of the Demazure module for ``word``."""
    word = instance_of(word, WeylWord, "word")
    return next(islice(distribution_chain(hw, word.first), word.length, None))
