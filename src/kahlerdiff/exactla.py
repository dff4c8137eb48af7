"""Exact rational linear algebra: one elimination kernel.

Every dimension count in this package comes down to a row space over Q.
Scalars are `fractions.Fraction`; rows are scaled to integers by clearing
denominators row-wise.  `Echelon` is the one kernel: an incremental,
fraction-free echelon form that the Hilbert tables and the ideal-jet
sweep grow degree by degree, that `kernel_standard` reads primitive
integer kernel bases off, with no `Fraction` built, and whose pivot
columns pick the minimal generators.
It keeps reduced only the rows from a block boundary on, the only rows a
caller reads beyond rank and pivots: all of them for `kernel_standard`
and the form tables, J's past W in the ideal-jet sweep, none for
`hf_table` and `minimal_generators`.  It grows by batches, each inserted
right to left by leading column; one back-substitution pass at the end
of the batch clears the reduced rows at the new pivots.
`rank` ranks a whole matrix in one batch with no row kept reduced; it
serves the one-shot checks (a single-degree `submodule_slice`, general
position, a singular coordinate change or conic).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence


def _clear_row_denominators(row: Sequence[Fraction | int]) -> list[int]:
    """A copy of `row` scaled by the lcm of its denominators; a row of ints,
    which every sweep passes, is only copied."""
    if set(map(type, row)) <= {int}:
        return list(row)
    L = lcm(*(x.denominator for x in row))
    return [int(x * L) for x in row]


def integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Rescale each row by the lcm of its denominators (rank-preserving)."""
    return [_clear_row_denominators(row) for row in rows]


def rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    """Rank over Q of rational rows: their denominators cleared row by row,
    they go into one `Echelon` as a single batch, with no row kept reduced."""
    rows = integer_rows(rows)
    ncols = len(rows[0]) if rows else 0
    ech = Echelon(ncols, reduced_from=ncols)
    ech.insert_all(rows)
    return ech.rank


def kernel_standard(
    rows: Sequence[Sequence[Fraction | int]], ncols: int
) -> tuple[list[list[int]], list[int]]:
    """Kernel basis as primitive integer vectors, with the free columns that
    index it.

    Basis vector k is positive at free column k and 0 at the other free
    columns; divided by its entry at free column k it is the unique
    standard-form basis vector, so the coordinates of any kernel element can
    be read off at the free columns.  It is read off the fully reduced
    `Echelon` of the rows, whose row at pivot p is a positive multiple of
    the reduced echelon row at p: with L the lcm of row[p] over the rows
    with row[free] != 0, v[free] = L and v[p] = -row[free] * (L / row[p]),
    divided by the content.
    """
    ech = Echelon(ncols)
    ech.insert_all(integer_rows(rows))
    pivot_set = set(ech.pivots)
    basis, free_cols = [], []
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = [(row, p) for row, p in zip(ech.rows, ech.pivots) if row[free]]
        L = lcm(*(row[p] for row, p in hits))
        v = [0] * ncols
        v[free] = L
        for row, p in hits:
            v[p] = -row[free] * (L // row[p])
        g = gcd(L, *(v[p] for _, p in hits))
        if g != 1:
            v = [x // g for x in v]
        basis.append(v)
        free_cols.append(free)
    return basis, free_cols


class Echelon:
    """Incremental row space over Q, kept fraction-free.

    The rows are primitive integer vectors in echelon form, positive at
    their pivots; support[k] lists the nonzero columns of rows[k], the only
    ones visited when that row is used.  Between batches a row pivoting
    from the block boundary `reduced_from` on (by default every row) is
    zero at every other pivot: these rows are the reduced basis, which is
    unique, of the vectors of the space that vanish before the boundary.
    A row pivoting before it stays as it went in.

    Inside `insert_all` a new row goes in at its pivot, and the rows past
    the boundary are cleared at the new pivots there once, when the batch
    ends.  A batch goes in by leading column, rightmost first, which keeps
    the fill-in small; the order changes the cost, never the reduced rows.
    """

    __slots__ = ("ncols", "reduced_from", "rows", "pivots", "support", "_batch")

    def __init__(self, ncols: int, reduced_from: int = 0):
        self.ncols = ncols
        self.reduced_from = reduced_from
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.support: list[list[int]] = []
        # pivots past the boundary placed by the running `insert_all`
        self._batch: list[int] | None = None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Fraction | int]) -> list[int]:
        """A positive integer multiple of the residual of `vec` modulo the
        space; it is zero exactly when `vec` lies in the space.

        The rows are taken in pivot order, and each is zero left of its
        pivot, so this needs the rows in echelon form only."""
        v = _clear_row_denominators(vec)
        for row, p, supp in zip(self.rows, self.pivots, self.support):
            f = v[p]
            if f:
                g = gcd(f, row[p])
                a, b = row[p] // g, f // g
                if a != 1:
                    v = [a * x for x in v]
                for j in supp:
                    v[j] -= b * row[j]
        return v

    def insert(self, vec: Sequence[Fraction | int]) -> bool:
        """Reduce `vec` against the space; grow the space if independent."""
        v = self.reduce(vec)
        supp = list(compress(range(self.ncols), v))
        if not supp:
            return False
        _make_primitive(v, supp)
        lead = supp[0]
        at = bisect_left(self.pivots, lead)
        self.rows.insert(at, v)
        self.pivots.insert(at, lead)
        self.support.insert(at, supp)
        if lead >= self.reduced_from:
            if self._batch is None:
                self._back_substitute([lead])
            else:
                self._batch.append(lead)
        return True

    def insert_all(self, vecs: Iterable[Sequence[int]]) -> None:
        """Insert integer vectors, by leading column, rightmost first, and
        among equal leads smallest total bit length first.  The order fixes
        the cost of the elimination, not the span.  Right to left, each
        vector is reduced against the new rows right of its lead before it
        goes in, so the new rows come out reduced against each other, and
        the pass at the end of the batch mostly clears the older rows;
        small rows first keep the entries small.

        Each vector goes through `insert`, which places an independent
        residual at its pivot; the rows past the boundary are cleared at the
        new pivots there once, when the batch ends.  The vectors given are
        not changed."""
        ordered = sorted(vecs, key=_right_to_left)
        self._batch = new = []
        try:
            for vec in ordered:
                self.insert(vec)
        finally:
            self._batch = None
            if new:
                self._back_substitute(new)

    def _back_substitute(self, new: list[int]) -> None:
        """Restore the reduced form past the boundary after rows with pivots
        `new`, all past it, went in.

        Only the rows from the boundary up to the rightmost new row can be
        nonzero at a new pivot.  They are cleared bottom up, each at every
        new pivot right of its own, with the new rows there, which are clean
        by then; a row that is hit is rescanned and made primitive once."""
        rows, pivots, support = self.rows, self.pivots, self.support
        fresh = set(new)
        cut = bisect_left(pivots, self.reduced_from)
        clean: list[tuple[int, list[int], list[int]]] = []
        for k in range(bisect_left(pivots, max(new)), cut - 1, -1):
            row = rows[k]
            hits = []
            for q, r, s in clean:
                f = row[q]
                if f:
                    g = gcd(f, r[q])
                    hits.append((r[q] // g, f // g, r, s))
            if hits:
                # one common multiplier for all hits: the clean rows are zero
                # at each other's pivots, so subtracting one leaves the
                # entries of `row` at the other new pivots as they were
                L = lcm(*(a for a, _, _, _ in hits))
                if L != 1:
                    for j in support[k]:
                        row[j] *= L
                for a, b, r, s in hits:
                    b *= L // a
                    for j in s:
                        row[j] -= b * r[j]
                support[k] = list(compress(range(self.ncols), row))
                _make_primitive(row, support[k])
            if pivots[k] in fresh:
                clean.append((pivots[k], row, support[k]))


def _right_to_left(v: Sequence[int]) -> tuple[int, int]:
    """Sort key of `Echelon.insert_all`: leading column, rightmost first,
    then total bit length."""
    n = len(v)
    return -next(compress(range(n), v), n), sum(map(int.bit_length, v))


def _make_primitive(row: list[int], supp: Sequence[int]) -> None:
    """Divide `row`, nonzero exactly at `supp`, by its content; make its
    first nonzero entry positive."""
    g = 0
    for j in supp:
        g = gcd(g, row[j])
        if g == 1:
            break
    if row[supp[0]] < 0:
        g = -g
    if g != 1:
        for j in supp:
            row[j] //= g
