"""Exact rational linear algebra: one elimination kernel and its oracles.

Every dimension count in this package comes down to a row space over Q.
Scalars are `fractions.Fraction` (exposed as `Rational`); rows are scaled
to integers by clearing denominators row-wise.  `Echelon` is the one
kernel: an incremental, fraction-free reduced echelon form that the Hilbert
tables grow degree by degree and that `kernel_standard` reads kernel bases
off.  Bareiss elimination (`rank_int`, `bareiss_pivots`) ranks a whole
integer matrix in one pass; it serves the one-shot checks (a single-degree
`submodule_slice`, the generator-degree pivots, general position) and is
the oracle the tests hold the sweeps against.  `rref` and
`ExactMatrix.rank_naive` are rational-arithmetic oracles for the tests.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction


def _clear_row_denominators(row: Sequence[Fraction | int]) -> list[int]:
    lcm = 1
    for x in row:
        d = x.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        return [int(x) for x in row]
    return [int(x * lcm) for x in row]


def integer_rows(rows: Iterable[Sequence[Fraction | int]]) -> list[list[int]]:
    """Rescale each row by the lcm of its denominators (rank-preserving)."""
    return [_clear_row_denominators(row) for row in rows]


def _bareiss(rows: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix by fraction-free Bareiss elimination.

    Pivots are chosen of smallest nonzero magnitude in the current column;
    all divisions are exact.  The input is consumed.
    """
    if not rows or not rows[0]:
        return []
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv, best = -1, 0
        for i in range(r, nrows):
            a = rows[i][c]
            if a and (piv < 0 or abs(a) < best):
                piv, best = i, abs(a)
        if piv < 0:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pc = prow[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            ric = row[c]
            if ric:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * pc - ric * prow[j]) // prev
                row[c] = 0
            else:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * pc) // prev
        prev = pc
        pivots.append(c)
    return pivots


def rank_int(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (Bareiss elimination).  The input is consumed."""
    return len(_bareiss(rows))


def bareiss_pivots(rows: list[list[int]]) -> tuple[int, list[int]]:
    """Rank and pivot columns of an integer matrix (Bareiss elimination).

    The non-pivot columns index a coordinate complement of the row space.
    The input is consumed.
    """
    pivots = _bareiss(rows)
    return len(pivots), pivots


class ExactMatrix:
    """Dense matrix over Q, immutable after construction."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        if any(len(row) != self.ncols for row in self.rows):
            raise ValueError("ragged rows")

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self.rows))) if self.rows else ExactMatrix([])

    def rank(self) -> int:
        return rank_int(integer_rows(self.rows))

    def kernel_dimension(self) -> int:
        return self.ncols - self.rank()

    def rank_naive(self) -> int:
        """Plain rational Gaussian elimination; oracle for the Bareiss path."""
        rows = [list(row) for row in self.rows]
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
            if r == len(rows):
                break
        return r


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over `Fraction`; returns (nonzero rows, pivot
    columns).

    Test oracle only: no library code calls it.  The tests compare
    `kernel_standard`, which runs on `Echelon`, against the basis read off
    this form.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    ncols = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                row = work[i]
                prow = work[r]
                work[i] = [a - f * b for a, b in zip(row, prow)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def kernel_standard(
    rows: Sequence[Sequence[Fraction | int]], ncols: int
) -> tuple[list[list[Fraction]], list[int]]:
    """Kernel basis in standard form, with the free columns that index it.

    Basis vector k has value 1 at free column k and 0 at the other free
    columns, so the coordinates of any kernel element with respect to this
    basis can be read off at the free columns.  The basis is unique; it is
    read off the `Echelon` of the rows, whose row at pivot p is a positive
    multiple of the reduced echelon row at p.
    """
    ech = Echelon(ncols)
    for row in rows:
        ech.insert(row)
    pivot_set = set(ech.pivots)
    basis = []
    free_cols = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(ech.rows, ech.pivots):
            v[p] = Fraction(-row[free], row[p])
        basis.append(v)
        free_cols.append(free)
    return basis, free_cols


class Echelon:
    """Incremental row space over Q, kept fraction-free.

    Rows are primitive integer vectors in reduced echelon form: each has a
    positive entry at its own pivot and zeros at the pivots of the others.
    support[k] lists the nonzero columns of rows[k], the only ones visited
    when that row is used.
    """

    __slots__ = ("ncols", "rows", "pivots", "support")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.support: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Fraction | int]) -> list[int]:
        """A positive integer multiple of the residual of `vec` modulo the
        space; it is zero exactly when `vec` lies in the space."""
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
        supp = [j for j in range(self.ncols) if v[j]]
        if not supp:
            return False
        _make_primitive(v, supp)
        lead = supp[0]
        c = v[lead]
        for k, row in enumerate(self.rows):
            f = row[lead]
            if f:
                g = gcd(f, c)
                a, b = c // g, f // g
                if a != 1:
                    for j in self.support[k]:
                        row[j] *= a
                for j in supp:
                    row[j] -= b * v[j]
                self.support[k] = [j for j in range(self.ncols) if row[j]]
                _make_primitive(row, self.support[k])
        at = bisect_left(self.pivots, lead)
        self.rows.insert(at, v)
        self.pivots.insert(at, lead)
        self.support.insert(at, supp)
        return True


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
