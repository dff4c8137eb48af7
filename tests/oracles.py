"""Reference computations the tests hold the library against.

Each ranks a matrix by an elimination that shares no code with the
library's one kernel, `kahlerdiff.exactla.Echelon`: fraction-free Bareiss
elimination, which ranks a whole integer matrix in one pass, and the
rational reduced row echelon form `rref`.  `jet_matrix_hf` ranks the
literal jet matrix of a scheme degree by degree, by Bareiss, with no
sweep.  `dense_submodule_rank` builds the literal dense matrix of one
degree of the form-module presentation and ranks it by Bareiss.  They
are meant for small inputs only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Sequence

from kahlerdiff.kaehler import WedgeBasis, wedge_with_differential
from kahlerdiff.polyring import degree_slice
from kahlerdiff.schemes import (
    FatPointScheme,
    HFTable,
    JetSystem,
    ideal_slice,
    initial_degree,
    minimal_generators,
    regularity_index,
)


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


def bareiss_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    """Rank over Q of rational rows by Bareiss elimination, each row first
    scaled by the lcm of its denominators.  The input is not changed."""
    scaled = []
    for row in rows:
        L = lcm(*(Fraction(x).denominator for x in row))
        scaled.append([int(x * L) for x in row])
    return len(_bareiss(scaled))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over `Fraction`; returns (nonzero rows, pivot
    columns).  The tests compare `kernel_standard` and `ideal_slice` against
    the bases read off this form."""
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


def jet_matrix_hf(scheme: FatPointScheme) -> HFTable:
    """HF_W as a table, from the literal jet matrix: HF_W(d) is the Bareiss
    rank of the values of every jet functional of W on the monomials of
    degree d.  HF_W rises strictly until it reaches deg W, at r_W, and is
    constant from there on, so the degrees stop there."""
    js = JetSystem(scheme)
    values: list[int] = []
    while not values or values[-1] < js.dim:
        columns = [js.monomial_column(beta) for beta in degree_slice(scheme.n, len(values))]
        values.append(bareiss_rank(zip(*columns)))
    return HFTable.from_values(values)


def dense_submodule_rank(
    scheme: FatPointScheme, m: int, d: int, relative: bool, pool: str
) -> int:
    """Literal-matrix rank of (I*Omega^m + dI*Omega^{m-1})_d, d >= m: the
    reference for `submodule_slice`.  The pool "slices" takes whole ideal
    slices as generators, any other the minimal generators."""
    n = scheme.n
    basis = WedgeBasis(n, m, relative)
    cdeg = d - m
    ncoef = comb(n + cdeg, n)
    rows: list[list[Fraction]] = []
    members = ideal_slice(scheme, cdeg)
    for k in range(basis.size):
        for v in members:
            row = [Fraction(0)] * (basis.size * ncoef)
            row[k * ncoef : (k + 1) * ncoef] = v.coeff_vector()
            rows.append(row)
    if pool == "slices":  # a redundant generating set: whole slices, degrees alpha..r+1
        gens = [g for delta in range(initial_degree(scheme), regularity_index(scheme) + 2)
                for g in ideal_slice(scheme, delta)]
    else:
        gens = [g for _, batch in sorted(minimal_generators(scheme).items()) for g in batch]
    for g in gens:
        delta = d - m - g.degree + 1
        if delta < 0:
            continue
        for J in combinations(basis.indices, m - 1):
            form = wedge_with_differential(g, J, relative)
            if form.is_zero():
                continue
            for alpha in degree_slice(n, delta):
                rows.append(form.times_monomial(alpha).coeff_vector())
    return bareiss_rank(rows)
