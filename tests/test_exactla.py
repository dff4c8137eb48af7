import random
from bisect import bisect_left
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerdiff.exactla import Echelon, integer_rows, kernel_standard, rank

from oracles import bareiss_rank, rref


def test_rank_empty_and_identity():
    assert rank([]) == 0
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3


def test_rank_proportional_rows():
    assert rank([[1, 2, 3], [2, 4, 6]]) == 1


def test_kernel_dimension_examples():
    assert 3 - rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 0
    assert 4 - rank([[0, 0, 0, 0]]) == 4
    assert 2 - rank([[1, 1], [1, 1]]) == 1


def test_rank_rational_entries():
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]]) == 2


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def int_matrices(draw, max_dim=8):
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def rational_matrices(draw, max_dim=8):
    """Rational matrices of up to `max_dim` rows and columns, the empty
    matrix and zero rows included."""
    entries = st.one_of(small_entries, st.builds(Fraction, small_entries, st.integers(1, 7)))
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    mat = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        mat.insert(draw(st.integers(min_value=0, max_value=len(mat))), [0] * ncols)
    return mat


@given(rational_matrices())
@settings(deadline=None)
def test_rank_agrees_with_bareiss_and_rref(mat):
    expected = bareiss_rank(mat)
    assert rank(mat) == expected
    assert len(rref(mat)[1]) == expected


@given(rational_matrices())
@settings(deadline=None)
def test_rank_of_transpose(mat):
    assert rank(list(zip(*mat))) == bareiss_rank(mat)


@given(rational_matrices(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_rank_invariant_under_scaling_and_permutation(mat, rnd):
    scaled = []
    for row in mat:
        factor = Fraction(rnd.choice([1, 2, -1, 3, -5]), rnd.choice([1, 2, 7]))
        scaled.append([x * factor for x in row])
    rnd.shuffle(scaled)
    assert rank(scaled) == bareiss_rank(mat)


@given(int_matrices(max_dim=6))
@settings(deadline=None)
def test_kernel_vectors_annihilate(mat):
    ncols = len(mat[0])
    basis = kernel_standard([[Fraction(x) for x in row] for row in mat], ncols)[0]
    assert len(basis) == ncols - bareiss_rank(mat)
    for v in basis:
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_kernel_standard_form():
    basis, free = kernel_standard([[Fraction(1), Fraction(2), Fraction(3)]], 3)
    assert free == [1, 2]
    for k, f in enumerate(free):
        assert basis[k][f] == 1
        for other in free:
            if other != f:
                assert basis[k][other] == 0


def _rref_kernel(rows, ncols):
    """Standard-form kernel basis read off the Fraction RREF (the oracle)."""
    reduced, pivots = rref(rows)
    basis, free_cols = [], []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [Fraction(int(free == j)) for j in range(ncols)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        basis.append(v)
        free_cols.append(free)
    return basis, free_cols


def test_kernel_standard_matches_rref_oracle():
    rng = random.Random(4242)
    entries = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)]
    cases = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[Fraction(0)] * 2] * 2, 2)]
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
        if rng.random() < 0.3:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        cases.append((rows, ncols))
    for rows, ncols in cases:
        fracs = [[Fraction(x) for x in row] for row in rows]
        oracle, oracle_free = _rref_kernel(fracs, ncols)
        for given in (fracs, rows):
            basis, free_cols = kernel_standard(given, ncols)
            assert free_cols == oracle_free
            assert len(basis) == len(oracle)
            for v, f, w in zip(basis, free_cols, oracle):
                # primitive, positive at its free column, and the rref basis
                # vector once divided by that entry
                assert all(type(x) is int for x in v)
                assert gcd(*v) == 1
                assert v[f] > 0
                assert [Fraction(x, v[f]) for x in v] == w


def test_integer_rows_clears_denominators():
    rows = integer_rows([[Fraction(1, 2), Fraction(2, 3)]])
    assert rows == [[3, 4]]


def test_echelon_incremental_rank():
    ech = Echelon(3)
    assert ech.insert([Fraction(1), Fraction(1), Fraction(0)])
    assert not ech.insert([Fraction(2), Fraction(2), Fraction(0)])
    assert ech.insert([Fraction(0), Fraction(1), Fraction(1)])
    assert ech.rank == 2
    residual = ech.reduce([Fraction(1), Fraction(2), Fraction(1)])
    assert all(x == 0 for x in residual)


@given(int_matrices(max_dim=5))
@settings(deadline=None)
def test_echelon_rank_matches_matrix_rank(mat):
    ech = Echelon(len(mat[0]))
    for row in mat:
        ech.insert([Fraction(x) for x in row])
    assert ech.rank == bareiss_rank(mat)


@st.composite
def batched_matrices(draw, max_dim=7):
    """An integer matrix, its rows cut into consecutive batches, each batch
    in a random order, and a block boundary."""
    entries = st.integers(min_value=-6, max_value=6)
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    mat = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=nrows), max_size=3)))
    batches = [draw(st.permutations(mat[a:b])) for a, b in zip([0, *cuts], [*cuts, nrows])]
    return mat, batches, draw(st.integers(min_value=0, max_value=ncols))


def _assert_form(ech):
    """Primitive rows, positive at their pivots, in echelon form, each with
    its exact support; the rows pivoting from the block boundary on are
    zero at every other pivot."""
    assert ech.pivots == sorted(set(ech.pivots))
    for row, p, supp in zip(ech.rows, ech.pivots, ech.support):
        assert supp == [j for j, x in enumerate(row) if x]
        assert supp[0] == p
        assert row[p] > 0
        assert gcd(*row) == 1
        if p >= ech.reduced_from:
            assert all(row[q] == 0 for q in ech.pivots if q != p)


def _span(vectors, ncols):
    ech = Echelon(ncols)
    for v in vectors:
        ech.insert(v)
    return ech.rows


@given(batched_matrices())
@settings(deadline=None, max_examples=300)
def test_insert_all_matches_sequential_insert(case):
    """Batches against one-at-a-time `insert`, with the block boundary at 0
    (fully reduced), at a drawn column and at `ncols` (no reduced block).
    The rows from the boundary on are the reduced basis of the vectors of
    the span that vanish before it, which is unique, so they and the pivots
    match; the rows before it depend on the order and are never touched
    once their batch has gone in."""
    mat, batches, boundary = case
    ncols = len(mat[0])
    for reduced_from in (0, boundary, ncols):
        one = Echelon(ncols, reduced_from)
        for row in mat:
            one.insert(row)
        batched = Echelon(ncols, reduced_from)
        kept: dict[int, list[int]] = {}
        for batch in batches:
            given = [list(row) for row in batch]
            batched.insert_all(given)
            assert given == batch
            _assert_form(batched)
            for p, row in kept.items():
                assert batched.rows[batched.pivots.index(p)] == row
            kept = {
                p: list(row) for p, row in zip(batched.pivots, batched.rows)
                if p < reduced_from
            }
        _assert_form(one)
        assert batched.pivots == one.pivots
        k = bisect_left(one.pivots, reduced_from)
        assert batched.rows[k:] == one.rows[k:]  # all rows at boundary 0
        assert _span(batched.rows, ncols) == _span(mat, ncols)
