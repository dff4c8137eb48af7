import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerdiff.exactla import (
    Echelon,
    ExactMatrix,
    bareiss_pivots,
    integer_rows,
    kernel_standard,
    rank_int,
    rref,
)


def test_rank_empty_and_identity():
    assert ExactMatrix([]).rank() == 0
    assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3


def test_rank_proportional_rows():
    assert ExactMatrix([[1, 2, 3], [2, 4, 6]]).rank() == 1


def test_kernel_dimension_examples():
    assert ExactMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).kernel_dimension() == 0
    assert ExactMatrix([[0, 0, 0, 0]]).kernel_dimension() == 4
    assert ExactMatrix([[1, 1], [1, 1]]).kernel_dimension() == 1


def test_rank_rational_entries():
    singular = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]])
    assert singular.rank() == 1
    m = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 2]])
    assert m.rank() == 2


small_entries = st.integers(min_value=-3, max_value=3)


@st.composite
def int_matrices(draw, max_dim=8):
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]


@given(int_matrices())
@settings(deadline=None)
def test_bareiss_agrees_with_naive_gaussian(mat):
    m = ExactMatrix(mat)
    assert m.rank() == m.rank_naive()


@given(int_matrices())
@settings(deadline=None)
def test_rank_of_transpose(mat):
    m = ExactMatrix(mat)
    assert m.rank() == m.transpose().rank()


@given(int_matrices(), st.randoms(use_true_random=False))
@settings(deadline=None)
def test_rank_invariant_under_scaling_and_permutation(mat, rnd):
    m = ExactMatrix(mat)
    scaled = []
    for row in mat:
        factor = Fraction(rnd.choice([1, 2, -1, 3, -5]), rnd.choice([1, 2, 7]))
        scaled.append([x * factor for x in row])
    rnd.shuffle(scaled)
    assert ExactMatrix(scaled).rank() == m.rank()


@given(int_matrices(max_dim=6))
@settings(deadline=None)
def test_kernel_vectors_annihilate(mat):
    ncols = len(mat[0])
    basis = kernel_standard([[Fraction(x) for x in row] for row in mat], ncols)[0]
    m = ExactMatrix(mat)
    assert len(basis) == m.kernel_dimension()
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
        assert kernel_standard(fracs, ncols) == _rref_kernel(fracs, ncols)
        assert kernel_standard(rows, ncols) == _rref_kernel(fracs, ncols)


def test_bareiss_pivots_complement():
    rows = [[1, 2, 0, 1], [2, 4, 0, 3]]
    rank, pivots = bareiss_pivots([list(r) for r in rows])
    assert rank == 2
    assert pivots == [0, 3]


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
    assert ech.rank == ExactMatrix(mat).rank()
