from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kahlerdiff.polyring import (
    HomogPoly,
    degree_slice,
    format_poly,
    monomials_of_degree,
    parse_poly,
)


def V(nvars, i):
    return HomogPoly.variable(nvars, i)


def test_multiply_variables():
    x0, x1 = V(2, 0), V(2, 1)
    assert (x0 * x1).terms == {(1, 1): Fraction(1)}


def test_multiply_difference_of_squares():
    x0, x1 = V(2, 0), V(2, 1)
    prod = (x1 - x0) * (x1 + x0)
    assert prod.terms == {(0, 2): Fraction(1), (2, 0): Fraction(-1)}


def test_multiply_by_zero_absorbs():
    f = parse_poly("X0^2 + X1^2", 2)
    z = HomogPoly.zero(2, 3)
    assert (f * z).is_zero()


def test_partial_examples():
    f = parse_poly("X0^2*X1", 2)
    assert f.partial(0).terms == {(1, 1): Fraction(2)}
    assert parse_poly("X1^3", 2).partial(0).is_zero()
    with pytest.raises(IndexError):
        f.partial(5)


def euler_sum(f):
    """Sum of X_i * dF/dX_i, by `HomogPoly` arithmetic."""
    total = HomogPoly.zero(f.nvars, f.degree)
    for i in range(f.nvars):
        total = total + V(f.nvars, i) * f.partial(i)
    return total


def test_euler_relation_on_product():
    f = parse_poly("X0*X1", 2)
    assert euler_sum(f) == f.scale(2)


@st.composite
def homog_polys(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    degree = draw(st.integers(min_value=1, max_value=5))
    monos = list(monomials_of_degree(nvars, degree))
    nums = draw(
        st.lists(
            st.integers(min_value=-9, max_value=9),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    dens = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    coeffs = [Fraction(a, b) for a, b in zip(nums, dens)]
    return HomogPoly(nvars, degree, dict(zip(monos, coeffs)))


@given(homog_polys())
@settings(deadline=None)
def test_euler_relation(f):
    assert euler_sum(f) == f.scale(f.degree)


@given(homog_polys())
@settings(deadline=None)
def test_mixed_partials_commute(f):
    for i in range(f.nvars):
        for j in range(i + 1, f.nvars):
            assert f.partial(i).partial(j) == f.partial(j).partial(i)


@given(homog_polys())
@settings(deadline=None)
def test_parse_print_round_trip(f):
    if f.is_zero():
        assert format_poly(f) == "0"
    else:
        assert parse_poly(format_poly(f), f.nvars) == f


def test_evaluate_examples():
    assert parse_poly("X1 - X0", 3).evaluate([1, 1, 0]) == 0
    assert parse_poly("X0^2", 2).evaluate([1, 3]) == 1
    conic = parse_poly("3*X0^2 - 4*X0*X1 + X1^2 - 4*X0*X2 + X2^2", 3)
    assert conic.evaluate([1, 1, 0]) == 0
    with pytest.raises(ValueError):
        conic.evaluate([1, 1])


def test_degree_slice_counts():
    for n in range(0, 6):
        for d in range(0, 13):
            monos = degree_slice(n, d)
            assert len(monos) == comb(n + d, n)
            assert len(set(monos)) == len(monos)
            assert list(monos) == sorted(monos, key=lambda e: monos.index(e))


def test_degree_slice_order_is_deterministic():
    first = degree_slice(2, 2)
    assert first[0] == (2, 0, 0)
    assert first[-1] == (0, 0, 2)


def test_parser_rational_coefficients_and_spacing():
    f = parse_poly("3/2*X0^2 - X0*X1", 2)
    assert f.terms[(2, 0)] == Fraction(3, 2)
    assert f.terms[(1, 1)] == -1
    assert parse_poly("X0 + X1", 2) == parse_poly("X1+X0", 2)


def test_parser_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_poly("X0^2 + X1", 2)


def test_format_examples():
    f = parse_poly("3*X0^2 - 4*X0*X1 + X1^2", 2)
    assert format_poly(f) == "3*X0^2 - 4*X0*X1 + X1^2"
    assert format_poly(HomogPoly.zero(2, 4)) == "0"
