import json
import random
from fractions import Fraction
from math import comb

import pytest

from kahlerdiff.exactla import rank_int
from kahlerdiff.polyring import degree_slice, parse_poly
from kahlerdiff.schemes import (
    CoordinateAssumptionError,
    FatPointScheme,
    HFTable,
    ProjPoint,
    apply_coordinate_change,
    generator_degrees,
    hf_table,
    hilbert_function,
    ideal_slice,
    initial_degree,
    jet_system,
    minimal_generators,
    regularity_index,
    scheme_from_json_dict,
    scheme_to_json_dict,
)

from conftest import random_scheme


def simple(n, *coords_list, mults=None):
    pts = [ProjPoint(c) for c in coords_list]
    return FatPointScheme(n, pts, mults or [1] * len(pts))


def test_projpoint_normalization():
    p = ProjPoint((2, 4, 6))
    assert p.coords == (1, 2, 3)
    q = ProjPoint((0, 3, 6))
    assert q.coords == (0, 1, 2)
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))


def test_scheme_rejects_points_on_x0():
    with pytest.raises(CoordinateAssumptionError):
        simple(2, (0, 1, 2))


def test_scheme_rejects_duplicates_and_bad_mults():
    with pytest.raises(ValueError):
        simple(2, (1, 1, 1), (2, 2, 2))
    with pytest.raises(ValueError):
        simple(2, (1, 0, 0), mults=[0])


def test_coordinate_change_utility():
    s = simple(2, (1, 0, 0), (1, 1, 1))
    moved = apply_coordinate_change(s, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert moved.points[0].coords == (1, 1, 0)
    with pytest.raises(ValueError):
        apply_coordinate_change(s, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    # moving a point onto X_0 = 0 is an explicit error
    with pytest.raises(CoordinateAssumptionError):
        apply_coordinate_change(s, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_ideal_slice_coordinate_point_lines():
    s = simple(2, (1, 0, 0))
    basis = ideal_slice(s, 1)
    assert len(basis) == 2
    spanned = {tuple(sorted(p.terms)) for p in basis}
    for p in basis:
        assert p.evaluate([1, 0, 0]) == 0
    assert spanned == {((0, 1, 0),), ((0, 0, 1),)}


def test_ideal_slice_double_point():
    # oracle: hand enumeration -- order-1 jets at (1,0,0) kill X0^2, X0X1, X0X2
    s = simple(2, (1, 0, 0), mults=[2])
    basis = ideal_slice(s, 2)
    assert len(basis) == 3
    allowed = {(0, 2, 0), (0, 1, 1), (0, 0, 2)}
    for p in basis:
        assert set(p.terms) <= allowed


def test_ideal_slice_conic8_degree2(conic8_points):
    s = FatPointScheme(2, conic8_points, [1] * 8)
    basis = ideal_slice(s, 2)
    assert len(basis) == 1
    conic = parse_poly("3*X0^2 - 4*X0*X1 + X1^2 - 4*X0*X2 + X2^2", 3)
    # the slice is spanned by a scalar multiple of the defining conic
    [b] = basis
    ratio = None
    for exps, coeff in conic.terms.items():
        assert exps in b.terms
        r = b.terms[exps] / coeff
        ratio = ratio or r
        assert r == ratio


def test_hf_sequences():
    s8 = simple(2, *[(1, 1, 0), (1, 3, 0), (1, 0, 1), (1, 4, 1),
                     (1, 0, 3), (1, 1, 4), (1, 4, 3), (1, 3, 4)])
    two = FatPointScheme(2, s8.points, [2] * 8)
    assert hf_table(two).values == (1, 3, 6, 10, 14, 18, 21, 23, 24)
    assert hilbert_function(two, 100) == 24
    assert hilbert_function(two, -1) == 0
    nine = simple(2, *[(1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4),
                       (1, 1, 5), (1, 0, 1), (1, 2, 1), (1, 2, 2)])
    assert hf_table(nine).values == (1, 3, 6, 7, 8, 9)


def test_hf_degree_zero_is_one(rng):
    for _ in range(5):
        assert hilbert_function(random_scheme(rng), 0) == 1


def test_regularity_examples(conic8_points):
    six = FatPointScheme(2, conic8_points[:4] + conic8_points[6:], [1] * 6)
    # six distinct points on the nonsingular conic
    assert regularity_index(six) == 3
    assert regularity_index(simple(2, (1, 2, 3))) == 0
    full = FatPointScheme(2, conic8_points, [1] * 8)
    assert regularity_index(full) == 4
    assert hf_table(full).values == (1, 3, 5, 7, 8)


def test_degree_matches_table():
    s = simple(3, (1, 0, 0, 0), (1, 1, 1, 1), mults=[2, 3])
    assert s.degree() == comb(2 + 2, 3) + comb(3 + 2, 3)
    assert hf_table(s).hp == s.degree()


def test_generator_degrees_examples(conic8_points):
    full = FatPointScheme(2, conic8_points, [1] * 8)
    assert generator_degrees(full, regularity_index(full) + 1) == {2: 1, 4: 1}
    single = simple(2, (1, 0, 0))
    assert generator_degrees(single, 1) == {1: 2}
    double = simple(2, (1, 0, 0), mults=[2])
    assert generator_degrees(double, 2) == {2: 3}
    with pytest.raises(ValueError):
        generator_degrees(double, 1)


def test_minimal_generators_generate(rng):
    # products of the generators must rebuild every ideal slice dimension
    for _ in range(4):
        s = random_scheme(rng, max_n=2, max_s=3, max_mult=2)
        gens = [g for gs in minimal_generators(s).values() for g in gs]
        r = regularity_index(s)
        for d in range(initial_degree(s), r + 2):
            from kahlerdiff.exactla import Echelon

            ech = Echelon(comb(s.n + d, s.n))
            from kahlerdiff.polyring import degree_slice

            for g in gens:
                if g.degree > d:
                    continue
                for alpha in degree_slice(s.n, d - g.degree):
                    ech.insert(g.times_monomial(alpha).coeff_vector())
            assert ech.rank == len(ideal_slice(s, d))


def test_hf_nondecreasing_and_reaches_degree(rng):
    for _ in range(8):
        s = random_scheme(rng)
        t = hf_table(s)
        assert all(a <= b for a, b in zip(t.values, t.values[1:]))
        assert t.hp == s.degree()
        alpha = initial_degree(s)
        for d in range(alpha):
            assert t.value(d) == comb(s.n + d, s.n)
            assert ideal_slice(s, d) == ()


def test_hf_table_matches_literal_jet_matrix():
    """The sweep against the rank of the whole scaled jet matrix, degree by
    degree, on criterion-9 schemes moved to non-integral coordinates."""
    rng = random.Random(55012)
    for _ in range(12):
        base = random_scheme(rng)
        n = base.n
        shift = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
        for i in range(1, n + 1):
            shift[i][0] = Fraction(1, i + 2)
        s = apply_coordinate_change(base, shift)
        js = jet_system(s)
        assert not js.all_integral
        table = hf_table(s)
        for d in range(table.stable_from + 2):
            cols = [js.monomial_column(beta, d) for beta in degree_slice(n, d)]
            assert table.value(d) == rank_int([list(r) for r in zip(*cols)])


def test_inclusion_reversal(rng):
    for _ in range(5):
        s = random_scheme(rng, max_mult=2)
        bigger = s.fattening()
        for d in range(regularity_index(bigger) + 2):
            assert hilbert_function(s, d) <= hilbert_function(bigger, d)


def test_slice_members_have_vanishing_jets(rng):
    for _ in range(5):
        s = random_scheme(rng, max_s=3)
        js = jet_system(s)
        d = initial_degree(s) + 1
        for p in ideal_slice(s, d):
            assert all(v == 0 for v in js.poly_jets(p))


def test_conic_regularity_matches_formula(conic8_points):
    from kahlerdiff.formulas import conic_regularity_index

    rng = random.Random(7)
    for _ in range(5):
        mults = [rng.randint(1, 3) for _ in range(8)]
        w = FatPointScheme(2, conic8_points, mults)
        assert regularity_index(w) == conic_regularity_index(mults)


def test_hftable_invariants():
    t = HFTable.from_values([1, 3, 5, 5, 5])
    assert t.stable_from == 2 and t.hp == 5
    assert t.value(-3) == 0 and t.value(100) == 5
    with pytest.raises(ValueError):
        HFTable((1, 2, 3), 1, 3)
    with pytest.raises(ValueError):
        HFTable((1, 3, 3), 2, 3)


def test_json_round_trip():
    doc = {
        "n": 2,
        "points": [
            {"coords": ["1", "1", "0"], "mult": 2},
            {"coords": ["1", "3/2", "-4"], "mult": 1},
        ],
    }
    s = scheme_from_json_dict(doc)
    assert s.mults == (2, 1)
    assert s.points[1].coords == (1, Fraction(3, 2), -4)
    assert scheme_from_json_dict(scheme_to_json_dict(s)) == s
    with pytest.raises(ValueError):
        scheme_from_json_dict({"n": 2})
    with pytest.raises(CoordinateAssumptionError):
        scheme_from_json_dict(
            {"n": 2, "points": [{"coords": ["0", "1", "0"], "mult": 1}]}
        )
