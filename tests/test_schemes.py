import json
import random
from fractions import Fraction
from math import comb

import pytest

from kahlerdiff.polyring import HomogPoly, degree_slice, parse_poly
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
    JetSystem,
    initial_degree,
    minimal_generators,
    regularity_index,
    scheme_from_json_dict,
    scheme_to_json_dict,
)

from conftest import jets_by_partials, off_integers, random_scheme
from oracles import jet_matrix_hf, rref


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


def test_with_mults_takes_one_nonnegative_multiplicity_a_point():
    """A wrong count or a negative multiplicity is refused, not coerced;
    a multiplicity of 0 drops its point."""
    s = simple(2, (1, 0, 0), (1, 1, 0), (1, 0, 1))
    assert s.with_mults([0, 2, 1]) == simple(2, (1, 1, 0), (1, 0, 1), mults=[2, 1])
    for bad in ([3], [1, 1, 1, 1], [2, -1, 1]):
        with pytest.raises(ValueError, match="^need 3 nonnegative multiplicities"):
            s.with_mults(bad)
    with pytest.raises(ValueError, match="^all multiplicities vanished$"):
        s.with_mults([0, 0, 0])


def test_inexact_input_is_refused_not_coerced():
    """A multiplicity or dimension that is not an int (a float, a string, a
    bool) and a float or bool coordinate raise ValueError in the Python API,
    as in the JSON reader; int, Fraction and strings such as "3/2" are
    coordinates."""
    p = ProjPoint([1, "3/2", Fraction(1, 3)])
    assert p.coords == (1, Fraction(3, 2), Fraction(1, 3))
    for bad in ([1, 0.1, 0], [1, True, 0], [1.0, 2, 0], [False, 1, 1]):
        with pytest.raises(ValueError, match="^coordinates must be exact"):
            ProjPoint(bad)
    for bad in (2.5, "3", True, 2.0):
        with pytest.raises(ValueError, match="^a multiplicity must be an integer"):
            FatPointScheme(2, [p], [bad])
        with pytest.raises(ValueError, match="^the ambient dimension must be an integer"):
            FatPointScheme(bad, [p], [1])
    s = simple(2, (1, 0, 0), (1, 1, 0))
    for bad in ([1.7, 1], [0.0, 1], [True, 2]):
        with pytest.raises(ValueError, match="^a multiplicity must be an integer"):
            s.with_mults(bad)
    assert FatPointScheme(2, [p], [3]).mults == (3,)


def test_coordinate_change_utility():
    s = simple(2, (1, 0, 0), (1, 1, 1))
    moved = apply_coordinate_change(s, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    assert moved.points[0].coords == (1, 1, 0)
    with pytest.raises(ValueError):
        apply_coordinate_change(s, [[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    # moving a point onto X_0 = 0 is an explicit error
    with pytest.raises(CoordinateAssumptionError):
        apply_coordinate_change(s, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


def test_coordinate_change_refuses_a_singular_rational_matrix():
    """A rational (n+1)x(n+1) matrix of rank n is refused as singular; an
    invertible non-integral one is taken, and its image scheme, off the
    integers, has the same Hilbert function."""
    for n in (1, 2, 3):
        pts = [(1, *([0] * n)), (1, *range(1, n + 1)), (1, *range(-1, -n - 1, -1))]
        s = simple(n, *pts, mults=[2, 1, 3])
        # lower triangular with X_0 fixed: invertible, and no point lands
        # on X_0 = 0
        lower = [[Fraction(int(i == j)) if i <= j else Fraction(i - j, i + j + 1)
                  for j in range(n + 1)] for i in range(n + 1)]
        for i in range(1, n + 1):
            lower[i][i] = Fraction(i + 2, i + 1)
        singular = lower[:n] + [[Fraction(1, 2) * a + Fraction(-2, 3) * b
                                 for a, b in zip(lower[0], lower[n - 1])]]
        with pytest.raises(ValueError, match="singular"):
            apply_coordinate_change(s, singular)
        moved = apply_coordinate_change(s, lower)
        assert any(c.denominator != 1 for p in moved.points for c in p.coords)
        assert hf_table(moved) == hf_table(s)


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
    """The sweep against the rank of the whole jet matrix, degree by degree,
    on criterion-9 schemes moved to non-integral coordinates."""
    rng = random.Random(55012)
    for _ in range(12):
        s = off_integers(random_scheme(rng))
        assert any(c.denominator != 1 for p in s.points for c in p.coords)
        assert hf_table(s) == jet_matrix_hf(s), s


def test_jet_evaluator_against_independent_routes():
    """One evaluator, three routes: shifting the column of X^beta by X_i
    gives the column of X_i X^beta times den_i, the common denominator of
    the i-th coordinates (1 for X_0), `poly_jets` agrees with the partial
    derivatives of `HomogPoly` evaluated at the points, and on integral
    schemes every jet of an integer polynomial is an int.  The shift keeps
    integer vectors integral on every scheme."""
    rng = random.Random(31415)
    for _ in range(8):
        base = random_scheme(rng, max_s=3)
        for s, integral in ((base, True), (off_integers(base), False)):
            js = JetSystem(s)
            n = s.n
            for d in range(4):
                f = HomogPoly.from_coeffs(
                    n, d, [rng.randint(-5, 5) for _ in degree_slice(n, d)]
                )
                [jets] = js.poly_jets([f])
                assert jets == jets_by_partials(f, s, js.index)
                for beta in degree_slice(n, d):
                    col = js.monomial_column(beta)
                    shifts = [js.shift_by_variable(col, i) for i in range(n + 1)]
                    for i, shifted in enumerate(shifts):
                        up = beta[:i] + (beta[i] + 1,) + beta[i + 1 :]
                        den = js.denominators[i - 1] if i else 1
                        assert shifted == [den * v for v in js.monomial_column(up)]
                    for i in range(1, n + 1):
                        ints = [rng.randint(-9, 9) for _ in col]
                        assert all(type(v) is int for v in js.shift_by_variable(ints, i))
                    if integral:
                        entries = col + [v for vec in shifts for v in vec]
                        assert all(type(v) is int for v in entries)
                if integral:
                    assert all(type(v) is int for v in jets)


def _direct_jet_lists(s, index):
    """pos, the diagonals and the lowerings of the jet system of `s` on the
    functionals `index`, built directly from them: the reference for the
    block-built systems."""
    from math import lcm

    coords = [p.affine() for p in s.points]
    dens = [lcm(*(a[t].denominator for a in coords)) for t in range(s.n)]
    pos = {key: k for k, key in enumerate(index)}
    diagonal = [[int(den * coords[j][t]) for j, _ in index] for t, den in enumerate(dens)]
    lowering = [
        [(k, den * g[t], pos[(j, g[:t] + (g[t] - 1,) + g[t + 1 :])])
         for k, (j, g) in enumerate(index) if g[t]]
        for t, den in enumerate(dens)
    ]
    return pos, diagonal, lowering


def test_block_built_jet_systems_match_a_direct_construction():
    """The jet system of a scheme and the fattened one the ideal-jet sweep
    reads, both built from the per-(n, nu) jet blocks, have the functionals,
    diagonals, lowerings, dimension and positions of a direct construction:
    point by point, heaviest first, by order and sorted within an order;
    the fattened system appends each point's order-m_j functionals.  A
    `pos` read on the scheme's system does not leak into the fattened one.
    Mixed multiplicities, integral and non-integral coordinates, n <= 3."""
    from kahlerdiff.polyring import monomials_of_degree

    def orders(n, lo, hi):
        return [g for total in range(lo, hi + 1) for g in sorted(monomials_of_degree(n, total))]

    rng = random.Random(27182)
    for _ in range(10):
        base = random_scheme(rng, max_s=4, max_mult=3)
        for s in (base, off_integers(base)):
            order = sorted(range(s.s), key=lambda j: -s.mults[j])
            index = [(j, g) for j in order for g in orders(s.n, 0, s.mults[j] - 1)]
            fat_index = index + [(j, g) for j in order for g in orders(s.n, s.mults[j], s.mults[j])]
            js = JetSystem(s)
            assert js.dim == len(index) == s.degree()
            assert (js.pos, js._diagonal, js._lowering) == _direct_jet_lists(s, index), s
            fat = js.fattened()
            assert fat.scheme == s.fattening() and fat.index == fat_index
            assert fat.dim == len(fat_index) == s.fattening().degree()
            assert (fat.pos, fat._diagonal, fat._lowering) == _direct_jet_lists(s, fat_index), s
            assert js.index == index and len(js.pos) == js.dim


def test_batched_poly_jets_against_partials():
    """One `poly_jets` call on a batch of sparse polynomials and the zero
    polynomial equals the partials of each, evaluated at the points, and
    leaves no memo on the jet system."""
    rng = random.Random(27182)
    for _ in range(6):
        base = random_scheme(rng, max_s=3)
        for s in (base, off_integers(base)):
            js = JetSystem(s)
            n = s.n
            for d in range(4):
                monos = degree_slice(n, d)
                batch = [HomogPoly.zero(n + 1, d)]
                for _ in range(4):
                    picked = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
                    batch.append(HomogPoly(
                        n + 1, d, {beta: rng.choice([-3, -1, 1, 2, 5]) for beta in picked}
                    ))
                before = dict(vars(js))
                jets = js.poly_jets(batch)
                assert vars(js) == before
                assert len(jets) == len(batch)
                assert jets[0] == [0] * js.dim
                for f, vec in zip(batch, jets):
                    assert vec == jets_by_partials(f, s, js.index)


def test_ideal_slice_is_the_standard_form_basis():
    """`ideal_slice` is the standard-form kernel basis of the jet matrix,
    read off the rational rref, on integral and non-integral schemes."""
    rng = random.Random(16180)
    for _ in range(6):
        base = random_scheme(rng, max_n=2, max_s=3)
        for s in (base, off_integers(base)):
            js = JetSystem(s)
            for d in range(initial_degree(s), regularity_index(s) + 2):
                monos = degree_slice(s.n, d)
                rows = [[js.value(j, gamma, beta) for beta in monos]
                        for j, gamma in js.index]
                reduced, pivots = rref(rows)
                free_cols = [c for c in range(len(monos)) if c not in pivots]
                basis = ideal_slice(s, d)
                assert len(basis) == len(free_cols)
                for p, free in zip(basis, free_cols):
                    coeffs = p.coeff_vector()
                    assert all(coeffs[f] == (f == free) for f in free_cols)
                    for row, piv in zip(reduced, pivots):
                        assert coeffs[piv] == -row[free]


def test_equal_points_compare_and_hash_equal():
    """A point given by ints, Fractions, strings or a scaled vector is one
    point: equal, with one hash, the hash of its normalized coordinates."""
    given = [(1, 2, -3), (2, 4, -6), (Fraction(1, 2), 1, Fraction(-3, 2)), ("1", "2", "-3"),
             (-5, -10, 15)]
    points = [ProjPoint(c) for c in given]
    for p in points:
        assert p == points[0] and hash(p) == hash(points[0]) == hash(p.coords)
    assert len(set(points)) == 1
    assert ProjPoint((1, 2, 3)) != points[0]
    assert FatPointScheme(2, points[:1], [2]).fattening().points == (points[-1],)


def test_scheme_hash_is_cached_and_consistent():
    """Equal schemes built from scaled, int, Fraction and string
    coordinates compare and hash equal and share cached tables; the
    dataclass fields, repr and equality are unchanged."""
    import dataclasses

    variants = [
        FatPointScheme(2, [ProjPoint((1, 2, 0)), ProjPoint((1, 0, 3))], [2, 1]),
        FatPointScheme(2, [ProjPoint((2, 4, 0)), ProjPoint((-3, 0, -9))], (2, 1)),
        FatPointScheme(
            2,
            [ProjPoint((Fraction(1, 2), Fraction(1), Fraction(0))),
             ProjPoint((Fraction(1), Fraction(0), Fraction(3)))],
            [2, 1],
        ),
        FatPointScheme(2, [ProjPoint(("4/2", "4", "0")), ProjPoint(("1", "0", "6/2"))], [2, 1]),
    ]
    first = variants[0]
    for s in variants:
        assert s == first
        assert hash(s) == hash(first) == hash((s.n, s.points, s.mults))
        assert hf_table(s) is hf_table(first)
        assert repr(s) == (
            f"FatPointScheme(n={s.n!r}, points={s.points!r}, mults={s.mults!r})"
        )
    assert [f.name for f in dataclasses.fields(first)] == ["n", "points", "mults"]
    other = first.with_mults([1, 1])
    assert other != first
    assert first != (first.n, first.points, first.mults)


def test_inclusion_reversal(rng):
    for _ in range(5):
        s = random_scheme(rng, max_mult=2)
        bigger = s.fattening()
        for d in range(regularity_index(bigger) + 2):
            assert hilbert_function(s, d) <= hilbert_function(bigger, d)


def test_slice_members_have_vanishing_jets(rng):
    for _ in range(5):
        base = random_scheme(rng, max_s=3)
        for s in (base, off_integers(base)):
            js = JetSystem(s)
            d = initial_degree(s) + 1
            for jets in js.poly_jets(ideal_slice(s, d)):
                assert all(v == 0 for v in jets)


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
