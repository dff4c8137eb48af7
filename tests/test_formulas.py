import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from kahlerdiff.formulas import (
    ConicSchemeSpec,
    ConjectureReport,
    P1SchemeSpec,
    complex_inequality,
    complex_inequality_rhs,
    conic_hf,
    conic_regularity_index,
    conjecture_probe,
    delta_h,
    hp_bounds,
    hp_exact_cases,
    hyperplane_top_form,
    is_general_position,
    maximal_quotient_hf,
    p1_hf,
    p1_ri,
    reducedness_test,
    ri_bounds,
)
from kahlerdiff.kaehler import omega_hf, top_form_hf
from kahlerdiff.polyring import parse_poly
from kahlerdiff.schemes import FatPointScheme, ProjPoint, hf_table, hilbert_function
from kahlerdiff.verify import load_scheme

from conftest import random_scheme


def simple(n, *coords_list, mults=None):
    pts = [ProjPoint(c) for c in coords_list]
    return FatPointScheme(n, pts, mults or [1] * len(pts))


# --- line schemes ------------------------------------------------------------

def test_p1_example_tables():
    spec = P1SchemeSpec([0, 1, 2], [1, 2, 3])
    assert p1_hf(spec, 1).prefix(10) == [0, 2, 4, 6, 8, 10, 11, 10, 9, 9]
    assert p1_hf(spec, 2).prefix(10) == [0, 0, 1, 2, 3, 4, 5, 4, 3, 3]
    assert p1_ri(spec) == 8
    assert p1_hf(spec, 1).stable_from == 8
    assert p1_hf(spec, 1, relative=True).prefix(10) == [0, 1, 2, 3, 4, 5, 5, 4, 3, 3]
    assert p1_hf(spec, 2, relative=True).hp == 0


def test_p1_single_reduced_point():
    spec = P1SchemeSpec([5], [1])
    assert p1_hf(spec, 1).prefix(4) == [0, 1, 1, 1]
    assert p1_hf(spec, 1).hp == 1
    assert p1_hf(spec, 2).hp == 0


def test_p1_matches_engine_exhaustively():
    """Every multiplicity tuple with total weight at most 8 on fixed roots."""
    roots = [0, 1, -1, 2]
    for s in range(1, 5):
        for mults in combinations_with_replacement(range(1, 9), s):
            if sum(mults) > 8:
                continue
            spec = P1SchemeSpec(roots[:s], mults)
            scheme = spec.to_scheme()
            for m in (1, 2):
                ft = p1_hf(spec, m)
                et = omega_hf(scheme, m).table
                assert all(ft.value(i) == et.value(i) for i in range(spec.mu + s + 2))
            rel = p1_hf(spec, 1, relative=True)
            erel = omega_hf(scheme, 1, relative=True).table
            assert all(rel.value(i) == erel.value(i) for i in range(spec.mu + s + 2))
            if spec.mu >= 2:
                assert omega_hf(scheme, 1).ri == p1_ri(spec)


def test_p1_rejects_bad_input():
    with pytest.raises(ValueError):
        P1SchemeSpec([1, 1], [1, 1])
    with pytest.raises(ValueError):
        p1_hf(P1SchemeSpec([0], [2]), 3)


# --- Hilbert polynomial bounds and exact cases --------------------------------

def test_hp_bounds_double_point(double_origin_p2):
    assert hp_bounds(double_origin_p2, 1) == (3, 9)
    # oracle: HF identity from the scheme and its fattening only
    fat = double_origin_p2.fattening()
    values = [
        3 * hilbert_function(double_origin_p2, i - 1)
        + hilbert_function(double_origin_p2, i)
        - hilbert_function(fat, i)
        for i in range(6)
    ]
    assert values[-1] == values[-2] == 6
    assert hp_exact_cases(double_origin_p2, 1) == 6
    assert omega_hf(double_origin_p2, 1).hp == 6


def test_hp_exact_equimultiple_top_form():
    # s=4 points in P^3 doubled: top-form HP = s * C(nu+n-1, n) with nu = 1
    pts = [(1, 9, 0, 0), (1, 6, 0, 1), (1, 2, 3, 3), (1, 9, 3, 5)]
    w = simple(3, *pts, mults=[2, 2, 2, 2])
    assert hp_exact_cases(w, 4) == 4 * comb(1 + 3 - 1, 3)
    assert top_form_hf(w).hp == 4


def test_hp_exact_reduced(four_points_p3):
    assert hp_exact_cases(four_points_p3, 1) == 4
    for m in range(2, 5):
        assert hp_exact_cases(four_points_p3, m) == 0
        lo, hi = hp_bounds(four_points_p3, m)
        assert lo == hi == 0


def test_hp_bounds_bracket_engine(rng):
    for _ in range(6):
        s = random_scheme(rng, max_s=3)
        for m in range(1, s.n + 2):
            lo, hi = hp_bounds(s, m)
            hp = omega_hf(s, m).hp
            assert lo <= hp <= hi
            exact = hp_exact_cases(s, m)
            if exact is not None:
                assert exact == hp


# --- regularity bounds --------------------------------------------------------

def test_ri_bounds_reduced_single_point():
    s = simple(2, (1, 2, 3))
    for m in (1, 2, 3):
        assert ri_bounds(s, m) == min(m, 2)
        assert omega_hf(s, m).ri <= ri_bounds(s, m)


def test_ri_bounds_dominate_engine(rng):
    for _ in range(6):
        s = random_scheme(rng, max_s=3, max_mult=2)
        for m in range(1, s.n + 2):
            assert omega_hf(s, m).ri <= ri_bounds(s, m)


def test_general_position_detection():
    collinear = simple(2, (1, 0, 0), (1, 1, 1), (1, 2, 2))
    assert not is_general_position(collinear)
    spread = simple(2, (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 2))
    assert is_general_position(spread)


# --- hyperplane-supported schemes ----------------------------------------------

def test_hyperplane_double_points_on_line():
    w = simple(2, (1, 0, 0), (1, 1, 0), mults=[2, 2])
    table = hyperplane_top_form(w, parse_poly("X2", 3))
    # oracle: thinned scheme is two reduced points with HF 1 2 2..., shifted by 3
    assert table.prefix(7) == [0, 0, 0, 1, 2, 2, 2]
    engine = omega_hf(w, 3).table
    assert all(table.value(i) == engine.value(i) for i in range(10))


def test_hyperplane_reduced_support_gives_zero():
    w = simple(2, (1, 0, 0), (1, 1, 0))
    assert hyperplane_top_form(w, parse_poly("X2", 3)).hp == 0


def test_hyperplane_rejects_off_points():
    w = simple(2, (1, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        hyperplane_top_form(w, parse_poly("X2", 3))


# --- conic formulas -------------------------------------------------------------

PARAM_CONIC = parse_poly("X1^2 - X0*X2", 3)


def conic_points(ts):
    return [ProjPoint((1, t, t * t)) for t in ts]


def test_conic_spec_validation():
    pts = conic_points([0, 1, -1, 2])
    with pytest.raises(ValueError):
        ConicSchemeSpec(PARAM_CONIC, pts[:3], [1, 1, 1])
    with pytest.raises(ValueError):
        ConicSchemeSpec(parse_poly("X1^2", 3), pts, [1] * 4)
    with pytest.raises(ValueError):
        ConicSchemeSpec(PARAM_CONIC, [ProjPoint((1, 1, 2))] + pts[:3], [1] * 4)
    # a rank-2 conic, a line pair, through four of its points
    on_lines = [ProjPoint(p) for p in ((1, 1, 1), (1, 2, 2), (1, 3, 3), (1, -1, 1))]
    with pytest.raises(ValueError, match="singular"):
        ConicSchemeSpec(parse_poly("X1^2 - X2^2", 3), on_lines, [1] * 4)
    doc, shipped = load_scheme("conic8_p2")
    assert ConicSchemeSpec(parse_poly(doc["conic"], 3), shipped.points, shipped.mults).s == 8
    spec = ConicSchemeSpec(PARAM_CONIC, pts, [3, 1, 2, 1])
    assert spec.mults == (1, 1, 2, 3)
    assert spec.nu is None
    with pytest.raises(ValueError):
        conic_hf(spec, 2)
    with pytest.raises(ValueError):
        conic_hf(ConicSchemeSpec(PARAM_CONIC, pts, [1] * 4), 4)


def test_conic_regularity_formula_values():
    assert conic_regularity_index([1] * 8) == 4
    assert conic_regularity_index([2] * 8) == 8
    assert conic_regularity_index([1, 1, 1, 5]) == 5


@pytest.mark.parametrize(
    "ts,mults",
    [
        ([0, 1, -1, 2], [3] * 4),
        ([0, 1, -1, 2, -2], [2] * 5),
        ([0, 1, -1, 2, -2], [3] * 5),
        ([0, 1, -1, 2, -2], [4] * 5),
        ([0, 1, -1, 2, -2, 3], [2] * 6),
        ([0, 1, -1, 2, -2, 3, -3], [3] * 7),
    ],
)
def test_conic_formula_matches_engine(ts, mults):
    """Covers every correction-window branch: s=4, s=5 with even and odd
    weight (weight 4 reaches the two-generator window), s>=6 with s even
    and s odd."""
    spec = ConicSchemeSpec(PARAM_CONIC, conic_points(ts), mults)
    w = spec.to_scheme()
    for m in (1, 2, 3):
        ft = conic_hf(spec, m)
        et = omega_hf(w, m).table
        hi = max(len(ft.values), len(et.values)) + 2
        assert [ft.value(i) for i in range(hi)] == [et.value(i) for i in range(hi)]


def test_conic_one_forms_narrow_band_case():
    # total weight small relative to the two largest multiplicities
    spec = ConicSchemeSpec(PARAM_CONIC, conic_points([0, 1, -1, 2]), [1, 1, 1, 5])
    assert spec.mu <= 2 * spec.rho + 3
    ft = conic_hf(spec, 1)
    et = omega_hf(spec.to_scheme(), 1).table
    assert all(ft.value(i) == et.value(i) for i in range(20))


def test_conic_three_form_quotient_identity(conic8_points):
    conic = parse_poly("3*X0^2 - 4*X0*X1 + X1^2 - 4*X0*X2 + X2^2", 3)
    for nu in (1, 2):
        w = FatPointScheme(2, conic8_points, [nu] * 8)
        thin = w.thinning()
        et = omega_hf(w, 3).table
        assert all(et.value(i) == maximal_quotient_hf(thin, i - 3) for i in range(14))


def test_delta_windows_vanish_for_small_weight():
    spec = ConicSchemeSpec(PARAM_CONIC, conic_points([0, 1, -1, 2, -2]), [2] * 5)
    dh = delta_h(spec)
    assert all(dh.delta(i) == 0 for i in range(40))
    spec3 = ConicSchemeSpec(PARAM_CONIC, conic_points([0, 1, -1, 2, -2]), [3] * 5)
    dh3 = delta_h(spec3)
    assert dh3.delta(2 * 3 + 2) == 1
    assert sum(dh3.delta(i) for i in range(40)) == 1


# --- complex inequality, conjecture probe, reducedness ---------------------------

def test_complex_inequality_reduced_plane_points():
    s = simple(2, (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 3))
    for i in range(8):
        assert complex_inequality(s, i)


def test_complex_equality_equimultiple_plane(conic8_points):
    w = FatPointScheme(2, conic8_points, [2] * 8)
    o2 = omega_hf(w, 2)
    for i in range(o2.ri + 2, o2.ri + 5):
        assert o2.table.value(i + 2) == complex_inequality_rhs(w, i)
        assert o2.table.value(i + 2) == 32


def test_conjecture_probe_line_and_equimultiple():
    spec = P1SchemeSpec([0, 1, 2], [1, 2, 3])
    report = conjecture_probe(spec.to_scheme())
    assert report == ConjectureReport(hp_top=3, hp_thinned=3)
    assert report.agree


def test_reducedness(four_points_p3, double_origin_p2):
    assert reducedness_test(four_points_p3) is True
    assert reducedness_test(double_origin_p2) is False
