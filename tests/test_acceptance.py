"""Acceptance suite: every exit criterion, each with its stated runtime cap.

Arithmetic is exact throughout, so all comparisons are equalities; the
randomized batteries use a fixed seed and must show zero failures.
"""

import random
import time
from math import comb

import pytest

from kahlerdiff.formulas import (
    ConicSchemeSpec,
    P1SchemeSpec,
    conic_hf,
    conic_regularity_index,
    conjecture_probe,
    hp_bounds,
    hp_exact_cases,
    hyperplane_top_form,
    p1_hf,
    p1_ri,
    ri_bounds,
)
from kahlerdiff.kaehler import koszul_check, omega_hf, top_form_hf
from kahlerdiff.polyring import parse_poly
from kahlerdiff.schemes import (
    FatPointScheme,
    hf_table,
    hilbert_function,
    initial_degree,
    regularity_index,
    scheme_from_json_dict,
)
from kahlerdiff.verify import load_config, load_scheme, run_suite

from conftest import random_scheme


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.1f}s, over its {self.seconds}s budget"
            )
            print(f"\n{self.name}: PASS ({elapsed:.1f}s of {self.seconds}s budget)")
        return False


def test_criterion_1_four_reduced_points_in_p3():
    with Budget("criterion 1 (four reduced points in P^3)", 5):
        doc, scheme = load_scheme("four_points_p3")
        expected = {
            1: ([0, 4, 10, 4, 4], 3),
            2: ([0, 0, 6, 4, 0, 0], 4),
            3: ([0, 0, 0, 4, 1, 0, 0], 5),
            4: ([0, 0, 0, 0, 1, 0, 0], 5),
        }
        for m, (values, ri) in expected.items():
            o = omega_hf(scheme, m)
            assert o.table.prefix(len(values)) == values
            assert o.ri == ri


def test_criterion_2_line_scheme_engine_and_formula():
    with Budget("criterion 2 (multiplicity 1+2+3 on the line)", 1):
        doc, scheme = load_scheme("line_mults_123_p1")
        spec = P1SchemeSpec([p.coords[1] for p in scheme.points], scheme.mults)
        omega1 = [0, 2, 4, 6, 8, 10, 11, 10, 9, 9]
        omega2 = [0, 0, 1, 2, 3, 4, 5, 4, 3, 3]
        for m, exp in ((1, omega1), (2, omega2)):
            eng = omega_hf(scheme, m)
            assert eng.table.prefix(10) == exp
            assert eng.ri == 8
            assert p1_hf(spec, m).prefix(10) == exp
        assert p1_ri(spec) == 8


def test_criterion_3_six_point_configurations():
    with Budget("criterion 3 (six points: irreducible vs split conic)", 10):
        _, conic = load_scheme("six_on_conic_p2")
        _, lines = load_scheme("six_on_two_lines_p2")
        assert hf_table(conic).prefix(6) == [1, 3, 5, 6, 6, 6]
        assert hf_table(lines).prefix(6) == [1, 3, 5, 6, 6, 6]
        assert (
            omega_hf(conic, 1).table.values == omega_hf(lines, 1).table.values
        )
        t2c, t2l = omega_hf(conic, 2).table, omega_hf(lines, 2).table
        diffs = [i for i in range(12) if t2c.value(i) != t2l.value(i)]
        assert diffs == [4]
        assert (t2c.value(4), t2l.value(4)) == (4, 5)
        assert omega_hf(conic, 3).table.prefix(6) == [0, 0, 0, 1, 0, 0]
        assert omega_hf(lines, 3).table.prefix(6) == [0, 0, 0, 1, 1, 0]
        assert omega_hf(conic, 3).ri == 4
        assert omega_hf(lines, 3).ri == 5


def test_criterion_4_nine_and_ten_points():
    with Budget("criterion 4 (nine and ten plane points)", 10):
        for label in ("nine_points_p2", "ten_points_p2"):
            doc, scheme = load_scheme(label)
            for m_str, exp in doc["expected"]["omega"].items():
                table = omega_hf(scheme, int(m_str)).table
                assert table.prefix(len(exp["values"])) == exp["values"]
        _, nine = load_scheme("nine_points_p2")
        t1 = omega_hf(nine, 1).table
        assert t1.value(4) > t1.value(5) < t1.value(6)
        assert (t1.value(4), t1.value(5), t1.value(6)) == (14, 13, 14)


def test_criterion_5_fat_points_regularity():
    with Budget("criterion 5 (fat point scheme in P^3)", 60):
        doc, scheme = load_scheme("fat_points_p3")
        assert [omega_hf(scheme, m).ri for m in range(1, 5)] == [5, 6, 7, 7]
        sub = doc["double_subscheme"]
        dbl = FatPointScheme(
            3,
            [scheme.points[i] for i in sub["point_indices"]],
            [2] * len(sub["point_indices"]),
        )
        assert [omega_hf(dbl, m).ri for m in range(1, 5)] == [5, 6, 7, 7]
        assert [ri_bounds(dbl, m) for m in range(1, 5)] == [5, 6, 7, 7]


def test_criterion_6_conic_scheme_three_forms():
    with Budget("criterion 6 (eight conic points, 3-forms)", 60):
        doc, base = load_scheme("conic8_p2")
        exp = doc["expected"]
        conic = parse_poly(doc["conic"], 3)
        for nu_str, hf_exp in exp["hf"].items():
            w = base.with_mults([int(nu_str)] * 8)
            assert hf_table(w).prefix(len(hf_exp)) == hf_exp
        for nu in (2, 3):
            table_exp = exp["omega3"][str(nu)]
            w = base.with_mults([nu] * 8)
            spec = ConicSchemeSpec(conic, base.points, [nu] * 8)
            assert omega_hf(w, 3).table.prefix(len(table_exp)) == table_exp
            assert conic_hf(spec, 3).prefix(len(table_exp)) == table_exp


def test_criterion_7_conic_scheme_two_forms():
    with Budget("criterion 7 (eight conic points, 2-forms)", 120):
        doc, base = load_scheme("conic8_p2")
        exp = doc["expected"]
        conic = parse_poly(doc["conic"], 3)
        for nu in (1, 2, 3):
            table_exp = exp["omega2"][str(nu)]
            w = base.with_mults([nu] * 8)
            spec = ConicSchemeSpec(conic, base.points, [nu] * 8)
            assert omega_hf(w, 2).table.prefix(len(table_exp)) == table_exp
            assert conic_hf(spec, 2).prefix(len(table_exp)) == table_exp
            stabilized = (3 * nu * nu - nu - 2) * 8 // 2
            assert exp["omega2_hp"][str(nu)] == stabilized
            assert omega_hf(w, 2).hp == stabilized


def test_criterion_8_hyperplane_top_form():
    with Budget("criterion 8 (seven fat points in a hyperplane of P^5)", 600):
        doc, scheme = load_scheme("hyperplane7_p5")
        exp = doc["expected"]["top_form"]
        table = hyperplane_top_form(scheme, parse_poly(doc["hyperplane"], 6))
        assert table.prefix(len(exp["values"])) == exp["values"]
        assert table.hp == 337


def _battery_checks(s: FatPointScheme) -> None:
    n = s.n
    tables = {m: omega_hf(s, m) for m in range(1, n + 2)}
    r = regularity_index(s)
    alpha = initial_degree(s)
    horizon = max(o.ri for o in tables.values()) + 2

    # alternating-sum identity at every degree up to stabilization
    for d in range(horizon):
        total = sum(
            (1 if m % 2 else -1) * tables[m].table.value(d) for m in tables
        )
        assert total == hilbert_function(s, d) - (1 if d == 0 else 0)

    # the two top-form presentations agree pointwise
    top = top_form_hf(s)
    assert all(
        top.table.value(i) == tables[n + 1].table.value(i) for i in range(horizon)
    )

    for m, o in tables.items():
        t = o.table
        # zero range and binomial low-degree law
        assert all(t.value(i) == 0 for i in range(m))
        for i in range(m, alpha + m - 1):
            assert t.value(i) == comb(n + 1, m) * comb(n + i - m, n)
        # nonincreasing past r + m, strictly until the constant value
        vals = [t.value(i) for i in range(r + m, max(t.stable_from, r + m) + 2)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        head = vals[: max(0, t.stable_from - (r + m) + 1)]
        assert all(a > b for a, b in zip(head, head[1:]))
        # Hilbert polynomial bracketing and bound domination
        lo, hi = hp_bounds(s, m)
        assert lo <= o.hp <= hi
        exact = hp_exact_cases(s, m)
        if exact is not None:
            assert o.hp == exact
        assert o.ri <= ri_bounds(s, m)

    # one-form identity through the fattening
    fat = s.fattening()
    t1 = tables[1].table
    for i in range(horizon):
        assert t1.value(i) == (n + 1) * hilbert_function(s, i - 1) + hilbert_function(
            s, i
        ) - hilbert_function(fat, i)

    # relative one-forms differ from the absolute ones by HF_W(i-1)
    rel = omega_hf(s, 1, relative=True).table
    for i in range(horizon):
        assert rel.value(i) == t1.value(i) - hilbert_function(s, i - 1)


def test_criterion_9_randomized_batteries():
    rng = random.Random(987123)
    count = 0
    start = time.monotonic()
    while count < 100:
        s = random_scheme(rng)
        _battery_checks(s)
        count += 1
    # top-form Hilbert polynomial equality on equimultiple schemes
    eq_count = 0
    while eq_count < 12:
        base = random_scheme(rng, max_mult=1)
        if base.s > 5:
            continue
        nu = rng.randint(1, 3)
        w = base.with_mults([nu] * base.s)
        thin = w.thinning()
        expected = thin.degree() if thin is not None else 0
        assert top_form_hf(w).hp == expected
        eq_count += 1
    print(
        f"\ncriterion 9: PASS ({count} schemes + {eq_count} equimultiple, "
        f"{time.monotonic() - start:.0f}s, zero failures)"
    )


@pytest.mark.slow
def test_criterion_10_twisted_cubic_probe():
    with Budget("criterion 10 (ten fat points on the twisted cubic)", 75):
        doc, scheme = load_scheme("twisted_cubic10_p3")
        report = conjecture_probe(scheme)
        assert report.hp_top == 141
        assert report.hp_thinned == 141
        assert report.agree


def test_verification_suites_all_pass():
    results = run_suite("slow")  # core and conic, then hyperplane7_p5 and the twisted cubic
    failures = [r.name for r in results if not r.passed]
    assert not failures, failures
