from fractions import Fraction
from functools import lru_cache

import pytest

from kahlerdiff.kaehler import (
    ExteriorForm,
    WedgeBasis,
    hp_local,
    koszul_check,
    omega_hf,
    omega_hf_prefix,
    submodule_slice,
    top_form_hf,
    wedge_with_differential,
)
from kahlerdiff.polyring import HomogPoly, monomials_of_degree, parse_poly
from kahlerdiff.schemes import FatPointScheme, HFTable, ProjPoint, hf_table, hilbert_function

from conftest import jets_by_partials, off_integers, random_scheme
from oracles import bareiss_rank, dense_submodule_rank, jet_matrix_hf


def simple(n, *coords_list, mults=None):
    pts = [ProjPoint(c) for c in coords_list]
    return FatPointScheme(n, pts, mults or [1] * len(pts))


# --- wedge basics -----------------------------------------------------------

def test_wedge_basis_sizes():
    assert WedgeBasis(3, 2).size == 6
    assert WedgeBasis(3, 2, relative=True).size == 3
    assert WedgeBasis(2, 3).subsets == ((0, 1, 2),)
    with pytest.raises(ValueError):
        WedgeBasis(2, 4)


def test_wedge_with_differential_collision_kills_form():
    f = parse_poly("X0^2", 2)
    form = wedge_with_differential(f, (0,))
    assert form.is_zero()


def test_wedge_with_differential_product_rule():
    f = parse_poly("X0*X1", 2)
    form = wedge_with_differential(f, ())
    assert form.coefficient((0,)) == parse_poly("X1", 2)
    assert form.coefficient((1,)) == parse_poly("X0", 2)


def test_wedge_with_differential_sign():
    # dF ^ dX0 with F = X0*X1 re-sorts dX1 ^ dX0, picking up a sign
    f = parse_poly("X0*X1", 2)
    form = wedge_with_differential(f, (0,))
    assert form.coefficient((0, 1)) == -parse_poly("X0", 2)


def test_wedge_rejects_malformed_subsets():
    f = parse_poly("X0*X1", 2)
    with pytest.raises(ValueError):
        wedge_with_differential(f, (1, 0))
    with pytest.raises(ValueError):
        wedge_with_differential(f, (0,), relative=True)


def test_exterior_form_degree_bookkeeping():
    basis = WedgeBasis(2, 1)
    coeffs = [HomogPoly.variable(3, i) for i in range(3)]
    form = ExteriorForm(basis, coeffs)
    assert form.degree == 2
    shifted = form.times_monomial((1, 0, 0))
    assert shifted.degree == 3


# --- submodule slices -------------------------------------------------------

def test_submodule_slice_below_initial_degree(four_points_p3):
    # nothing in the ideal below the initial degree, so the slice is empty
    assert submodule_slice(four_points_p3, 1, 1) == 0


def test_submodule_slice_examples(four_points_p3):
    assert submodule_slice(four_points_p3, 2, 2) == 0
    assert submodule_slice(four_points_p3, 2, 4) == 60
    with pytest.raises(ValueError):
        submodule_slice(four_points_p3, 5, 6)
    with pytest.raises(ValueError):
        submodule_slice(four_points_p3, 4, 6, relative=True)
    # one public route: the dense reference is not an option of it
    with pytest.raises(TypeError):
        submodule_slice(four_points_p3, 2, 4, method="dense")


def test_fast_equals_dense_both_pools(rng):
    for _ in range(4):
        s = random_scheme(rng, max_n=2, max_s=3, max_mult=2)
        top = s.n + 1
        for m in range(1, top + 1):
            for d in range(m, m + 4):
                fast = submodule_slice(s, m, d)
                assert fast == dense_submodule_rank(s, m, d, False, "minimal")
                assert fast == dense_submodule_rank(s, m, d, False, "slices")
        for m in range(1, s.n + 1):
            d = m + 2
            assert submodule_slice(s, m, d, relative=True) == dense_submodule_rank(
                s, m, d, True, "minimal"
            )


# --- Hilbert functions of the form modules ----------------------------------

def test_omega_tables_four_points(four_points_p3):
    expected = {
        1: ([0, 4, 10, 4, 4], 3),
        2: ([0, 0, 6, 4, 0, 0], 4),
        3: ([0, 0, 0, 4, 1, 0, 0], 5),
        4: ([0, 0, 0, 0, 1, 0, 0], 5),
    }
    for m, (values, ri) in expected.items():
        o = omega_hf(four_points_p3, m)
        assert o.table.prefix(len(values)) == values
        assert o.ri == ri
        assert o.cert_degree >= 1 + m  # past r + m


def test_single_point_modules():
    s = simple(2, (1, 0, 0))
    assert omega_hf(s, 1).table.prefix(4) == [0, 1, 1, 1]
    assert omega_hf(s, 2).hp == 0
    assert omega_hf(s, 2).table.prefix(4) == [0, 0, 0, 0]


def test_two_lines_vs_conic_configurations():
    conic = simple(2, *[(1, t, t * t) for t in (0, 1, -1, 2, -2, 3)])
    lines = simple(2, *[(1, 1, 0), (1, 2, 0), (1, 3, 0), (1, 0, 1), (1, 0, 2), (1, 0, 3)])
    assert hf_table(conic).values == hf_table(lines).values == (1, 3, 5, 6)
    assert omega_hf(conic, 1).table.values == omega_hf(lines, 1).table.values
    assert omega_hf(conic, 2).table.value(4) == 4
    assert omega_hf(lines, 2).table.value(4) == 5
    assert omega_hf(conic, 3).ri == 4
    assert omega_hf(lines, 3).ri == 5


def test_zero_range_and_binomial_law(rng):
    from math import comb

    for _ in range(6):
        s = random_scheme(rng, max_s=3)
        n = s.n
        from kahlerdiff.schemes import initial_degree

        alpha = initial_degree(s)
        for m in range(1, n + 2):
            table = omega_hf(s, m).table
            for i in range(m):
                assert table.value(i) == 0
            for i in range(m, alpha + m - 1):
                assert table.value(i) == comb(n + 1, m) * comb(n + i - m, n)


def test_eventual_monotone_decrease(rng):
    from kahlerdiff.schemes import regularity_index

    for _ in range(5):
        s = random_scheme(rng, max_s=3, max_mult=2)
        r = regularity_index(s)
        for m in range(1, s.n + 2):
            t = omega_hf(s, m).table
            vals = [t.value(i) for i in range(r + m, max(t.stable_from, r + m) + 3)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))
            strictly = vals[: max(0, t.stable_from - (r + m) + 1)]
            assert all(a > b for a, b in zip(strictly, strictly[1:]))


def test_top_form_equals_presentation_path(rng):
    """There is one route to the top form: `top_form_hf` is the cached
    table of `omega_hf(s, n + 1)`.  It is held against the presentation,
    comb(d - 1, n) = dim (Omega^{n+1}_S)_d minus the slice ranked from the
    polynomial generators, one degree at a time (`submodule_slice`)."""
    from math import comb

    for _ in range(6):
        s = random_scheme(rng, max_s=4, max_mult=2)
        top = top_form_hf(s)
        direct = omega_hf(s, s.n + 1)
        assert top is direct
        degrees = range(1, top.ri + 3)
        presented = [comb(d - 1, s.n) - submodule_slice(s, s.n + 1, d) for d in degrees]
        assert [top.table.value(d) for d in degrees] == presented
        assert [direct.table.value(d) for d in degrees] == presented
        assert top.ri == direct.ri


@lru_cache(maxsize=None)  # two tests read the same 40 schemes
def fattening_ris(s: FatPointScheme) -> tuple[int, int]:
    """r_W and r_{W+1} from the literal jet matrices, not from the sweep."""
    return jet_matrix_hf(s).stable_from, jet_matrix_hf(s.fattening()).stable_from


def test_form_tables_stabilize_by_the_fattening_bound(monkeypatch):
    """Every absolute and relative table is constant from D* = max(r_W + m,
    r_{W+1} + m - 1) on, so it is certified by D*, at max(ri, r_W + m);
    r_W and r_{W+1} come from the literal jet matrices, not from the
    ideal-jet sweep the stop reads.  Its constant is the Hilbert polynomial
    from local lengths.  A table that never repeats a value is refused by
    its value at D*."""
    import random
    from itertools import count

    from kahlerdiff import kaehler
    from kahlerdiff.schemes import StabilizationError

    rng = random.Random(3)
    for _ in range(40):
        s = random_scheme(rng)
        r, r_fat = fattening_ris(s)
        for relative in (False, True):
            for m in range(1, (s.n if relative else s.n + 1) + 1):
                o = omega_hf(s, m, relative)
                d_star = max(r + m, r_fat + m - 1)
                assert o.ri <= d_star and o.cert_degree <= d_star, (s, m, relative)
                assert o.cert_degree == max(o.ri, r + m), (s, m, relative)
                assert o.hp == hp_local(s, m, relative), (s, m, relative)

    s = simple(2, (1, 5, -7), (1, -3, 2), (1, 4, 4), mults=[2, 1, 3])
    r, r_fat = fattening_ris(s)
    monkeypatch.setattr(kaehler, "_form_values", lambda *args: count())
    for m in range(1, s.n + 2):
        d_star = max(r + m, r_fat + m - 1)
        hp = hp_local(s, m)
        assert hp != d_star
        with pytest.raises(
            StabilizationError,
            match=f"stabilized at {d_star}, not at its local Hilbert polynomial {hp}$",
        ):
            omega_hf(s, m)


def test_ri_is_read_back_from_the_fattening_bound():
    """`omega_hf` finds ri by scanning back from D* against the Hilbert
    polynomial; on the 40 random schemes above it is the stabilization
    degree that `HFTable.from_values` reads off the values through D*."""
    import random

    rng = random.Random(3)
    for _ in range(40):
        s = random_scheme(rng)
        r, r_fat = fattening_ris(s)
        for relative in (False, True):
            for m in range(1, (s.n if relative else s.n + 1) + 1):
                values = omega_hf_prefix(s, m, max(r + m, r_fat + m - 1), relative)
                assert omega_hf(s, m, relative).ri == HFTable.from_values(values).stable_from


def test_a_full_echelon_takes_no_more_rows(monkeypatch):
    """A form table whose echelon fills all its columns before D* offers no
    row after it fills, and no degree without new ideal-jet rows calls
    `insert_all`; the tables still agree, degree by degree, with the
    per-degree presentation ranked afresh by `submodule_slice`."""
    from math import comb

    from kahlerdiff import kaehler
    from kahlerdiff.exactla import Echelon

    calls = []

    class Spy(Echelon):
        def insert_all(self, vecs):
            vecs = list(vecs)
            calls.append((self.rank, self.ncols, len(vecs)))
            super().insert_all(vecs)
            calls.append((self.rank, self.ncols, None))

    filled_early = 0
    for s, m, relative in [
        (simple(1, (1, 0), (1, 1), (1, 3), (1, -2), mults=[2, 1, 1, 2]), 2, False),
        (simple(2, (1, 5, -7), (1, -3, 2), (1, 4, 4), mults=[2, 1, 3]), 2, True),
        (simple(2, (1, 5, -7), (1, -3, 2), (1, 4, 4), mults=[2, 1, 3]), 3, False),
        (simple(2, (1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)), 3, False),
    ]:
        gj = kaehler._generator_jets(s)
        calls.clear()
        omega_hf.cache_clear()
        with monkeypatch.context() as mp:
            mp.setattr(kaehler, "Echelon", Spy)
            o = omega_hf(s, m, relative)
        assert calls and all(rank < ncols and size for rank, ncols, size in calls[::2])
        full = next(k for k, (rank, ncols, _) in enumerate(calls) if rank == ncols)
        assert full == len(calls) - 1, (s, m, relative)
        filled_early += len(calls) // 2 < sum(1 for rows in gj.new if rows)
        blocks = WedgeBasis(s.n, m, relative).size
        assert list(o.table.values) == [
            blocks * comb(s.n + d - m, s.n) - submodule_slice(s, m, d, relative) if d >= m else 0
            for d in range(len(o.table.values))
        ], (s, m, relative)
        assert (o.ri, o.hp) == (o.table.stable_from, hp_local(s, m, relative))
    assert filled_early == 4


def test_a_plateau_above_the_local_hp_is_refused(monkeypatch):
    """A plateau is no certificate: a table that follows the real one up to
    its ri and then stays one above its Hilbert polynomial raises at D*
    instead of being certified."""
    from itertools import chain, repeat

    from kahlerdiff import kaehler
    from kahlerdiff.schemes import StabilizationError
    from kahlerdiff.verify import load_scheme

    _, s = load_scheme("nine_points_p2")
    real = omega_hf(s, 1)
    assert real.hp == hp_local(s, 1) == 9
    monkeypatch.setattr(
        kaehler, "_form_values",
        lambda *args: chain(real.table.values[: real.ri], repeat(real.hp + 1)),
    )
    omega_hf.cache_clear()
    with pytest.raises(
        StabilizationError,
        match=r"^Omega\^1 Hilbert function stabilized at 10, not at its local Hilbert polynomial 9$",
    ):
        omega_hf(s, 1)


def test_an_early_plateau_is_not_the_tail(monkeypatch):
    """A repeat past r_W + m does not end a table: here the values of
    Omega^2 on P^1 (r_W = 5, r_{W+1} = 9, D* = 10) follow the real ones to
    r_W + m - 1, then run hp, hp, hp - 1 and hp on.  The table reports the
    dip and is certified at D*, not on the plateau."""
    from itertools import chain, repeat

    from kahlerdiff import kaehler

    s = simple(1, (1, 0), (1, 1), (1, 3), (1, -2), mults=[2, 1, 1, 2])
    r, r_fat = fattening_ris(s)
    assert (r, r_fat) == (5, 9)
    real = omega_hf(s, 2)
    hp = real.hp
    monkeypatch.setattr(
        kaehler, "_form_values",
        lambda *args: chain(real.table.prefix(r + 2), [hp, hp, hp - 1], repeat(hp)),
    )
    omega_hf.cache_clear()
    o = omega_hf(s, 2)
    assert o.table.prefix(12) == [*real.table.prefix(r + 2), hp, hp, hp - 1, hp, hp]
    assert o.ri == o.cert_degree == 10


def test_stalled_sweeps_raise(monkeypatch):
    """A jet span that stops growing short of full is a fault: with the
    shift stalled, the ideal-jet sweep raises instead of running on, and so
    does `hf_table`, which reads it."""
    from kahlerdiff import kaehler
    from kahlerdiff.schemes import JetSystem, StabilizationError

    s = simple(2, (1, 41, -43), (1, 47, 53), mults=[2, 1])
    monkeypatch.setattr(JetSystem, "shift_by_variable", lambda self, vec, i: [0] * len(vec))
    with pytest.raises(StabilizationError, match="^Hilbert function failed to stabilize"):
        hf_table(s)
    with pytest.raises(StabilizationError, match="^Hilbert function failed to stabilize"):
        kaehler._GeneratorJets(s)


def test_koszul_identity(rng):
    for _ in range(5):
        s = random_scheme(rng, max_s=3, max_mult=2)
        bound = max(omega_hf(s, m).ri for m in range(1, s.n + 2))
        assert all(koszul_check(s, d) for d in range(bound + 2))


def test_fattening_identity_for_one_forms(rng):
    for _ in range(6):
        s = random_scheme(rng)
        fat = s.fattening()
        t = omega_hf(s, 1).table
        for i in range(t.stable_from + 3):
            expected = (
                (s.n + 1) * hilbert_function(s, i - 1)
                + hilbert_function(s, i)
                - hilbert_function(fat, i)
            )
            assert t.value(i) == expected


def test_relative_link(rng):
    for _ in range(5):
        s = random_scheme(rng, max_s=3)
        abs1 = omega_hf(s, 1).table
        rel1 = omega_hf(s, 1, relative=True).table
        for i in range(abs1.stable_from + 3):
            assert rel1.value(i) == abs1.value(i) - hilbert_function(s, i - 1)


def test_relative_binomial_law(rng):
    from math import comb

    from kahlerdiff.schemes import initial_degree

    for _ in range(4):
        s = random_scheme(rng, max_s=3)
        n = s.n
        alpha = initial_degree(s)
        for m in range(1, n + 1):
            t = omega_hf(s, m, relative=True).table
            for i in range(m):
                assert t.value(i) == 0
            for i in range(m, alpha + m - 1):
                assert t.value(i) == comb(n, m) * comb(n + i - m, n)


def test_omega_hf_prefix_matches_table(four_points_p3):
    o = omega_hf(four_points_p3, 2)
    assert omega_hf_prefix(four_points_p3, 2, 6) == [o.table.value(i) for i in range(7)]


def test_regularity_chain_through_one_forms(rng):
    """ri(Omega^m) <= max(r+m, ri(Omega^1)+m-1), with the top form also
    bounded through n; reduced schemes additionally obey min(2r+m, 2r+n)."""
    from kahlerdiff.schemes import regularity_index

    for _ in range(5):
        s = random_scheme(rng, max_s=4, max_mult=2)
        n = s.n
        r = regularity_index(s)
        ri1 = omega_hf(s, 1).ri
        for m in range(1, n + 2):
            ri_m = omega_hf(s, m).ri
            assert ri_m <= max(r + m, ri1 + m - 1)
            assert ri_m <= max(r + n, ri1 + n - 1)
            if s.reduced:
                assert ri_m <= min(2 * r + m, 2 * r + n)
        if s.reduced:
            assert omega_hf(s, 1).hp == s.degree()
            for m in range(2, n + 2):
                assert omega_hf(s, m).hp == 0


def test_koszul_on_the_line():
    # alternating sum reduces to HF(Omega^1) - HF(Omega^2) = HF of the
    # irrelevant ideal
    s = simple(1, (1, 0), (1, 1), (1, 2), mults=[1, 2, 3])
    t1, t2 = omega_hf(s, 1).table, omega_hf(s, 2).table
    assert t1.value(6) - t2.value(6) == 6 == hilbert_function(s, 6)
    assert all(koszul_check(s, d) for d in range(12))


def test_ideal_jet_sweep_against_the_ideal_slices():
    """In every degree up to the sweep's closure and one past it, J_delta,
    the span of the sweep's rows new at degrees <= delta, equals the span of
    the top-order jets of `ideal_slice(s, delta)`, computed from its
    polynomials by `poly_jets` on the fattened scheme.  For each slice
    member F and i = 0..n, Phi_i of F's top-order jets is the jet vector of
    dF/dX_i on the top layer of the scheme (times the common denominator of
    the coordinates), and the lower jets of dF/dX_i vanish.  Integral and
    non-integral schemes."""
    import random

    from kahlerdiff.exactla import Echelon
    from kahlerdiff.kaehler import _generator_jets
    from kahlerdiff.schemes import JetSystem, ideal_slice

    rng = random.Random(14142)
    for _ in range(4):
        base = random_scheme(rng, max_s=3, max_mult=2)
        for s in (base, off_integers(base)):
            gj = _generator_jets(s)
            fat = JetSystem(s.fattening())
            top = gj.js.fattened().index[gj.js.dim :]
            swept = Echelon(len(top))
            for delta in range(len(gj.new) + 1):
                for h in gj.new[delta] if delta < len(gj.new) else []:
                    assert swept.insert(h)
                members = ideal_slice(s, delta)
                sliced = Echelon(len(top))
                for f, jets in zip(members, fat.poly_jets(members)):
                    h = [jets[fat.pos[key]] for key in top]
                    sliced.insert(h)
                    for i, part in enumerate(gj.partials(h)):
                        jets_of_df = dict(zip(gj.js.index, jets_by_partials(
                            f.partial(i), s, gj.js.index)))
                        expected = [gj.scale * jets_of_df.pop(key) for key in gj.layer]
                        assert part == expected, (s, delta, i)
                        assert not any(jets_of_df.values())
                assert sliced.rank == swept.rank, (s, delta)
                assert not any(any(swept.reduce(row)) for row in sliced.rows)


def test_ideal_jet_rows_are_reduced():
    """new[delta] keeps the reduced rows: each row of `new[delta]` is
    primitive and positive at its pivot, and zero at every other pivot of
    J_delta, the pivots of new[0..delta].  Integral and non-integral
    schemes."""
    import random
    from math import gcd

    from kahlerdiff.kaehler import _generator_jets

    rng = random.Random(16180)
    for _ in range(6):
        base = random_scheme(rng, max_s=4, max_mult=3)
        for s in (base, off_integers(base)):
            gj = _generator_jets(s)
            pivots = []
            for delta in range(len(gj.new)):
                rows = gj.new[delta]
                lead = [next(k for k, x in enumerate(h) if x) for h in rows]
                pivots += lead
                assert len(set(pivots)) == len(pivots), (s, delta)
                for h, p in zip(rows, lead):
                    assert gcd(*h) == 1 and h[p] > 0, (s, delta)
                    assert all(h[q] == 0 for q in pivots if q != p), (s, delta)


def test_ideal_jet_sweep_ignores_the_form_of_its_leading_block(monkeypatch):
    """The sweep keeps its rows on W's columns in plain echelon form.  The
    J basis past them is unique, so `new`, `jdims` and `hf` of
    `_generator_jets` equal those of the same sweep on a fully reduced
    echelon, whose leading rows do differ.  Integral and non-integral
    schemes."""
    import random

    from kahlerdiff import kaehler, schemes
    from kahlerdiff.exactla import Echelon

    def sweep(s, full):
        made = []

        def echelon(ncols, reduced_from=0):
            made.append(Echelon(ncols, 0 if full else reduced_from))
            return made[-1]

        with monkeypatch.context() as mp:
            mp.setattr(schemes, "Echelon", echelon)
            return kaehler._GeneratorJets(s), made[0]

    rng = random.Random(31415)
    differ = 0
    for _ in range(6):
        base = random_scheme(rng, max_s=4, max_mult=3)
        for s in (base, off_integers(base)):
            gj, ech = sweep(s, full=False)
            full, reduced = sweep(s, full=True)
            assert gj.new == kaehler._generator_jets(s).new, s
            assert full.new == gj.new and full.jdims == gj.jdims, s
            assert full.hf == gj.hf, s
            differ += reduced.rows != ech.rows
    assert differ


def test_sweep_layout_read_off_the_jet_blocks():
    """H, the top layer L (`layer`) and the place in H of each L functional
    raised by X_t (`bumped`) equal their direct construction from the
    functionals: H, the fattened system's index past the scheme's, is its
    order-m_j part, point by point in the order of the jet system, and L
    the order-(m_j - 1) part of the scheme's.  Mixed multiplicities, n <= 3."""
    import random

    from kahlerdiff.kaehler import _generator_jets

    rng = random.Random(16180)
    for _ in range(10):
        s = random_scheme(rng, max_s=4, max_mult=3)
        gj = _generator_jets(s)
        js = gj.js
        top = [(j, g) for j in js.order for g in sorted(monomials_of_degree(s.n, s.mults[j]))]
        hpos = {key: k for k, key in enumerate(top)}
        layer = [(j, g) for j, g in js.index if sum(g) == s.mults[j] - 1]
        assert js.fattened().index[js.dim :] == top, s
        assert gj.layer == layer and gj.width == len(layer), s
        assert gj.bumped == [
            [hpos[(j, g[:t] + (g[t] + 1,) + g[t + 1 :])] for j, g in layer] for t in range(s.n)
        ], s


def test_ideal_jet_sweep_counts():
    """In the sweep's echelon over W+1 the rows pivoting on W's columns
    number HF_W(delta), and those pivoting past them span J_delta, so
    dim J_delta = HF_{W+1}(delta) - HF_W(delta), the identity on which the
    count of Omega^1 rests, checked through one degree past the sweep's
    end against the literal jet matrices of W and W+1, and the sweep ends
    at r_{W+1}.  Integral and non-integral schemes."""
    import random

    from kahlerdiff.kaehler import _generator_jets

    rng = random.Random(27182)
    for _ in range(8):
        base = random_scheme(rng, max_s=4, max_mult=3)
        for s in (base, off_integers(base)):
            gj = _generator_jets(s)
            hf, hf_fat = jet_matrix_hf(s), jet_matrix_hf(s.fattening())
            assert gj.hf == hf_table(s) == hf, s
            for delta in range(-1, len(gj.new) + 1):
                expected = hf_fat.value(delta) - hf.value(delta)
                assert gj.jdim(delta) == expected, (s, delta)
            assert gj.fattened_ri == hf_fat.stable_from, s


def test_each_scheme_is_swept_once(monkeypatch):
    """HF_W, r_W and r_{W+1} all come from the one ideal-jet sweep of W:
    on a fresh scheme, `hf_table`, `regularity_index`, every absolute,
    relative, prefix and top-form table, `koszul_check` and `ri_bounds`
    shift the jets of a single system, the fattened one of that sweep, and
    build it once."""
    from kahlerdiff.formulas import ri_bounds
    from kahlerdiff.schemes import JetSystem, regularity_index

    s = simple(2, (1, 17, -23), (1, -19, 29), (1, 31, 37), mults=[3, 1, 2])
    swept = []
    shift = JetSystem.shift_by_variable

    def record(self, vec, i):
        swept.append(self)
        return shift(self, vec, i)

    monkeypatch.setattr(JetSystem, "shift_by_variable", record)
    hf_table(s)
    r = regularity_index(s)
    for m in range(1, 4):
        omega_hf(s, m)
        omega_hf_prefix(s, m, 9)
        ri_bounds(s, m)
    for m in range(1, 3):
        omega_hf(s, m, relative=True)
        omega_hf_prefix(s, m, 9, relative=True)
    top_form_hf(s)
    assert all(koszul_check(s, d) for d in range(r + 6))
    systems = {id(js): js for js in swept}
    assert len(systems) == 1
    assert swept[0].scheme == s.fattening()


def test_sweep_matches_per_degree_presentation():
    """The degree sweep against the presentation ranked afresh per degree:
    HF(d) = C * C(n+d-m, n) - dim (I*Omega^m + dI*Omega^{m-1})_d, with
    C = C(n+1, m), or C(n, m) for relative forms."""
    import random
    from math import comb

    rng = random.Random(4242)
    for _ in range(8):
        s = random_scheme(rng, max_s=4, max_mult=2)
        n = s.n
        for relative in (False, True):
            for m in range(1, (n if relative else n + 1) + 1):
                o = omega_hf(s, m, relative)
                lead = comb(n, m) if relative else comb(n + 1, m)
                for d in range(m, o.cert_degree + 3):
                    expected = lead * comb(n + d - m, n) - submodule_slice(s, m, d, relative)
                    assert o.table.value(d) == expected, (s, m, relative, d)
                prefix = omega_hf_prefix(s, m, o.cert_degree + 4, relative)
                assert prefix == o.table.prefix(len(prefix))


def test_sweep_matches_dense_presentation():
    from math import comb

    for s in (
        simple(1, (1, 0), (1, 3), mults=[2, 1]),
        simple(2, (1, 0, 0), (1, 1, -1), mults=[2, 1]),
        simple(2, (1, 0, 0), (1, 2, 1), (1, -1, 3)),
    ):
        n = s.n
        for m in range(1, n + 2):
            o = omega_hf(s, m)
            for d in range(m, o.cert_degree + 2):
                dense = dense_submodule_rank(s, m, d, False, "minimal")
                assert o.table.value(d) == comb(n + 1, m) * comb(n + d - m, n) - dense
        # the top form through its public name, held against the literal
        # matrix
        top = top_form_hf(s)
        for d in range(n + 1, top.cert_degree + 2):
            dense = dense_submodule_rank(s, n + 1, d, False, "minimal")
            assert top.table.value(d) == comb(d - 1, n) - dense
    # P^3, where the order of the wedge blocks matters most: Omega^2 and
    # Omega^3 have 6 and 4 blocks
    for s in (
        simple(3, (1, 0, 0, 0), (1, 1, -1, 2), mults=[2, 1]),
        simple(3, (1, 0, 0, 0), (1, 1, 2, 0), (1, -1, 1, 3), mults=[1, 1, 2]),
    ):
        n = s.n
        for relative in (False, True):
            free = n if relative else n + 1
            for m in range(2, free + 1):
                o = omega_hf(s, m, relative)
                for d in range(m, o.cert_degree + 2):
                    dense = dense_submodule_rank(s, m, d, relative, "minimal")
                    expected = comb(free, m) * comb(n + d - m, n) - dense
                    assert o.table.value(d) == expected, (s, m, relative, d)


def test_form_tables_invariant_under_coordinate_change():
    """A linear change of coordinates is a graded automorphism of S, so it
    leaves every form table unchanged; here it moves the points off the
    integers, where the ideal data runs on rational jets."""
    import random

    rng = random.Random(1618)
    for _ in range(5):
        s = random_scheme(rng, max_s=3, max_mult=2)
        moved = off_integers(s)
        for m in range(1, s.n + 2):
            assert omega_hf(moved, m).table == omega_hf(s, m).table, (s, m)
        assert top_form_hf(moved).table == top_form_hf(s).table


def test_absolute_tables_bounded_by_relative_ones():
    """dx_0 ^ . gives a right-exact sequence
    Omega^{m-1}_{R/K[x_0]}(-1) -> Omega^m_{R/K} -> Omega^m_{R/K[x_0]} -> 0,
    so HF_{Omega^m}(i) <= HF_{Omega^m_rel}(i) + HF_{Omega^{m-1}_rel}(i - 1),
    with Omega^0_rel = R_W and Omega^{n+1}_rel = 0.  At m = 1 the left map
    is injective (the Euler derivation sends f dx_0 to f x_0, and x_0 is a
    nonzerodivisor), so there it is an equality.  Checked through
    cert_degree + 2, integral and non-integral schemes; the inequality is
    strict somewhere, so it is not an equality in general."""
    import random

    rng = random.Random(7)
    strict = 0
    for _ in range(40):
        base = random_scheme(rng, max_s=4, max_mult=3)
        for s in (base, off_integers(base)):
            rel = [hf_table(s)] + [omega_hf(s, m, relative=True).table for m in range(1, s.n + 1)]
            rel.append(HFTable((), 0, 0))
            for m in range(1, s.n + 2):
                o = omega_hf(s, m)
                for i in range(o.cert_degree + 3):
                    bound = rel[m].value(i) + rel[m - 1].value(i - 1)
                    assert o.table.value(i) <= bound, (s, m, i)
                    assert m > 1 or o.table.value(i) == bound, (s, i)
                    strict += o.table.value(i) < bound
    assert strict


# --- Hilbert polynomials from local lengths ---------------------------------

def _local_image_rank(n, nu, m, relative, p):
    """Rank of Psi_j(H_j (x) Lambda^{m-1}) at the point with affine
    coordinates p and multiplicity nu, eliminated from the unit top-order
    jets: dF/dX_i (i >= 1) reads the jet of F at gamma + e_i, dF/dX_0 is
    -sum_i p_i dF/dX_i, and dF ^ dX_J is sorted into the wedge basis."""
    from itertools import combinations, product

    indices = range(1, n + 1) if relative else range(n + 1)
    top = [g for g in product(range(nu + 1), repeat=n) if sum(g) == nu]
    layer = [g for g in product(range(nu), repeat=n) if sum(g) == nu - 1]
    block = {T: k for k, T in enumerate(combinations(indices, m))}
    width = len(layer)
    rows = []
    for gamma in top:
        partial = {i: [int(tuple(a + (t == i - 1) for t, a in enumerate(g)) == gamma)
                       for g in layer] for i in range(1, n + 1)}
        partial[0] = [-sum(p[i - 1] * partial[i][k] for i in range(1, n + 1)) for k in range(width)]
        for J in combinations(indices, m - 1):
            row = [0] * (len(block) * width)
            for i in indices:
                if i not in J:
                    sign = (-1) ** sum(j < i for j in J)
                    base = block[tuple(sorted(J + (i,)))] * width
                    for k, v in enumerate(partial[i]):
                        row[base + k] += sign * v
            rows.append(row)
    return bareiss_rank(rows)


def test_local_ranks_by_elimination():
    """The local rank in `hp_local` against elimination, which shares no code
    with its closed form: C * C(nu + n - 1, n) - HP of one fat point is the
    rank of its local image, at a point off the origin so that Phi_0 != 0."""
    from math import comb

    for n in (1, 2, 3):
        p = (2, -1, 3)[:n]
        for nu in range(1, 5):
            s = FatPointScheme(n, [ProjPoint((1,) + p)], [nu])
            for relative in (False, True):
                free = n if relative else n + 1
                for m in range(1, free + 1):
                    rank = comb(free, m) * comb(nu + n - 1, n) - hp_local(s, m, relative)
                    assert rank == _local_image_rank(n, nu, m, relative, p), (n, nu, m, relative)


def test_top_form_hp_is_the_thinned_degree(rng):
    """For m = n + 1 the local lengths sum to sum_j C(m_j + n - 2, n)."""
    from math import comb

    for _ in range(40):
        s = random_scheme(rng, max_mult=5)
        assert hp_local(s, s.n + 1) == sum(comb(nu + s.n - 2, s.n) for nu in s.mults), s


def test_hp_local_on_the_shipped_schemes():
    """hp_local is the engine HP of every absolute and relative table of the
    shipped schemes; on the two heavy ones it gives the recorded HPs."""
    from kahlerdiff.verify import load_scheme

    for label in ("conic8_p2", "fat_points_p3", "four_points_p3", "line_mults_123_p1",
                  "nine_points_p2", "six_on_conic_p2", "six_on_two_lines_p2", "ten_points_p2"):
        _, s = load_scheme(label)
        for relative in (False, True):
            for m in range(1, (s.n if relative else s.n + 1) + 1):
                assert omega_hf(s, m, relative).hp == hp_local(s, m, relative), (label, m)
    # the engine HPs of hyperplane7_p5; only the top form's is golden data
    doc, s = load_scheme("hyperplane7_p5")
    assert [hp_local(s, m) for m in range(1, 7)] == [3472, 7580, 8980, 6062, 2205, 337]
    assert hp_local(s, 6) == doc["expected"]["top_form"]["hp"]
    doc, s = load_scheme("twisted_cubic10_p3")
    assert hp_local(s, 4) == doc["expected"]["conjecture"]["hp_top"] == 141
