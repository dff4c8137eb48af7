"""Closed-form evaluators and bounds for the Hilbert data of form modules.

Each evaluator here is an independent route to numbers the engine in
`kaehler` computes by rank: subschemes of the projective line, schemes
supported on a nonsingular conic, hyperplane-supported schemes, and the
general bound chains.  The test suite drives both routes against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .exactla import rank
from .kaehler import _check_form_degree, hp_local, omega_hf
from .polyring import HomogPoly
from .schemes import (
    SCHEMES_KEPT,
    FatPointScheme,
    HFTable,
    ProjPoint,
    _generator_jets,
    hf_table,
    hilbert_function,
    minimal_generators,
    regularity_index,
)

__all__ = [
    "P1SchemeSpec",
    "ConicSchemeSpec",
    "DeltaH",
    "p1_hf",
    "p1_ri",
    "hp_bounds",
    "hp_exact_cases",
    "ri_bounds",
    "is_general_position",
    "hyperplane_top_form",
    "conic_regularity_index",
    "conic_hf",
    "delta_h",
    "maximal_quotient_hf",
    "complex_inequality",
    "complex_inequality_rhs",
    "conjecture_probe",
    "ConjectureReport",
    "reducedness_test",
]


# --- subschemes of the projective line -------------------------------------

@dataclass(frozen=True)
class P1SchemeSpec:
    """Scheme cut out by prod (X_1 - a_i X_0)^{m_i} on the projective line."""

    roots: tuple[Fraction, ...]
    mults: tuple[int, ...]

    def __init__(self, roots: Sequence[Fraction | int | str], mults: Sequence[int]):
        roots = tuple(Fraction(a) for a in roots)
        mults = tuple(int(m) for m in mults)
        if not roots or len(roots) != len(mults):
            raise ValueError("need matching nonempty roots and multiplicities")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be pairwise distinct")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "mults", mults)

    @property
    def s(self) -> int:
        return len(self.roots)

    @property
    def mu(self) -> int:
        return sum(self.mults)

    def to_scheme(self) -> FatPointScheme:
        return FatPointScheme(1, [ProjPoint([1, a]) for a in self.roots], self.mults)


def _hf_line(d: int) -> int:
    return d + 1 if d >= 0 else 0


def p1_ri(spec: P1SchemeSpec) -> int:
    return spec.mu + spec.s - 1


def p1_hf(spec: P1SchemeSpec, m: int, relative: bool = False) -> HFTable:
    """Closed-form Hilbert table of Omega^m for a subscheme of the line.

    Absolute case: the two-form values come from the regular sequence of
    partials, HF(i) = HF_S(i-2) - 2 HF_S(i-1-mu) + HF_S(i-s-mu), and the
    one-form values add the Hilbert function of the irrelevant maximal
    ideal.  Relative case: subtracting HF_X(i-1) from the one-form table
    (the dx_0 line splits off); the peak value mu-1 occurs twice.
    """
    if m not in (1, 2):
        raise ValueError("the line only carries 1- and 2-forms")
    mu, s = spec.mu, spec.s

    def hf2(i: int) -> int:
        return _hf_line(i - 2) - 2 * _hf_line(i - 1 - mu) + _hf_line(i - s - mu)

    def hf_max_ideal(i: int) -> int:
        return 0 if i <= 0 else min(i + 1, mu)

    def hf1(i: int) -> int:
        return hf_max_ideal(i) + hf2(i)

    def hfx(i: int) -> int:
        return min(i + 1, mu) if i >= 0 else 0

    if relative:
        if m == 2:
            return HFTable((0,), 0, 0)
        fn = lambda i: hf1(i) - hfx(i - 1)
    else:
        fn = hf1 if m == 1 else hf2
    return HFTable.from_values([fn(i) for i in range(mu + s + 1)])


# --- Hilbert polynomial values and bounds -----------------------------------

def hp_bounds(scheme: FatPointScheme, m: int) -> tuple[int, int]:
    """Constant value of the Hilbert polynomial of Omega^m, bracketed.

    Reduced schemes get the exact value; otherwise the bracket comes from
    sandwiching the presentation between the ideal slices of the scheme
    and of its once-thinned subscheme.
    """
    n = scheme.n
    _check_form_degree(scheme, m, False)
    if scheme.reduced:
        exact = scheme.degree() if m == 1 else 0
        return exact, exact
    lead = comb(n + 1, m)
    lower = lead * sum(comb(mi + n - 2, n) for mi in scheme.mults)
    upper = lead * sum(comb(mi + n - 1, n) for mi in scheme.mults)
    return lower, upper


def hp_exact_cases(scheme: FatPointScheme, m: int) -> Optional[int]:
    """Exact Hilbert polynomial of Omega^m in the closed-form cases."""
    n = scheme.n
    _check_form_degree(scheme, m, False)
    if scheme.reduced:
        return scheme.degree() if m == 1 else 0
    if m == 1:
        return (n + 2) * scheme.degree() - scheme.fattening().degree()
    if n == 1 and m == 2:
        return sum(scheme.mults) - scheme.s
    equimult = len(set(scheme.mults)) == 1
    if equimult:
        nu = scheme.mults[0]
        if m == n + 1:
            return scheme.s * comb(nu + n - 2, n)
        if n == 2 and m == 2:
            return (3 * nu * nu - nu - 2) * scheme.s // 2
    return None


@lru_cache(maxsize=SCHEMES_KEPT)
def is_general_position(scheme: FatPointScheme) -> bool:
    """No n+1 of the support points lie on a common hyperplane."""
    n = scheme.n
    if scheme.s <= n:
        return True
    for subset in combinations(scheme.points, n + 1):
        rows = [list(p.coords) for p in subset]
        if rank(rows) < n + 1:
            return False
    return True


def ri_bounds(scheme: FatPointScheme, m: int) -> int:
    """Upper bound for the regularity index of Omega^m.

    Reduced: min(2r+m, 2r+n).  Otherwise the fattening bound
    min(max(r_W+m, r_V+m-1), max(r_W+n, r_V+n-1)), sharpened by the
    numeric general-position bound when the support qualifies.
    """
    n = scheme.n
    _check_form_degree(scheme, m, False)
    r = regularity_index(scheme)
    if scheme.reduced:
        return min(2 * r + m, 2 * r + n)
    rv = _generator_jets(scheme).fattened_ri  # r_V, V = W+1, off W's own sweep
    bound = min(max(r + m, rv + m - 1), max(r + n, rv + n - 1))
    if scheme.s >= 2 and is_general_position(scheme):
        mm = sorted(scheme.mults)
        rho = mm[-1] + mm[-2]
        q = (sum(mm) + scheme.s + n - 2) // n
        refined = min(max(rho + m, q + m - 1), max(rho + n, q + n - 1))
        bound = min(bound, refined)
    return bound


# --- hyperplane-supported schemes -------------------------------------------

def hyperplane_top_form(scheme: FatPointScheme, h: HomogPoly) -> HFTable:
    """Hilbert table of the top form module when the support lies in a
    hyperplane: the module is the once-thinned coordinate ring shifted by
    n+1, so HF(i) = HF_Y(i - n - 1)."""
    n = scheme.n
    if h.degree != 1 or h.is_zero():
        raise ValueError("need a nonzero linear form")
    for p in scheme.points:
        if h.evaluate(p.coords):
            raise ValueError(f"support point {p} is not on the hyperplane")
    thin = scheme.thinning()
    if thin is None:
        return HFTable((0,), 0, 0)
    inner = hf_table(thin)
    values = [0] * (n + 1) + list(inner.values)
    return HFTable.from_values(values)


# --- schemes supported on a nonsingular conic --------------------------------

@dataclass(frozen=True)
class ConicSchemeSpec:
    """Fat points on a nonsingular conic in the plane, multiplicities sorted."""

    conic: HomogPoly
    points: tuple[ProjPoint, ...]
    mults: tuple[int, ...]

    def __init__(self, conic: HomogPoly, points: Sequence[ProjPoint], mults: Sequence[int]):
        if conic.nvars != 3 or conic.degree != 2:
            raise ValueError("the conic must be a quadratic form in X0, X1, X2")
        if _conic_is_singular(conic):
            raise ValueError("the conic is singular")
        pairs = sorted(zip(points, mults), key=lambda pm: pm[1])
        points = tuple(p for p, _ in pairs)
        mults = tuple(int(m) for _, m in pairs)
        if len(points) < 4:
            raise ValueError("need at least four points on the conic")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        for p in points:
            if conic.evaluate(p.coords):
                raise ValueError(f"point {p} does not lie on the conic")
        object.__setattr__(self, "conic", conic)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mults", mults)

    @property
    def s(self) -> int:
        return len(self.points)

    @property
    def mu(self) -> int:
        return sum(self.mults) + self.s

    @property
    def rho(self) -> int:
        return self.mults[-1] + self.mults[-2]

    @property
    def nu(self) -> Optional[int]:
        vals = set(self.mults)
        return vals.pop() if len(vals) == 1 else None

    def to_scheme(self) -> FatPointScheme:
        return FatPointScheme(2, self.points, self.mults)

    def support(self) -> FatPointScheme:
        return FatPointScheme(2, self.points, (1,) * self.s)


def _conic_is_singular(conic: HomogPoly) -> bool:
    mat = [[Fraction(0)] * 3 for _ in range(3)]
    for exps, coeff in conic.terms.items():
        idx = [i for i, e in enumerate(exps) for _ in range(e)]
        i, j = idx
        if i == j:
            mat[i][i] = coeff
        else:
            mat[i][j] = mat[j][i] = coeff / 2
    return rank(mat) < 3


def conic_regularity_index(mults: Sequence[int]) -> int:
    """Regularity index of fat points on a nonsingular conic (s >= 4):
    max(m_s + m_{s-1} - 1, floor(sum m_j / 2))."""
    mm = sorted(mults)
    return max(mm[-1] + mm[-2] - 1, sum(mm) // 2)


@dataclass(frozen=True)
class DeltaH:
    """Correction terms for the conic 2- and 3-form formulas.

    h counts minimal generators of the support ideal by degree; delta
    counts the extra conic-cofactored generators of the (nu-1)-fold ideal,
    laid out by the parity case analysis (s=4 / s=5 / s>=6, parity of s
    and nu).
    """

    nu: int
    s: int
    h_by_degree: dict[int, int]

    def h(self, i: int) -> int:
        return self.h_by_degree.get(i + 1 - 2 * self.nu, 0)

    def delta(self, i: int) -> int:
        s, nu = self.s, self.nu
        total = 0
        for j in range(2, nu):
            if s % 2 == 0:
                if i == 2 * nu + 1 + j * (s - 4) // 2:
                    total += 1
            elif j % 2 == 0:
                if i == 2 * nu + 1 + j * (s - 4) // 2:
                    total += 1
            else:
                if i == 2 * nu + 1 + (j * (s - 4) + 1) // 2:
                    total += 2
        return total


def delta_h(spec: ConicSchemeSpec) -> DeltaH:
    if spec.nu is None:
        raise ValueError("correction terms are defined for equimultiple schemes")
    support = spec.support()
    counts = {
        d: len(g) for d, g in minimal_generators(support).items()
    }
    return DeltaH(spec.nu, spec.s, counts)


def maximal_quotient_hf(scheme: Optional[FatPointScheme], e: int) -> int:
    """HF of S / (maximal ideal * I) at degree e; scheme None means I = S.

    dim (M*I)_e = dim I_e minus the number of minimal generators in
    degree e, so the quotient value is HF_scheme(e) plus that count.
    """
    if e < 0:
        return 0
    if scheme is None:
        return 1 if e == 0 else 0
    count = len(minimal_generators(scheme).get(e, ()))
    return hilbert_function(scheme, e) + count


def conic_hf(spec: ConicSchemeSpec, m: int) -> HFTable:
    """Closed-form Hilbert table of Omega^m for conic-supported fat points.

    m=1 works for arbitrary multiplicities via the two-band case split on
    mu vs 2*rho; m=2 and m=3 require an equimultiple scheme and use the
    generator-degree corrections of `delta_h`.
    """
    if m == 1:
        return _conic_hf_one_forms(spec)
    if m in (2, 3):
        if spec.nu is None:
            raise ValueError(f"the m={m} formulas require an equimultiple scheme")
        return _conic_hf_two_forms(spec) if m == 2 else _conic_hf_three_forms(spec)
    raise ValueError("conic formulas cover m = 1, 2, 3")


def _conic_hf_one_forms(spec: ConicSchemeSpec) -> HFTable:
    mults = spec.mults
    mu, rho = spec.mu, spec.rho
    w = spec.to_scheme()
    hw = hf_table(w)
    r_w = conic_regularity_index(mults)
    deg_w = w.degree()
    hp = sum((mj + 1) * (3 * mj - 2) for mj in mults) // 2

    if mu >= 2 * rho + 4:
        ri = mu // 2
        if not r_w + 1 < ri:
            raise RuntimeError("band structure violated in the wide-spread case")

        def value(i: int) -> int:
            if i >= ri:
                return hp
            if i >= r_w + 2:
                return 3 * deg_w - 2 * i - 1
            if i == r_w + 1:
                return 4 * deg_w - 2 * i - 1 - hw.value(i - 2)
            return hw.value(i) + 3 * hw.value(i - 1) - hw.value(i - 2) - 2 * i - 1

    else:
        aux_mults = tuple(mj + 1 for mj in mults[:-2]) + mults[-2:]
        aux = FatPointScheme(2, spec.points, aux_mults)
        hy = hf_table(aux)
        ri = rho + 1

        def value(i: int) -> int:
            if i >= ri:
                return hp
            if i >= r_w + 1:
                return 4 * deg_w - i - 1 - hy.value(i - 1)
            return hw.value(i) + 3 * hw.value(i - 1) - hy.value(i - 1) - i - 1

    return HFTable.from_values([value(i) for i in range(ri + 2)])


def _conic_hf_three_forms(spec: ConicSchemeSpec) -> HFTable:
    nu, s = spec.nu, spec.s
    if nu == 1:
        return HFTable.from_values([0, 0, 0, 1, 0, 0])
    dh = delta_h(spec)
    w = spec.to_scheme()
    hw = hf_table(w)
    low = s * (nu - 1) // 2 + 3
    hp = s * comb(nu, 2)

    def value(i: int) -> int:
        if i <= 2:
            return 0
        if i < low:
            return hw.value(i - 1) - 2 * i + 1 + dh.h(i) + dh.delta(i)
        return hp + dh.h(i) + dh.delta(i)

    top = max(low, 2 * nu + 1 + max(s, 4) * nu // 2) + 2
    return HFTable.from_values([value(i) for i in range(top + 1)])


def _conic_hf_two_forms(spec: ConicSchemeSpec) -> HFTable:
    nu, s = spec.nu, spec.s
    support = spec.support()
    hx = hf_table(support)
    if nu == 1:

        def value(i: int) -> int:
            if i <= 1 or i >= s:
                return 0
            if i == 3:
                return 3 * hx.value(2) - 9
            return 3 * hx.value(i - 1) - hx.value(i - 2) - 2 * i - 1

        return HFTable.from_values([value(i) for i in range(s + 2)])

    dh = delta_h(spec)
    w = spec.to_scheme()
    hw = hf_table(w)
    band_low = s * (nu - 1) // 2 + 3
    band_mid = s * nu // 2 + 2
    band_top = s * (nu + 1) // 2
    hp = s * (3 * nu + 2) * (nu - 1) // 2

    def value(i: int) -> int:
        if i <= 1:
            return 0
        corr = dh.h(i) + dh.delta(i)
        if i >= band_top:
            return hp + corr
        if i >= band_mid:
            return s * nu * (3 * nu + 1) // 2 + corr - 2 * i - 1
        if i >= band_low:
            return (
                3 * hw.value(i - 1)
                - hw.value(i - 2)
                + s * comb(nu, 2)
                + corr
                - 2 * i
                - 1
            )
        return 4 * hw.value(i - 1) - hw.value(i - 2) - 4 * i + corr

    top = max(band_top, 2 * nu + 1 + max(s, 4) * nu // 2) + 2
    return HFTable.from_values([value(i) for i in range(top + 1)])


# --- the two-form complex and the top-form conjecture ------------------------

def complex_inequality_rhs(scheme: FatPointScheme, i: int) -> int:
    """Lower bound for HF_{Omega^2}(i+2) from the four-term complex linking
    the scheme to its first and second fattenings; HF_{V+1} - HF_V is dim J
    of V's own sweep, so W+2 is not swept."""
    n = scheme.n
    return (
        n * (n + 1) // 2 * hilbert_function(scheme, i)
        + _generator_jets(scheme.fattening()).jdim(i + 2)
        - (n + 1) * _generator_jets(scheme).jdim(i + 1)
    )


def complex_inequality(scheme: FatPointScheme, i: int) -> bool:
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if scheme.n < 2:
        raise ValueError("the two-form complex needs ambient dimension >= 2")
    lhs = omega_hf(scheme, 2).table.value(i + 2)
    return lhs >= complex_inequality_rhs(scheme, i)


@dataclass(frozen=True)
class ConjectureReport:
    hp_top: int
    hp_thinned: int

    @property
    def agree(self) -> bool:
        return self.hp_top == self.hp_thinned


def conjecture_probe(scheme: FatPointScheme) -> ConjectureReport:
    """The top-form Hilbert polynomial from local lengths (`hp_local`, which
    certifies every engine top-form table) beside the degree of the
    once-thinned scheme: a corollary, both are sum_j C(m_j + n - 2, n)."""
    thin = scheme.thinning()
    hp_thin = thin.degree() if thin is not None else 0
    return ConjectureReport(hp_local(scheme, scheme.n + 1), hp_thin)


def reducedness_test(scheme: FatPointScheme) -> bool:
    """True iff all multiplicities are 1; checked against the engine fact
    that this happens exactly when the top-form Hilbert polynomial is 0."""
    claim = scheme.reduced
    engine = omega_hf(scheme, scheme.n + 1).hp == 0
    if claim != engine:
        raise AssertionError(
            f"reducedness mismatch: multiplicities say {claim}, engine says {engine}"
        )
    return claim
