"""Modules of differential m-forms of the coordinate ring of a fat point
scheme, via the presentation

    Omega^m  ~=  Omega^m_S / (I_W * Omega^m_S  +  dI_W * Omega^{m-1}_S)

where Omega^m_S is free on the wedge monomials dX_{i_1} ^ ... ^ dX_{i_m}.
In each total degree the submodule slice is a linear-algebra object: rows
come from ideal-slice multiples of the wedge basis and from monomial
multiples of dG ^ dX_J over a generating set {G} of the ideal.

The ideal-multiple rows fill a full block of known dimension, so the rank
is computed in quotient coordinates: each coefficient polynomial is
replaced by its jet vector, whose kernel is exactly the ideal slice.  The
Hilbert tables grow that image degree by degree on `schemes.span_sweep`,
the one sweep (on the one `Echelon`) that also gives the Hilbert function
of the scheme; `submodule_slice` ranks a single degree from scratch by
Bareiss elimination, and it and its literal dense-matrix path are the
oracles the tests hold the sweep against.

The relative variant (forms over K[x_0]) drops dX_0: wedge subsets come
from {1..n} and the differential loses its X_0 component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from math import comb, gcd
from typing import Iterator, Sequence

from .exactla import integer_rows, rank_int
from .polyring import Exponents, HomogPoly, degree_slice
from .schemes import (
    FatPointScheme,
    HFTable,
    hf_table,
    hilbert_function,
    ideal_slice,
    initial_degree,
    jet_system,
    minimal_generators,
    regularity_index,
    span_sweep,
)

__all__ = [
    "WedgeBasis",
    "ExteriorForm",
    "OmegaHF",
    "wedge_with_differential",
    "submodule_slice",
    "omega_hf",
    "omega_hf_prefix",
    "top_form_hf",
    "koszul_check",
]


@dataclass(frozen=True)
class WedgeBasis:
    """Wedge monomials dX_T for the m-element subsets T of the index set."""

    n: int
    m: int
    relative: bool = False

    def __post_init__(self):
        top = self.n if self.relative else self.n + 1
        if not 0 <= self.m <= top:
            raise ValueError(f"form degree {self.m} out of range for n={self.n}")

    @property
    def indices(self) -> range:
        return range(1, self.n + 1) if self.relative else range(self.n + 1)

    @property
    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(combinations(self.indices, self.m))

    @property
    def size(self) -> int:
        top = self.n if self.relative else self.n + 1
        return comb(top, self.m)

    def position(self, subset: Sequence[int]) -> int:
        return self.subsets.index(tuple(subset))


class ExteriorForm:
    """Element of the free module Omega^m_S: one coefficient per wedge monomial.

    All coefficient polynomials share one degree; the total degree adds m
    because each dX_i has degree 1.
    """

    __slots__ = ("basis", "coeffs", "degree")

    def __init__(self, basis: WedgeBasis, coeffs: Sequence[HomogPoly]):
        coeffs = tuple(coeffs)
        if len(coeffs) != basis.size:
            raise ValueError("wrong number of wedge coefficients")
        degs = {c.degree for c in coeffs}
        if len(degs) > 1:
            raise ValueError("coefficients of mixed degree")
        self.basis = basis
        self.coeffs = coeffs
        self.degree = (degs.pop() if degs else 0) + basis.m

    def coefficient(self, subset: Sequence[int]) -> HomogPoly:
        return self.coeffs[self.basis.position(subset)]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def times_monomial(self, exps: Exponents) -> "ExteriorForm":
        return ExteriorForm(self.basis, [c.times_monomial(exps) for c in self.coeffs])

    def coeff_vector(self) -> list[Fraction]:
        vec: list[Fraction] = []
        for c in self.coeffs:
            vec.extend(c.coeff_vector())
        return vec


def _insertion_sign(i: int, subset: Sequence[int]) -> int:
    """Sign of sorting dX_i ^ dX_{j_1} ^ ... with j's already increasing."""
    return -1 if sum(1 for j in subset if j < i) % 2 else 1


def wedge_with_differential(
    f: HomogPoly, subset: Sequence[int], relative: bool = False
) -> ExteriorForm:
    """dF ^ dX_J expanded over the sorted wedge basis, signs included."""
    n = f.nvars - 1
    J = tuple(subset)
    if any(a >= b for a, b in zip(J, J[1:])):
        raise ValueError("wedge subset must be strictly increasing")
    basis = WedgeBasis(n, len(J) + 1, relative)
    if any(j not in basis.indices for j in J):
        raise ValueError(f"subset {J} not within the index range {basis.indices}")
    cdeg = f.degree - 1
    coeffs = [HomogPoly.zero(n + 1, cdeg) for _ in range(basis.size)]
    for i in basis.indices:
        if i in J:
            continue
        df = f.partial(i)
        if df.is_zero():
            continue
        T = tuple(sorted(J + (i,)))
        sign = _insertion_sign(i, J)
        pos = basis.position(T)
        coeffs[pos] = coeffs[pos] + (df if sign > 0 else -df)
    return ExteriorForm(basis, coeffs)


# --- generator pool with precomputed jets ---------------------------------

def _primitive_int_poly(f: HomogPoly) -> HomogPoly:
    lcm = 1
    for c in f.terms.values():
        d = c.denominator
        lcm = lcm // gcd(lcm, d) * d
    g = f.scale(lcm)
    content = 0
    for c in g.terms.values():
        content = gcd(content, abs(int(c)))
    if content > 1:
        g = g.scale(Fraction(1, content))
    return g


class _GeneratorJets:
    """Partial derivatives of the ideal generators with their jet vectors.

    pjets[(g, i)][k] is the (unscaled) jet value of dG_g/dX_i at the k-th
    jet functional of the scheme.  For the affine variables these are
    higher-order jets of G itself, so one jet evaluation against the
    fattened scheme covers them all; the X_0 derivative follows from the
    product rule applied to X_0 * dG/dX_0 = deg(G) G - sum X_i dG/dX_i,
    whose G term has vanishing jets.
    """

    def __init__(self, scheme: FatPointScheme):
        self.scheme = scheme
        self.js = jet_system(scheme)
        js_fat = jet_system(scheme.fattening())
        self.pos = self.js.pos
        self.gens: list[HomogPoly] = []
        for d in sorted(minimal_generators(scheme)):
            for g in minimal_generators(scheme)[d]:
                self.gens.append(_primitive_int_poly(g))
        self.pjets: dict[tuple[int, int], list[Fraction]] = {}
        n = scheme.n
        for gi, g in enumerate(self.gens):
            fat = js_fat.poly_jets(g)
            for i in range(1, n + 1):
                self.pjets[(gi, i)] = [
                    fat[js_fat.pos[(j, _bump(gamma, i - 1))]]
                    for (j, gamma) in self.js.index
                ]
            x0_part = [Fraction(0)] * self.js.dim
            for i in range(1, n + 1):
                shifted = self.js.shift_by_variable(self.pjets[(gi, i)], i)
                x0_part = [a - b for a, b in zip(x0_part, shifted)]
            self.pjets[(gi, 0)] = x0_part

    def product_jets(self, alpha: Exponents, gi: int, i: int) -> list[Fraction]:
        """Jet vector of X^alpha * dG_gi/dX_i by the Leibniz rule."""
        hjets = self.pjets[(gi, i)]
        out = []
        cache: dict[tuple[int, Exponents], Fraction] = {}
        for k, (j, gamma) in enumerate(self.js.index):
            total = Fraction(0)
            for gp in _sub_multiindices(gamma, alpha[1:]):
                key = (j, gp)
                mono_val = cache.get(key)
                if mono_val is None:
                    mono_val = self._monomial_jet(j, gp, alpha)
                    cache[key] = mono_val
                if mono_val:
                    rest = tuple(a - b for a, b in zip(gamma, gp))
                    hval = hjets[self.pos[(j, rest)]]
                    if hval:
                        binom = 1
                        for a, b in zip(gamma, gp):
                            binom *= comb(a, b)
                        total += binom * mono_val * hval
            out.append(total)
        return out

    def _monomial_jet(self, j: int, gamma: Exponents, alpha: Exponents) -> Fraction:
        aff = self.scheme.points[j].affine()
        val = Fraction(1)
        for t, g in enumerate(gamma):
            b = alpha[t + 1]
            if b < g:
                return Fraction(0)
            f = 1
            for k in range(g):
                f *= b - k
            val *= f
            if b - g:
                val *= aff[t] ** (b - g)
        return val


def _bump(gamma: Exponents, t: int) -> Exponents:
    return gamma[:t] + (gamma[t] + 1,) + gamma[t + 1 :]


def _sub_multiindices(gamma: Exponents, bound: Exponents):
    """All gamma' <= gamma componentwise with gamma' <= bound componentwise."""
    ranges = [range(min(g, b) + 1) for g, b in zip(gamma, bound)]
    out = [()]
    for r in ranges:
        out = [p + (v,) for p in out for v in r]
    return [tuple(p) for p in out]


@lru_cache(maxsize=None)
def _generator_jets(scheme: FatPointScheme) -> _GeneratorJets:
    return _GeneratorJets(scheme)


# --- submodule slices ------------------------------------------------------

def _check_form_degree(scheme: FatPointScheme, m: int, relative: bool) -> None:
    top = scheme.n if relative else scheme.n + 1
    if not 1 <= m <= top:
        kind = "relative" if relative else ""
        raise ValueError(f"{kind} form degree m={m} must lie in 1..{top}".strip())


def _differential_rows(
    scheme: FatPointScheme, m: int, d: int, relative: bool
) -> list[list[Fraction]]:
    """Quotient-coordinate rows spanning the image of dI * Omega^{m-1} in
    (S/I)^{C(*, m)} at total degree d."""
    n = scheme.n
    gj = _generator_jets(scheme)
    D = gj.js.dim
    basis = WedgeBasis(n, m, relative)
    tpos = {T: k for k, T in enumerate(basis.subsets)}
    indices = basis.indices
    rows: list[list[Fraction]] = []
    for gi, g in enumerate(gj.gens):
        delta = d - m - g.degree + 1
        if delta < 0:
            continue
        for J in combinations(indices, m - 1):
            for alpha in degree_slice(n, delta):
                row = [Fraction(0)] * (basis.size * D)
                nonzero = False
                for i in indices:
                    if i in J:
                        continue
                    jets = gj.product_jets(alpha, gi, i)
                    if not any(jets):
                        continue
                    nonzero = True
                    T = tuple(sorted(J + (i,)))
                    sign = _insertion_sign(i, J)
                    base = tpos[T] * D
                    for k, v in enumerate(jets):
                        if v:
                            row[base + k] += v if sign > 0 else -v
                if nonzero:
                    rows.append(row)
    return rows


def _slice_pool(scheme: FatPointScheme) -> list[HomogPoly]:
    """Redundant generating set: full ideal slices in degrees alpha..r+1."""
    pool = []
    for delta in range(initial_degree(scheme), regularity_index(scheme) + 2):
        pool.extend(ideal_slice(scheme, delta))
    return pool


def _dense_submodule_rank(
    scheme: FatPointScheme, m: int, d: int, relative: bool, pool: str
) -> int:
    """Literal-matrix rank of (I*Omega^m + dI*Omega^{m-1})_d; small inputs only."""
    n = scheme.n
    basis = WedgeBasis(n, m, relative)
    cdeg = d - m
    if cdeg < 0:
        return 0
    ncoef = comb(n + cdeg, n)
    rows: list[list[Fraction]] = []
    for k in range(basis.size):
        for v in ideal_slice(scheme, cdeg):
            row = [Fraction(0)] * (basis.size * ncoef)
            row[k * ncoef : (k + 1) * ncoef] = v.coeff_vector()
            rows.append(row)
    if pool == "minimal":
        gens = [g for dd in sorted(minimal_generators(scheme))
                for g in minimal_generators(scheme)[dd]]
    elif pool == "slices":
        gens = _slice_pool(scheme)
    else:
        raise ValueError(f"unknown pool {pool!r}")
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
    if not rows:
        return 0
    return rank_int(integer_rows(rows))


def submodule_slice(
    scheme: FatPointScheme,
    m: int,
    d: int,
    relative: bool = False,
    method: str = "fast",
    pool: str = "minimal",
) -> int:
    """dim of the degree-d slice of I_W*Omega^m + dI_W*Omega^{m-1}.

    The fast path counts the full ideal block directly and ranks only the
    differential rows in quotient (jet) coordinates; the dense path builds
    the literal coefficient matrix.
    """
    _check_form_degree(scheme, m, relative)
    if d - m < 0:
        return 0
    if method == "dense":
        return _dense_submodule_rank(scheme, m, d, relative, pool)
    if method != "fast":
        raise ValueError(f"unknown method {method!r}")
    basis = WedgeBasis(scheme.n, m, relative)
    cdeg = d - m
    block = basis.size * (comb(scheme.n + cdeg, scheme.n) - hilbert_function(scheme, cdeg))
    rows = _differential_rows(scheme, m, d, relative)
    extra = rank_int(integer_rows(rows)) if rows else 0
    return block + extra


# --- Hilbert functions of the form modules ---------------------------------

@dataclass(frozen=True)
class OmegaHF:
    """Hilbert data of a module of differential m-forms.

    cert_degree is the degree at which the first repeated value at or past
    r_W + m was observed, certifying the constant tail.
    """

    scheme: FatPointScheme
    m: int
    relative: bool
    table: HFTable
    cert_degree: int

    @property
    def ri(self) -> int:
        return self.table.stable_from

    @property
    def hp(self) -> int:
        return self.table.hp


def _lead_rank(scheme: FatPointScheme, m: int, relative: bool) -> int:
    return comb(scheme.n, m) if relative else comb(scheme.n + 1, m)


def _wedge_entering(
    scheme: FatPointScheme, m: int, relative: bool
) -> dict[int, list[list[Fraction | int]]]:
    """Jet rows of dG ^ dX_J over the generators G, keyed by the total
    degree m + deg(G) - 1 at which each enters the image of dI * Omega^{m-1}."""
    gj = _generator_jets(scheme)
    D = gj.js.dim
    basis = WedgeBasis(scheme.n, m, relative)
    tpos = {T: k for k, T in enumerate(basis.subsets)}
    entering: dict[int, list[list[Fraction | int]]] = {}
    for gi, g in enumerate(gj.gens):
        rows = entering.setdefault(m + g.degree - 1, [])
        for J in combinations(basis.indices, m - 1):
            row: list[Fraction | int] = [0] * (basis.size * D)
            for i in basis.indices:
                jets = gj.pjets[(gi, i)]
                if i in J or not any(jets):
                    continue
                base = tpos[tuple(sorted(J + (i,)))] * D
                sign = _insertion_sign(i, J)
                row[base : base + D] = jets if sign > 0 else [-v for v in jets]
            if any(row):
                rows.append(row)
    return entering


def _sweep(
    scheme: FatPointScheme,
    m: int,
    blocks: int,
    entering: dict[int, list[list[Fraction | int]]],
) -> Iterator[int]:
    """Yield blocks * HF_W(d - m) - dim R_d for d = 0, 1, 2, ..., where R_d
    is the span that `span_sweep` grows from the entering rows."""
    spans = span_sweep(jet_system(scheme), blocks, entering)
    return (blocks * hilbert_function(scheme, d - m) - rank for d, rank in enumerate(spans))


def _certified(
    scheme: FatPointScheme, m: int, relative: bool, values: Iterator[int]
) -> OmegaHF:
    """Scan `values` to certified stabilization.

    The scan stops at the first degree d >= r_W + m with HF(d) = HF(d+1):
    past r_W + m the function is nonincreasing and strictly decreases until
    it reaches its constant value, so a repeat certifies the tail.
    """
    r = regularity_index(scheme)
    cap = 2 * r + scheme.n + 2
    cap_extended = False
    table: list[int] = []
    for d, value in enumerate(values):
        table.append(value)
        if d - 1 >= r + m and value == table[d - 1]:
            return OmegaHF(scheme, m, relative, HFTable.from_values(table), d - 1)
        if d > cap and not cap_extended:
            cap = max(cap, regularity_index(scheme.fattening()) + scheme.n + 2)
            cap_extended = True
        if d > cap:
            raise RuntimeError(f"Omega^{m} Hilbert function did not stabilize below {cap}")
    raise AssertionError("the sweep is endless")


def _omega_values(scheme: FatPointScheme, m: int, relative: bool) -> Iterator[int]:
    _check_form_degree(scheme, m, relative)
    t = _lead_rank(scheme, m, relative)
    return _sweep(scheme, m, t, _wedge_entering(scheme, m, relative))


@lru_cache(maxsize=None)
def omega_hf(scheme: FatPointScheme, m: int, relative: bool = False) -> OmegaHF:
    """Hilbert function table of Omega^m, swept to certified stabilization."""
    return _certified(scheme, m, relative, _omega_values(scheme, m, relative))


def omega_hf_prefix(
    scheme: FatPointScheme, m: int, up_to: int, relative: bool = False
) -> list[int]:
    """Values HF_{Omega^m}(0..up_to) with no stabilization certificate."""
    return list(islice(_omega_values(scheme, m, relative), max(up_to + 1, 0)))


@lru_cache(maxsize=None)
def top_form_hf(scheme: FatPointScheme) -> OmegaHF:
    """Hilbert table of the top form module via the Jacobian-ideal quotient,
    an independent presentation from the wedge one:
    HF_{Omega^{n+1}}(i) = HF_{S/<all partials>}(i - n - 1).

    One block of jet coordinates, entered by the partials of each generator
    G at degree deg(G) + n, swept like the wedge presentation.
    """
    n = scheme.n
    gj = _generator_jets(scheme)
    entering: dict[int, list[list[Fraction]]] = {}
    for gi, g in enumerate(gj.gens):
        rows = entering.setdefault(g.degree + n, [])
        rows.extend(gj.pjets[(gi, i)] for i in range(n + 1))
    return _certified(scheme, n + 1, False, _sweep(scheme, n + 1, 1, entering))


def koszul_check(scheme: FatPointScheme, d: int) -> bool:
    """Alternating-sum identity forced by exactness of the Euler complex:

    sum_{m=1}^{n+1} (-1)^{m+1} HF_{Omega^m}(d)  =  HF_W(d) - [d = 0].
    """
    if d < 0:
        return True
    total = 0
    for m in range(1, scheme.n + 2):
        v = omega_hf(scheme, m).table.value(d)
        total += v if m % 2 else -v
    rhs = hilbert_function(scheme, d) - (1 if d == 0 else 0)
    return total == rhs
