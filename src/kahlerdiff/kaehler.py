"""Modules of differential m-forms of the coordinate ring of a fat point
scheme, via the presentation

    Omega^m  ~=  Omega^m_S / (I_W * Omega^m_S  +  dI_W ^ Omega^{m-1}_S)

where Omega^m_S is free on the wedge monomials dX_{i_1} ^ ... ^ dX_{i_m}.
The ideal-multiple part fills a full block of known dimension, so the rank
is computed in quotient coordinates: each coefficient polynomial is
replaced by its jet vector on the scheme, whose kernel is exactly the
ideal.  Modulo I_W * Omega^m_S, A dF = d(AF) - F dA is d(AF), so in degree
d the differential part is {dF ^ dX_J : F in (I_W)_{d-m+1}}, and the first
partials of an ideal element F are fixed by its top-order jets, those of
order m_j at P_j.

One ideal-jet sweep per scheme (`_GeneratorJets`) grows J_delta, the span
of those jets over (I_W)_delta, and yields HF_W, r_W and r_{W+1}.  One
generator, `_form_values`, feeds every table: it maps the rows new in J
into one `Echelon` per table.  A table is read through the fattening bound
D* = max(r_W + m, r_{W+1} + m - 1), where its value must be `hp_local`,
the Hilbert polynomial from local lengths.  `schemes.hf_table` runs
`span_sweep` on W alone, the independent route the checks hold the form
tables against.  `submodule_slice`, the oracle the tests hold the sweep
against, ranks a single degree from scratch, in one `exactla.rank` batch,
with rows built from the polynomial minimal generators and the Leibniz
rule.

The relative variant (forms over K[x_0]) drops dX_0: wedge subsets come
from {1..n} and the differential loses its X_0 component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate, combinations, count, islice, product
from math import comb, lcm
from typing import Iterator, Sequence

from .exactla import Echelon, rank
from .polyring import Exponents, HomogPoly, degree_slice
from .schemes import (
    SCHEMES_KEPT,
    FatPointScheme,
    HFTable,
    StabilizationError,
    _jet_block,
    hilbert_function,
    jet_system,
    minimal_generators,
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
    "hp_local",
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


# --- the ideal-jet sweep --------------------------------------------------

class _GeneratorJets:
    """Top-order jets of the vanishing ideal, degree by degree.

    H is the top-order block of the fattened scheme W+1, its index past
    W's: the functionals (j, gamma) with |gamma| = m_j.  J_delta, the span
    of the H-jets of the forms in (I_W)_delta, is the whole ideal data the form
    tables need: for F in I_W the first partials vanish to order m_j - 1 at
    P_j, and their jets on the top layer L (`layer`) of W, |gamma| = m_j - 1,
    are read off F's H-jets by Phi_1..Phi_n (dF/dX_i at (j, gamma) is F at
    (j, gamma + e_i), at `bumped[i - 1]` in H), and Phi_0 = -sum_i p_i Phi_i
    by the Euler relation.  H and L run point by point in the order of the
    jet system and are read off the points' `_jet_block`s.

    One `span_sweep` on `JetSystem.fattened` grows the jets of S_delta in
    one echelon, reduced from deg W on.  A row pivoting past W's columns
    vanishes on W, so it is the jet of an ideal element; these rows are the
    reduced basis of J_delta.  new[delta] keeps, cut to H, the rows past W
    whose pivots first appeared at delta: they span a complement of
    J_{delta-1} in J_delta.  The sweep ends where the echelon fills, at
    r_{W+1}, kept as `fattened_ri` (this is Buchberger-Moeller in jet form).
    The rows pivoting on W's columns number HF_W(delta), and the others dim
    J_delta, kept in `jdims`; since r_W <= r_{W+1}, `hf` holds HF_W as a
    table, and the form tables never run `hf_table`.
    """

    def __init__(self, scheme: FatPointScheme):
        n = scheme.n
        self.js = js = jet_system(scheme)
        fat = js.fattened()
        self.layer, self.bumped, at = [], [[] for _ in range(n)], 0  # at: P_j's start in H
        for j in js.order:
            gammas, _, raised = _jet_block(n, scheme.mults[j])
            top = comb(scheme.mults[j] + n - 1, n)  # where order m_j starts in the block
            self.layer += [(j, g) for g in gammas[top - len(raised[0]) : top]]
            for bumped, up in zip(self.bumped, raised):
                bumped += [at + k for k in up]
            at += len(gammas) - top
        self.width = len(self.layer)
        self.scale = scale = lcm(*js.denominators)
        self.layer_coords = [[int(scale * js.coords[j][t]) for j, _ in self.layer] for t in range(n)]
        self.hf, self.new = span_sweep(fat, Echelon(fat.dim, reduced_from=js.dim), js.dim)
        self.jdims = list(accumulate(map(len, self.new)))
        self.fattened_ri = len(self.new) - 1

    def partials(self, h: Sequence[int]) -> list[list[int]]:
        """scale * (Phi_0(h), ..., Phi_n(h)): the jets on the top layer of W
        of dF/dX_0, ..., dF/dX_n for an ideal element F with H-jets h, times
        the common denominator of the coordinates, so that they are integer
        vectors; a common factor changes no span."""
        parts = [[h[k] for k in bumped] for bumped in self.bumped]
        x0_part = [0] * self.width
        for coords, part in zip(self.layer_coords, parts):
            x0_part = [s - a * x for s, a, x in zip(x0_part, coords, part)]
        if self.scale != 1:
            parts = [[self.scale * x for x in part] for part in parts]
        return [x0_part, *parts]

    def product_jets(self, alpha: Exponents, hjets: Sequence[Fraction | int]) -> list[Fraction | int]:
        """Jet vector on the scheme of X^alpha * H from the jet vector of H,
        by the Leibniz rule, which keeps the per-degree oracle route of
        `submodule_slice` independent of the shifts of the sweeps."""
        out = []
        cache: dict[tuple[int, Exponents], Fraction | int] = {}
        for j, gamma in self.js.index:
            total = 0
            for gp in product(*(range(min(g, a) + 1) for g, a in zip(gamma, alpha[1:]))):
                key = (j, gp)
                mono_val = cache.get(key)
                if mono_val is None:
                    mono_val = cache[key] = self.js.value(j, gp, alpha)
                if mono_val:
                    rest = tuple(a - b for a, b in zip(gamma, gp))
                    hval = hjets[self.js.pos[(j, rest)]]
                    if hval:
                        binom = 1
                        for a, b in zip(gamma, gp):
                            binom *= comb(a, b)
                        total += binom * mono_val * hval
            out.append(total)
        return out


_generator_jets = lru_cache(maxsize=SCHEMES_KEPT)(_GeneratorJets)


@lru_cache(maxsize=SCHEMES_KEPT)
def _polynomial_partial_jets(
    scheme: FatPointScheme,
) -> list[tuple[int, list[list[Fraction | int]]]]:
    """(deg G, [jets of dG/dX_0, ..., dG/dX_n]) for each minimal generator
    G: the polynomial route of the per-degree oracle, which shares no ideal
    data with the sweep.  The partials are taken by polynomial calculus and
    their jets on the scheme come from one `poly_jets` call per generator.
    Cached per scheme, since a caller walks degrees (verify's top form)."""
    js = jet_system(scheme)
    return [
        (delta, js.poly_jets([g.partial(i) for i in range(scheme.n + 1)]))
        for delta, batch in sorted(minimal_generators(scheme).items())
        for g in batch
    ]


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
    (S/I)^{C(*, m)} at total degree d, from the polynomial generators."""
    n = scheme.n
    gj = _generator_jets(scheme)
    D = gj.js.dim
    basis = WedgeBasis(n, m, relative)
    tpos = {T: k for k, T in enumerate(basis.subsets)}
    indices = basis.indices
    rows: list[list[Fraction]] = []
    for degree, pjets in _polynomial_partial_jets(scheme):
        delta = d - m - degree + 1
        if delta < 0:
            continue
        for J in combinations(indices, m - 1):
            for alpha in degree_slice(n, delta):
                row = [0] * (basis.size * D)
                nonzero = False
                for i in indices:
                    if i in J:
                        continue
                    jets = gj.product_jets(alpha, pjets[i])
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


def submodule_slice(scheme: FatPointScheme, m: int, d: int, relative: bool = False) -> int:
    """dim of the degree-d slice of I_W*Omega^m + dI_W*Omega^{m-1}.

    The ideal block is counted directly, and only the differential rows
    are ranked, in quotient (jet) coordinates.
    """
    _check_form_degree(scheme, m, relative)
    if d - m < 0:
        return 0
    basis = WedgeBasis(scheme.n, m, relative)
    cdeg = d - m
    block = basis.size * (comb(scheme.n + cdeg, scheme.n) - hilbert_function(scheme, cdeg))
    return block + rank(_differential_rows(scheme, m, d, relative))


# --- Hilbert functions of the form modules ---------------------------------

@dataclass(frozen=True)
class OmegaHF:
    """Hilbert data of a module of differential m-forms.

    cert_degree is max(ri, r_W + m): the table is constant from there on,
    which its value at the fattening bound D*, `hp_local`, certifies.
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


def _form_values(scheme: FatPointScheme, m: int, relative: bool) -> Iterator[int]:
    """Yield C * HF_W(d - m) - dim R_d for d = 0, 1, 2, ..., with C the
    number of wedge monomials.

    R_d, the image of dI * Omega^{m-1} in degree d in C copies of the
    top-layer jet coordinates, is spanned by the rows dF ^ dX_J over the
    (m-1)-subsets J and h in J_{d-m+1}, with dF = sum_i Phi_i(h) dX_i, so
    its growth at d is spanned by the rows of the ideal-jet rows new at
    d - m + 1.  A degree with none inserts nothing, and once the echelon
    fills its columns no row is built: a full span cannot grow.  The blocks
    run in reverse order of their subsets, so those of the subsets with 0,
    which hold the dense Phi_0, come last, and the pivots, taken leftmost,
    land on the sparse Phi_i blocks; a permutation of columns keeps ranks.

    For m = 1 the rows are counted, not eliminated: Phi is injective on J,
    since Phi_1..Phi_n read every H-jet (each gamma' of order m_j is some
    gamma + e_t with (j, gamma) in L), and the rows new at a degree are zero
    at every earlier pivot, so HF(d) = C * HF_W(d - 1) - dim J_d."""
    basis = WedgeBasis(scheme.n, m, relative)
    blocks = basis.size
    gj = _generator_jets(scheme)
    hf, new, jdims = gj.hf, gj.new, gj.jdims
    if m == 1:
        for d in count():
            yield blocks * hf.value(d - 1) - jdims[min(d, len(jdims) - 1)]
    w = gj.width
    tpos = {T: slice(k * w, (k + 1) * w) for k, T in enumerate(reversed(basis.subsets))}
    terms = [
        [(i, tpos[tuple(sorted(J + (i,)))], _insertion_sign(i, J))
         for i in basis.indices if i not in J]
        for J in combinations(basis.indices, m - 1)
    ]
    ech = Echelon(blocks * w)
    for d in count():
        if 0 <= d - m + 1 < len(new) and ech.rank < ech.ncols:
            rows = []
            for h in new[d - m + 1]:
                parts = [part if any(part) else None for part in gj.partials(h)]
                for wedge in terms:
                    row = None
                    for i, cols, sign in wedge:
                        if parts[i]:
                            row = row or [0] * ech.ncols
                            row[cols] = parts[i] if sign > 0 else [-v for v in parts[i]]
                    if row:
                        rows.append(row)
            if rows:
                ech.insert_all(rows)
        yield blocks * hf.value(d - m) - ech.rank


_LOCAL_HP: dict[tuple[int, int, int, bool], int] = {}  # (n, nu, m, relative) -> one point's HP


def hp_local(scheme: FatPointScheme, m: int, relative: bool = False) -> int:
    """Hilbert polynomial of Omega^m from local lengths, with no sweep.
    Past D* the rows are Psi(H (x) Lambda^{m-1}), and Psi is block-diagonal
    by point, so HP = C * deg W - sum_j rank Psi_j.  In the basis dY_i =
    dX_i - p_i dX_0, dF = sum_i Phi_i(h) dY_i (Euler): Psi_j is the de Rham
    d: Sym^nu (x) Lambda^{m-1} -> Sym^{nu-1} (x) Lambda^m in n variables,
    plus, on absolute tables, its wedge with dX_0 from m - 1.  That complex
    is exact (E. Kunz, Kaehler Differentials, 1986), so d into Lambda^k has
    rank rho_k = sum_{i<k} (-1)^{k-1-i} C(n, i) C(nu+k-i+n-2, n-1), or 0 for k > n."""
    _check_form_degree(scheme, m, relative)
    n, total = scheme.n, 0
    for nu in scheme.mults:
        if (local := _LOCAL_HP.get((n, nu, m, relative))) is None:
            rho = sum((-1) ** (k - 1 - i) * comb(n, i) * comb(nu + k - i + n - 2, n - 1)
                      for k in ((m,) if relative else (m, m - 1)) if k <= n for i in range(k))
            local = comb(n if relative else n + 1, m) * comb(nu + n - 1, n) - rho
            _LOCAL_HP[n, nu, m, relative] = local
        total += local
    return total


def _one_entry_per_table(table):
    """Cache `table` under (scheme, m, relative), however a call spells
    them, keeping up to 16 tables a scheme (it has at most 2n + 1)."""
    cached = lru_cache(maxsize=SCHEMES_KEPT * 16)(table)
    @wraps(table)
    def keyed(scheme: FatPointScheme, m: int, relative: bool = False) -> OmegaHF:
        return cached(scheme, m, bool(relative))
    keyed.cache_info, keyed.cache_clear = cached.cache_info, cached.cache_clear
    return keyed


@_one_entry_per_table
def omega_hf(scheme: FatPointScheme, m: int, relative: bool = False) -> OmegaHF:
    """Hilbert function table of Omega^m, computed through the fattening
    bound D* = max(r_W + m, r_{W+1} + m - 1).  From D* on every row of J
    has gone in and HF_W(d - m) = deg W, so R_d is its limit and the table
    is constant; its value at D* must be `hp_local`.  The values are kept
    through cert_degree + 1, with cert_degree = max(ri, r_W + m)."""
    _check_form_degree(scheme, m, relative)
    gj = _generator_jets(scheme)
    r = gj.hf.stable_from
    d_star = max(r + m, gj.fattened_ri + m - 1)
    values = list(islice(_form_values(scheme, m, relative), d_star + 1))
    if values[d_star] != (hp := hp_local(scheme, m, relative)):
        raise StabilizationError(f"Omega^{m} Hilbert function stabilized at "
                                 f"{values[d_star]}, not at its local Hilbert polynomial {hp}")
    ri = next((d for d in range(d_star, 0, -1) if values[d - 1] != hp), 0)
    cert = max(ri, r + m)
    return OmegaHF(scheme, m, relative, HFTable((*values[: cert + 1], hp), ri, hp), cert)


def omega_hf_prefix(
    scheme: FatPointScheme, m: int, up_to: int, relative: bool = False
) -> list[int]:
    """Values HF_{Omega^m}(0..up_to) with no stabilization certificate."""
    _check_form_degree(scheme, m, relative)
    return list(islice(_form_values(scheme, m, relative), max(up_to + 1, 0)))


def top_form_hf(scheme: FatPointScheme) -> OmegaHF:
    """Hilbert table of the top form module Omega^{n+1}, which the Jacobian
    quotient also presents: HF(i) = HF_{S/(I + <all partials of I>)}(i - n - 1).
    Its wedge rows are the partials Phi_0(h), ..., Phi_n(h) up to sign, so
    it is the table of `omega_hf(scheme, n + 1)`, from the same cache."""
    return omega_hf(scheme, scheme.n + 1)


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
