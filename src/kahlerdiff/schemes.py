"""Fat point schemes in P^n and their homogeneous vanishing ideals.

A fat point scheme is a formal sum m_1 P_1 + ... + m_s P_s of distinct
rational points with positive multiplicities.  Membership of a form F in
the ideal slice (I_W)_d is a linear condition in characteristic zero: all
partial derivatives of F of order < m_j must vanish at P_j.  Everything
here (Hilbert function, ideal slices, minimal generator counts) is a rank
or kernel computation for that family of jet functionals.

All points are required to satisfy coords[0] != 0: the whole theory of
eventual behaviour rests on x_0 being a non-zerodivisor, so schemes with
support meeting the hyperplane X_0 = 0 are rejected at construction.
"""

from __future__ import annotations

from bisect import bisect_left
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from math import comb, lcm, perm
from typing import Iterable, Sequence

from .exactla import Echelon, kernel_standard, rank
from .polyring import Exponents, HomogPoly, degree_slice, monomials_of_degree

__all__ = [
    "CoordinateAssumptionError",
    "StabilizationError",
    "ProjPoint",
    "FatPointScheme",
    "HFTable",
    "hf_table",
    "hilbert_function",
    "ideal_slice",
    "regularity_index",
    "generator_degrees",
    "minimal_generators",
    "apply_coordinate_change",
    "scheme_from_json_dict",
    "scheme_to_json_dict",
]

# Every per-scheme cache keeps the results of the last SCHEMES_KEPT schemes,
# so a session over many schemes holds a bounded amount; `verify-paper`
# comes back to a scheme at most two schemes later, so none is recomputed.
SCHEMES_KEPT = 8


class CoordinateAssumptionError(ValueError):
    """A support point lies on the hyperplane X_0 = 0."""


class StabilizationError(RuntimeError):
    """A Hilbert table did not stabilize where it provably must: the jet
    sweep stopped growing short of full (`_GeneratorJets`), or a form table
    took, at the fattening bound D* = max(r_W + m, r_{W+1} + m - 1), a
    value other than its Hilbert polynomial from local lengths
    (`kaehler.hp_local`).  Each means a fault in the engine, not a hard
    input."""


@dataclass(frozen=True)
class ProjPoint:
    """Projective point, normalized so its first nonzero coordinate is 1."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[Fraction | int | str]):
        if any(isinstance(c, (bool, float)) for c in coords):
            raise ValueError(f"coordinates must be exact (int, Fraction or str), got {list(coords)}")
        vals = tuple(Fraction(c) for c in coords)
        lead = next((c for c in vals if c), None)
        if lead is None:
            raise ValueError("the zero vector is not a projective point")
        object.__setattr__(self, "coords", tuple(c / lead for c in vals))
        object.__setattr__(self, "_hash", hash(self.coords))  # a Fraction hash costs an inverse

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def affine(self) -> tuple[Fraction, ...]:
        if not self.coords[0]:
            raise CoordinateAssumptionError(f"point {self} lies on X_0 = 0")
        return self.coords[1:]

    def __str__(self):
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class FatPointScheme:
    """W = m_1 P_1 + ... + m_s P_s with distinct P_j, all off X_0 = 0."""

    n: int
    points: tuple[ProjPoint, ...]
    mults: tuple[int, ...]

    def __init__(self, n: int, points: Sequence[ProjPoint], mults: Sequence[int]):
        points = tuple(points)
        mults = tuple(_strict_int(m, "a multiplicity") for m in mults)
        if _strict_int(n, "the ambient dimension") < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not points:
            raise ValueError("a scheme needs at least one point")
        if len(points) != len(mults):
            raise ValueError("points and multiplicities differ in length")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if any(p.n != n for p in points):
            raise ValueError("point dimension does not match the scheme")
        for p in points:
            if not p.coords[0]:
                raise CoordinateAssumptionError(
                    f"support point {p} lies on X_0 = 0; apply a coordinate "
                    "change that moves the support off that hyperplane first"
                )
        if len(set(points)) != len(points):
            raise ValueError("support points must be pairwise distinct")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "mults", mults)
        # every cache is keyed by the scheme, so hash it once
        object.__setattr__(self, "_hash", hash((n, points, mults)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def s(self) -> int:
        return len(self.points)

    @property
    def reduced(self) -> bool:
        return all(m == 1 for m in self.mults)

    def degree(self) -> int:
        n = self.n
        return sum(comb(m + n - 1, n) for m in self.mults)

    def fattening(self, steps: int = 1) -> "FatPointScheme":
        return FatPointScheme(self.n, self.points, tuple(m + steps for m in self.mults))

    def thinning(self) -> "FatPointScheme | None":
        """Scheme with every multiplicity lowered by one; None if empty."""
        kept = [(p, m - 1) for p, m in zip(self.points, self.mults) if m > 1]
        if not kept:
            return None
        return FatPointScheme(self.n, [p for p, _ in kept], [m for _, m in kept])

    def with_mults(self, mults: Sequence[int]) -> "FatPointScheme":
        """The scheme on these points with new multiplicities, one a point;
        a point of multiplicity 0 is dropped."""
        if len(mults) != self.s or any(_strict_int(m, "a multiplicity") < 0 for m in mults):
            raise ValueError(f"need {self.s} nonnegative multiplicities, got {list(mults)}")
        kept = [(p, m) for p, m in zip(self.points, mults) if m > 0]
        if not kept:
            raise ValueError("all multiplicities vanished")
        return FatPointScheme(self.n, [p for p, _ in kept], [m for _, m in kept])


@dataclass(frozen=True)
class HFTable:
    """Eventually constant integer sequence with its stabilization data.

    values[d] is the function at degree d for 0 <= d < len(values);
    every degree >= stable_from takes the constant value hp.
    """

    values: tuple[int, ...]
    stable_from: int
    hp: int

    def __post_init__(self):
        if self.stable_from < 0 or self.stable_from > len(self.values):
            raise ValueError("stabilization degree outside the stored range")
        for i in range(self.stable_from, len(self.values)):
            if self.values[i] != self.hp:
                raise ValueError("values are not constant past stable_from")
        if 0 < self.stable_from <= len(self.values):
            if self.values[self.stable_from - 1] == self.hp:
                raise ValueError("stable_from is not minimal")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "HFTable":
        """Build a table from a sequence that has already stabilized."""
        vals = tuple(int(v) for v in values)
        if not vals:
            raise ValueError("empty sequence")
        hp = vals[-1]
        stable = len(vals) - 1
        while stable > 0 and vals[stable - 1] == hp:
            stable -= 1
        return cls(vals, stable, hp)

    def value(self, d: int) -> int:
        if d < 0:
            return 0
        if d < len(self.values):
            return self.values[d]
        return self.hp

    def prefix(self, length: int) -> list[int]:
        return [self.value(d) for d in range(length)]


# --- jet functionals ------------------------------------------------------

_Block = tuple[list[Exponents], list[list[tuple[int, int, int]]], list[list[int]]]
_JET_BLOCKS: dict[tuple[int, int], _Block] = {}


def _jet_block(n: int, nu: int) -> _Block:
    """One point's jet functionals with |gamma| <= nu, built once per (n, nu):
    the multi-indices gamma over the affine variables, by order and sorted
    within one, so order nu comes last; per affine variable t, the lowerings
    (k, gamma_t, position of gamma - e_t) in the block, and the positions
    among those of order nu of gamma + e_t, for the gamma of order nu - 1."""
    if (block := _JET_BLOCKS.get((n, nu))) is None:
        gammas = [g for total in range(nu + 1) for g in sorted(monomials_of_degree(n, total))]
        at = {g: k for k, g in enumerate(gammas)}
        lowering = [[(k, g[t], at[g[:t] + (g[t] - 1,) + g[t + 1 :]])
                     for k, g in enumerate(gammas) if g[t]] for t in range(n)]
        top = comb(nu + n - 1, n)
        raised = [[at[g[:t] + (g[t] + 1,) + g[t + 1 :]] - top for g in gammas if sum(g) == nu - 1]
                  for t in range(n)]
        block = _JET_BLOCKS[n, nu] = (gammas, lowering, raised)
    return block


class JetSystem:
    """The jet functionals of a scheme, evaluated exactly.

    Functional (j, gamma) sends F to the gamma-partial (in the affine
    variables X_1..X_n) of F evaluated at P_j.  Every P_j has first
    coordinate 1, so X_0 acts as the identity on jets.  The affine
    coordinates are stored once, as ints where they are integral and as
    Fractions otherwise, so on an integral scheme the jets of an integer
    polynomial are ints.  The functionals (`index`; `pos` inverts it when
    first read) run point by point, heaviest point first (`order`), each a
    `_jet_block`: echelons over these columns keep far smaller entries
    than in the order of the points (the Hilbert function of the shipped
    twisted cubic takes a quarter of the time).
    """

    def __init__(self, scheme: FatPointScheme):
        self.scheme = scheme
        self.coords: list[tuple[Fraction | int, ...]] = [
            tuple(int(c) if c.denominator == 1 else c for c in p.affine()) for p in scheme.points]
        self.order = sorted(range(scheme.s), key=lambda j: -scheme.mults[j])
        # X_i on jet vectors times den, the common denominator of the i-th coordinates:
        # den * p_i on the diagonal, lowerings (k, den * gamma_i, position of gamma - e_i)
        self.denominators = [lcm(*(a[t].denominator for a in self.coords)) for t in range(scheme.n)]
        self.index: list[tuple[int, Exponents]] = []
        self._diagonal, self._lowering = [[] for _ in range(scheme.n)], [[] for _ in range(scheme.n)]
        self.dim = 0
        for j in self.order:
            self._append(j, scheme.mults[j] - 1, 0, self.dim)
        assert self.dim == scheme.degree()

    def fattened(self) -> JetSystem:
        """The system of the fattened scheme that the ideal-jet sweep reads:
        these functionals, then each point's of order m_j, in `order`.  It
        extends these lists and checks no point again."""
        fat = copy(self)
        vars(fat).pop("pos", None)  # a `pos` read on this system is not the fattened one
        fat.scheme, fat.index = self.scheme.fattening(), self.index.copy()
        fat._diagonal = [diagonal.copy() for diagonal in self._diagonal]
        fat._lowering = [lowering.copy() for lowering in self._lowering]
        at = 0  # where P_j's block starts
        for j in self.order:
            top = comb(self.scheme.mults[j] + self.scheme.n - 1, self.scheme.n)
            fat._append(j, self.scheme.mults[j], top, at)
            at += top
        assert fat.dim == fat.scheme.degree()
        return fat

    def _append(self, j: int, nu: int, start: int, at: int) -> None:
        """Append P_j's `_jet_block(n, nu)` from position `start` on, the block starting at `at`."""
        gammas, lowering, _ = _jet_block(self.scheme.n, nu)
        shift = self.dim - start
        self.index += [(j, g) for g in gammas[start:]]
        self.dim = len(self.index)
        for t, den in enumerate(self.denominators):
            self._diagonal[t] += [int(den * self.coords[j][t])] * (len(gammas) - start)
            low = lowering[t][bisect_left(lowering[t], (start,)) :]
            self._lowering[t] += [(k + shift, den * g, q + at) for k, g, q in low]

    @cached_property
    def pos(self) -> dict[tuple[int, Exponents], int]:
        return {key: k for k, key in enumerate(self.index)}

    def value(self, j: int, gamma: Exponents, beta: Exponents) -> Fraction | int:
        """The gamma-partial of the monomial X^beta at P_j.  With
        `monomial_column` and `poly_jets` it is the direct evaluation route
        of the oracles (`kaehler.submodule_slice`, `tests/oracles.py`) and
        the tests; the sweep and the ideal slices shift jets instead."""
        a = self.coords[j]
        val = 1
        for i, g in enumerate(gamma):
            b = beta[i + 1]
            if b < g:
                return 0
            val *= perm(b, g) * a[i] ** (b - g)
        return val

    def monomial_column(self, beta: Exponents) -> list[Fraction | int]:
        """Values of every functional on the monomial X^beta."""
        return [self.value(j, gamma, beta) for j, gamma in self.index]

    def poly_jets(self, polys: Sequence[HomogPoly]) -> list[list[Fraction | int]]:
        """Jet vectors of several polynomials, such as the generators of one
        degree.  Each monomial that occurs in one of them is evaluated once,
        and its column is shared by all of them; nothing is kept after the
        call."""
        columns: dict[Exponents, list[Fraction | int]] = {}
        out = []
        for f in polys:
            vec: list[Fraction | int] = [0] * self.dim
            for beta, c in f.terms.items():
                col = columns.get(beta)
                if col is None:
                    col = columns[beta] = self.monomial_column(beta)
                if c.denominator == 1:
                    c = c.numerator
                vec = [a + c * x for a, x in zip(vec, col)]
            out.append(vec)
        return out

    def shift_by_variable(self, vec: Sequence[Fraction | int], i: int) -> list[Fraction | int]:
        """den_i times the jet vector of X_i * H, from the jet vector of H (a
        sparse linear map), with den_i = `denominators[i - 1]` the common
        denominator of the i-th coordinates of the points, so that an
        integer vector stays integral; the sweeps need only spans.

        For the affine variables, d^gamma(X_i H) = p_i d^gamma H +
        gamma_i d^(gamma - e_i) H at the point; X_0 acts as the identity.
        """
        if i == 0:
            return list(vec)
        out = [a * x for a, x in zip(self._diagonal[i - 1], vec)]
        for k, g, low in self._lowering[i - 1]:
            if vec[low]:
                out[k] += g * vec[low]
        return out


# --- the ideal-jet sweep, and the Hilbert function ------------------------

class _GeneratorJets:
    """The one jet sweep of a scheme W: the Hilbert function of W and the
    top-order jets of its vanishing ideal, degree by degree.

    H is the top-order block of the fattened scheme W+1, its index past
    W's: the functionals (j, gamma) with |gamma| = m_j.  J_delta, the span
    of the H-jets of the forms in (I_W)_delta, is the whole ideal data the form
    tables need: for F in I_W the first partials vanish to order m_j - 1 at
    P_j, and their jets on the top layer L (`layer`) of W, |gamma| = m_j - 1,
    are read off F's H-jets by Phi_1..Phi_n (dF/dX_i at (j, gamma) is F at
    (j, gamma + e_i), at `bumped[i - 1]` in H), and Phi_0 = -sum_i p_i Phi_i
    by the Euler relation.  H and L run point by point in the order of the
    jet system and are read off the points' `_jet_block`s.

    The sweep grows, for delta = 0, 1, 2, ..., the span V_delta of the jets
    on W+1 (`JetSystem.fattened`) of all forms of degree delta, from the jet
    of 1, in one echelon reduced from deg W on.  X_0 acts as the identity
    on jets, so V_delta = V_{delta-1} + sum_i X_i V_{delta-1}, and only the
    rows new at delta - 1 need shifting: they span a complement of
    V_{delta-2} in V_{delta-1} (a nonzero combination of them leads at one
    of their pivots, and no vector of V_{delta-2} does).  A row pivoting
    past W's columns vanishes on W, so it is the jet of an ideal element;
    these rows are a basis of J_delta.  new[delta] keeps, cut to H, the rows
    past W whose pivots first appeared at delta: they span a complement of
    J_{delta-1} in J_delta and, their batch cleaned, are zero at every
    other pivot of J_delta.  The rows pivoting on W's columns
    number HF_W(delta), and the others dim J_delta, kept in `jdims`.  The
    sweep ends where the echelon fills, at r_{W+1}, kept as `fattened_ri`
    (this is Buchberger-Moeller in jet form); since r_W <= r_{W+1}, `hf`
    holds HF_W as a whole table.  Once V_delta = V_{delta-1} the span never
    grows again, and the jets of a fat point scheme fill every coordinate,
    so a degree that adds no pivot short of full raises
    `StabilizationError`.
    """

    def __init__(self, scheme: FatPointScheme):
        n = scheme.n
        self.js = js = JetSystem(scheme)
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
        ech = Echelon(fat.dim, reduced_from=js.dim)
        ech.insert([0 if any(gamma) else 1 for _, gamma in fat.index])
        seen: set[int] = set()
        values: list[int] = []
        self.new: list[list[list[int]]] = []
        while True:
            fresh = [(p, row) for p, row in zip(ech.pivots, ech.rows) if p not in seen]
            if not fresh:
                raise StabilizationError(
                    "Hilbert function failed to stabilize: the jet span stopped "
                    f"growing at degree {len(values)}, short of its {ech.ncols} columns"
                )
            values.append(bisect_left(ech.pivots, js.dim))
            self.new.append([row[js.dim :] for p, row in fresh if p >= js.dim])
            if ech.rank == ech.ncols:
                break
            seen.update(p for p, _ in fresh)
            ech.insert_all(fat.shift_by_variable(row, i) for _, row in fresh for i in range(1, n + 1))
        r = values.index(js.dim)
        self.hf = HFTable(tuple(values[: r + 1]), r, js.dim)
        self.jdims = list(accumulate(map(len, self.new)))
        self.fattened_ri = len(self.new) - 1

    def jdim(self, delta: int) -> int:
        """dim J_delta = HF_{W+1}(delta) - HF_W(delta), constant from r_{W+1} on."""
        return self.jdims[min(delta, len(self.jdims) - 1)] if delta >= 0 else 0

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
        `kaehler.submodule_slice` independent of the shifts of the sweep."""
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


def hf_table(scheme: FatPointScheme) -> HFTable:
    """Hilbert function of R_W, read off the scheme's ideal-jet sweep.

    HF_W(d) is the dimension of the span of the jets of all forms of
    degree d, which the sweep (`_GeneratorJets`) counts in every degree
    through r_{W+1} >= r_W.  The table is stable from the first degree
    where that span fills all deg(W) jet coordinates, which is exactly the
    regularity index.
    """
    return _generator_jets(scheme).hf


def hilbert_function(scheme: FatPointScheme, d: int) -> int:
    """dim_K (R_W)_d = C(n+d, n) - dim (I_W)_d; zero for d < 0."""
    return hf_table(scheme).value(d)


def regularity_index(scheme: FatPointScheme) -> int:
    return hf_table(scheme).stable_from


def initial_degree(scheme: FatPointScheme) -> int:
    """Least degree with a nonzero ideal slice."""
    table = hf_table(scheme)
    d = 0
    while comb(scheme.n + d, scheme.n) - table.value(d) == 0:
        d += 1
    return d


@lru_cache(maxsize=SCHEMES_KEPT * 32)  # 32 slice degrees a scheme
def _slice_data(scheme: FatPointScheme, d: int) -> tuple[tuple[list[int], ...], tuple[int, ...]]:
    """The degree-d ideal slice as coefficient vectors over `degree_slice`,
    with the free columns that index them.

    The vectors are `kernel_standard`'s primitive integer basis of the jet
    pairing: vector k is positive at free column k and zero at the others.
    Column X^beta holds the jets of its affine monomial, from the jet of 1
    up: X_t times one of degree one less, by `shift_by_variable` divided
    by den_t.
    """
    if d < 0:
        return (), ()
    js = _generator_jets(scheme).js
    monos = degree_slice(scheme.n, d)
    jets = {(0,) * scheme.n: [0 if any(gamma) else 1 for _, gamma in js.index]}
    for b in sorted((beta[1:] for beta in monos), key=sum)[1:]:
        t = next(t for t, e in enumerate(b) if e)
        col = js.shift_by_variable(jets[b[:t] + (b[t] - 1,) + b[t + 1 :]], t + 1)
        den = js.denominators[t]  # 1 on an integral scheme
        jets[b] = col if den == 1 else [Fraction(x, den) for x in col]
    rows = list(zip(*(jets[beta[1:]] for beta in monos)))
    basis, free_cols = kernel_standard(rows, ncols=len(monos))
    assert len(basis) == comb(scheme.n + d, scheme.n) - hf_table(scheme).value(d)
    return tuple(basis), tuple(free_cols)


def ideal_slice(scheme: FatPointScheme, d: int) -> tuple[HomogPoly, ...]:
    """Basis of the degree-d slice of the vanishing ideal of the scheme, in
    standard form: member k has coefficient 1 at the k-th free monomial and
    0 at the other free monomials.  The library works on the integer
    vectors of `_slice_data`; the tests and the dense oracle call this."""
    vecs, free_cols = _slice_data(scheme, d)
    return tuple(
        HomogPoly.from_coeffs(scheme.n, d, [Fraction(x, v[f]) for x in v])
        for v, f in zip(vecs, free_cols)
    )


@lru_cache(maxsize=SCHEMES_KEPT)
def minimal_generators(scheme: FatPointScheme) -> dict[int, tuple[HomogPoly, ...]]:
    """Minimal homogeneous generators of I_W, grouped by degree, each as a
    primitive integer polynomial.

    Degrees up to r_W + 1 suffice to generate the whole ideal.  Per degree
    the variable multiples of the previous slice are expressed in the
    coordinates read off at the free columns of the slice basis and
    inserted into an `Echelon`, never reduced; the basis vectors at its
    non-pivot columns extend them to the full slice and are the new
    generators.  The pivot columns of a row space depend neither on the
    order nor on the scaling of its rows.
    """
    n = scheme.n
    r = regularity_index(scheme)
    alpha = initial_degree(scheme)
    gens: dict[int, tuple[HomogPoly, ...]] = {}
    for delta in range(alpha, r + 2):
        curr, free_cols = _slice_data(scheme, delta)
        prev = _slice_data(scheme, delta - 1)[0]
        monos = degree_slice(n, delta)
        where = {mono: k for k, mono in enumerate(degree_slice(n, delta - 1))}
        # lookups[i][c]: index of X^mono / X_i in degree delta - 1, for the
        # free monomial mono at c, or None when X_i does not divide it
        lookups = [
            [where[mono[:i] + (mono[i] - 1,) + mono[i + 1 :]] if mono[i] else None
             for mono in (monos[f] for f in free_cols)]
            for i in range(n + 1)
        ]
        ech = Echelon(len(free_cols), reduced_from=len(free_cols))
        for v, lookup in product(prev, lookups):
            if ech.rank == len(free_cols):
                break
            # coefficients of X_i * v at the free monomials
            ech.insert([0 if k is None else v[k] for k in lookup])
        covered = set(ech.pivots)
        new = [
            HomogPoly.from_coeffs(n, delta, curr[k])
            for k in range(len(curr)) if k not in covered
        ]
        if new:
            gens[delta] = tuple(new)
    return gens


def generator_degrees(scheme: FatPointScheme, up_to: int) -> dict[int, int]:
    """Number of minimal generators of I_W per degree, for degrees <= up_to.

    Generation in degrees <= r_W + 1 is guaranteed, so degrees beyond that
    bound contribute nothing.
    """
    alpha = initial_degree(scheme)
    if up_to < alpha:
        raise ValueError(f"up_to={up_to} is below the initial degree {alpha}")
    return {
        d: len(g) for d, g in minimal_generators(scheme).items() if d <= up_to
    }


def apply_coordinate_change(
    scheme: FatPointScheme, matrix: Sequence[Sequence[Fraction | int]]
) -> FatPointScheme:
    """Image of the scheme under an invertible linear change of coordinates.

    `matrix` acts on point coordinate vectors.  Raises if the matrix is
    singular or if an image point lands on X_0 = 0.
    """
    size = scheme.n + 1
    rows = [[Fraction(x) for x in row] for row in matrix]
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError(f"matrix must be {size}x{size}")
    if rank(rows) != size:
        raise ValueError("coordinate change matrix is singular")
    new_points = []
    for p in scheme.points:
        img = [sum(row[k] * p.coords[k] for k in range(size)) for row in rows]
        new_points.append(ProjPoint(img))
    return FatPointScheme(scheme.n, new_points, scheme.mults)


# --- JSON scheme files ----------------------------------------------------

def _strict_int(value, what: str) -> int:
    """`value` if it is an int and not a bool: nothing is coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_coord(value) -> Fraction:
    """A coordinate given exactly: an integer or a string such as "3/2".
    A JSON float is rejected, since it holds a binary fraction."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(
            f"coordinate {value!r} must be an integer or a string such as \"3/2\""
        )
    return Fraction(value)


def _json_coords(value) -> list[Fraction]:
    """The coordinates of a point: a JSON array, not a string or an object,
    whose characters or keys would be read one by one."""
    if not isinstance(value, list):
        raise ValueError(f"coords must be a JSON array, got {value!r}")
    return [_json_coord(c) for c in value]


def scheme_from_json_dict(doc: dict) -> FatPointScheme:
    """Parse `{"n": 2, "points": [{"coords": ["1","1","0"], "mult": 2}, ...]}`.

    n and mult must be JSON integers, coords a JSON array of integers or
    strings.
    """
    try:
        n = _strict_int(doc["n"], "n")
        entries = doc["points"]
        points = [ProjPoint(_json_coords(e["coords"])) for e in entries]
        mults = [_strict_int(e.get("mult", 1), "mult") for e in entries]
    except CoordinateAssumptionError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed scheme description: {exc}") from exc
    return FatPointScheme(n, points, mults)


def scheme_to_json_dict(scheme: FatPointScheme) -> dict:
    return {
        "n": scheme.n,
        "points": [
            {"coords": [str(c) for c in p.coords], "mult": m}
            for p, m in zip(scheme.points, scheme.mults)
        ],
    }
