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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, gcd
from typing import Iterable, Iterator, Sequence

from .exactla import Echelon, bareiss_pivots, integer_rows, kernel_standard, rank_int
from .polyring import Exponents, HomogPoly, degree_slice

__all__ = [
    "CoordinateAssumptionError",
    "ProjPoint",
    "FatPointScheme",
    "HFTable",
    "hf_table",
    "hilbert_function",
    "ideal_slice",
    "regularity_index",
    "degree",
    "generator_degrees",
    "minimal_generators",
    "apply_coordinate_change",
    "scheme_from_json_dict",
    "scheme_to_json_dict",
]


class CoordinateAssumptionError(ValueError):
    """A support point lies on the hyperplane X_0 = 0."""


@dataclass(frozen=True)
class ProjPoint:
    """Projective point, normalized so its first nonzero coordinate is 1."""

    coords: tuple[Fraction, ...]

    def __init__(self, coords: Sequence[Fraction | int | str]):
        vals = tuple(Fraction(c) for c in coords)
        lead = next((c for c in vals if c), None)
        if lead is None:
            raise ValueError("the zero vector is not a projective point")
        object.__setattr__(self, "coords", tuple(c / lead for c in vals))

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
        mults = tuple(int(m) for m in mults)
        if n < 1:
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

    @property
    def s(self) -> int:
        return len(self.points)

    @property
    def reduced(self) -> bool:
        return all(m == 1 for m in self.mults)

    def degree(self) -> int:
        n = self.n
        return sum(comb(m + n - 1, n) for m in self.mults)

    def support(self) -> "FatPointScheme":
        return FatPointScheme(self.n, self.points, (1,) * self.s)

    def fattening(self, steps: int = 1) -> "FatPointScheme":
        return FatPointScheme(self.n, self.points, tuple(m + steps for m in self.mults))

    def thinning(self) -> "FatPointScheme | None":
        """Scheme with every multiplicity lowered by one; None if empty."""
        kept = [(p, m - 1) for p, m in zip(self.points, self.mults) if m > 1]
        if not kept:
            return None
        return FatPointScheme(self.n, [p for p, _ in kept], [m for _, m in kept])

    def with_mults(self, mults: Sequence[int]) -> "FatPointScheme":
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

def _jet_orders(n: int, max_order: int) -> list[Exponents]:
    """Multi-indices over the affine variables with |gamma| <= max_order."""
    out: list[Exponents] = []
    for total in range(max_order + 1):
        out.extend(sorted(_compositions(n, total)))
    return out


def _compositions(n: int, total: int) -> list[Exponents]:
    if n == 1:
        return [(total,)]
    result = []
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            result.append((first,) + rest)
    return result


def _falling(b: int, g: int) -> int:
    if b < g:
        return 0
    out = 1
    for k in range(g):
        out *= b - k
    return out


class JetSystem:
    """The jet functionals of a scheme, with integer-scaled evaluation.

    Functional (j, gamma) sends F to the gamma-partial (in the affine
    variables X_1..X_n) of F evaluated at P_j.  Scaled by
    q_j^{|gamma|} * (Q/q_j)^{d - beta_0} per monomial, values are integers
    and the scaled column of X_0*F coincides with the column of F.  The
    unscaled jets, on which `shift_by_variable` acts, are what `span_sweep`
    grows degree by degree.
    """

    def __init__(self, scheme: FatPointScheme):
        self.scheme = scheme
        n = scheme.n
        self.all_integral = True
        self.qs: list[int] = []
        self.ints: list[tuple[int, ...]] = []
        for p in scheme.points:
            aff = p.affine()
            q = 1
            for c in aff:
                q = q // gcd(q, c.denominator) * c.denominator
            self.qs.append(q)
            self.ints.append(tuple(int(c * q) for c in aff))
            if q != 1:
                self.all_integral = False
        self.Q = 1
        for q in self.qs:
            self.Q *= q
        self.index: list[tuple[int, Exponents]] = []
        for j, m in enumerate(scheme.mults):
            for gamma in _jet_orders(n, m - 1):
                self.index.append((j, gamma))
        self.dim = len(self.index)
        self.pos = {key: k for k, key in enumerate(self.index)}
        assert self.dim == scheme.degree()

    def monomial_column(self, beta: Exponents, d: int) -> list[int]:
        """Scaled values of every functional on the monomial X^beta."""
        col = []
        for j, gamma in self.index:
            col.append(self._scaled_value(j, gamma, beta, d))
        return col

    def _scaled_value(self, j: int, gamma: Exponents, beta: Exponents, d: int) -> int:
        a = self.ints[j]
        q = self.qs[j]
        val = 1
        for i, g in enumerate(gamma):
            b = beta[i + 1]
            if b < g:
                return 0
            val *= _falling(b, g) * a[i] ** (b - g)
        if q != 1:
            val *= q ** sum(gamma)
        if self.Q != q:
            val *= (self.Q // q) ** (d - beta[0])
        return val

    def poly_jets(self, f: HomogPoly) -> list[Fraction]:
        """Unscaled jet vector of a polynomial (rational values)."""
        int_path = self.all_integral and all(
            c.denominator == 1 for c in f.terms.values()
        )
        terms = (
            [(beta, int(c)) for beta, c in f.terms.items()]
            if int_path
            else list(f.terms.items())
        )
        out = []
        for j, gamma in self.index:
            aff = self.ints[j] if int_path else self.scheme.points[j].affine()
            total = 0 if int_path else Fraction(0)
            for beta, coeff in terms:
                val = coeff
                ok = True
                for i, g in enumerate(gamma):
                    b = beta[i + 1]
                    if b < g:
                        ok = False
                        break
                    val *= _falling(b, g)
                    if b - g:
                        val *= aff[i] ** (b - g)
                if ok:
                    total += val
            out.append(Fraction(total) if int_path else total)
        return out

    def shift_by_variable(self, vec: Sequence[Fraction], i: int) -> list[Fraction]:
        """Jet vector of X_i * H from the jet vector of H (a sparse linear map).

        For the affine variables, d^gamma(X_i H) = p_i d^gamma H +
        gamma_i d^(gamma - e_i) H at the point; X_0 acts as the identity.
        """
        if i == 0:
            return list(vec)
        out = []
        for k, (j, gamma) in enumerate(self.index):
            p = self.scheme.points[j].affine()[i - 1]
            val = p * vec[k]
            g = gamma[i - 1]
            if g:
                lower = gamma[: i - 1] + (g - 1,) + gamma[i:]
                val += g * vec[self.pos[(j, lower)]]
            out.append(val)
        return out


@lru_cache(maxsize=None)
def jet_system(scheme: FatPointScheme) -> JetSystem:
    return JetSystem(scheme)


def span_sweep(
    js: JetSystem, blocks: int, entering: dict[int, list[list[Fraction | int]]]
) -> Iterator[int]:
    """Yield dim R_d for d = 0, 1, 2, ...

    R_d is the span, in `blocks` copies of the jet coordinates of the
    scheme, of the rows entering at degrees <= d and all their monomial
    multiples.  X_0 acts as the identity on jets, so R_d = R_{d-1} +
    sum_i X_i R_{d-1} + (rows entering at d), and since X_i R_{d-2} lies in
    R_{d-1} only the rows new at degree d-1 need shifting: the echelon rows
    whose pivots first appeared there, copied when that degree ended.  They
    span a complement of R_{d-2} in R_{d-1}, because a vector of R_{d-2}
    that vanishes at all of its pivots is zero.
    """
    D = js.dim
    zero = [0] * D
    ech = Echelon(blocks * D)
    fresh: list[list[int]] = []
    seen: set[int] = set()
    for d in count():
        for row in fresh:
            parts = [row[k * D : (k + 1) * D] for k in range(blocks)]
            for i in range(1, js.scheme.n + 1):
                shifted: list[Fraction | int] = []
                for part in parts:
                    shifted.extend(js.shift_by_variable(part, i) if any(part) else zero)
                ech.insert(shifted)
        for row in entering.get(d, ()):
            ech.insert(row)
        yield ech.rank
        fresh = [list(row) for row, p in zip(ech.rows, ech.pivots) if p not in seen]
        seen = set(ech.pivots)


# --- Hilbert function -----------------------------------------------------

def _scan_cap(scheme: FatPointScheme) -> int:
    return sum(scheme.mults) + scheme.s + scheme.n


@lru_cache(maxsize=None)
def hf_table(scheme: FatPointScheme) -> HFTable:
    """Hilbert function of R_W, computed in one degree-by-degree sweep.

    HF_W(d) is the dimension of the span of the jets of all forms of
    degree d, which `span_sweep` grows from the jet of 1 at degree 0.  The
    sweep stops at the first degree where that span fills all deg(W) jet
    coordinates, which is exactly the regularity index.
    """
    js = jet_system(scheme)
    entering = {0: [js.monomial_column((0,) * (scheme.n + 1), 0)]}
    cap = _scan_cap(scheme)
    values = []
    for d, rank in enumerate(span_sweep(js, 1, entering)):
        values.append(rank)
        if rank == js.dim:
            return HFTable(tuple(values), d, js.dim)
        if d == cap:
            raise RuntimeError(
                f"Hilbert function failed to stabilize below the cap {cap}"
            )
    raise AssertionError("the sweep is endless")


def hilbert_function(scheme: FatPointScheme, d: int) -> int:
    """dim_K (R_W)_d = C(n+d, n) - dim (I_W)_d; zero for d < 0."""
    return hf_table(scheme).value(d)


def regularity_index(scheme: FatPointScheme) -> int:
    return hf_table(scheme).stable_from


def degree(scheme: FatPointScheme) -> int:
    return scheme.degree()


def initial_degree(scheme: FatPointScheme) -> int:
    """Least degree with a nonzero ideal slice."""
    table = hf_table(scheme)
    d = 0
    while comb(scheme.n + d, scheme.n) - table.value(d) == 0:
        d += 1
    return d


@lru_cache(maxsize=None)
def _slice_data(scheme: FatPointScheme, d: int) -> tuple[tuple[HomogPoly, ...], tuple[int, ...]]:
    """Kernel basis of the jet pairing in standard form, with free columns."""
    if d < 0:
        return (), ()
    n = scheme.n
    js = jet_system(scheme)
    monos = degree_slice(n, d)
    rows = [
        [js._scaled_value(j, gamma, beta, d) for beta in monos]
        for (j, gamma) in js.index
    ]
    basis, free_cols = kernel_standard(rows, ncols=len(monos))
    polys = tuple(HomogPoly.from_coeffs(n, d, vec) for vec in basis)
    expected = comb(n + d, n) - hf_table(scheme).value(d)
    assert len(polys) == expected
    return polys, tuple(free_cols)


def ideal_slice(scheme: FatPointScheme, d: int) -> tuple[HomogPoly, ...]:
    """Basis of the degree-d slice of the vanishing ideal of the scheme."""
    return _slice_data(scheme, d)[0]


@lru_cache(maxsize=None)
def minimal_generators(scheme: FatPointScheme) -> dict[int, tuple[HomogPoly, ...]]:
    """Minimal homogeneous generators of I_W, grouped by degree.

    Degrees up to r_W + 1 suffice to generate the whole ideal.  Per degree
    the variable multiples of the previous slice are expressed in the
    coordinates read off at the free columns of the standard-form basis;
    the basis vectors at non-pivot coordinates of that product matrix
    extend it to the full slice and are the new generators.
    """
    n = scheme.n
    r = regularity_index(scheme)
    alpha = initial_degree(scheme)
    gens: dict[int, tuple[HomogPoly, ...]] = {}
    for delta in range(alpha, r + 2):
        curr, free_cols = _slice_data(scheme, delta)
        if not curr:
            continue
        prev = ideal_slice(scheme, delta - 1)
        free_monos = [degree_slice(n, delta)[f] for f in free_cols]
        products = []
        for v in prev:
            for i in range(n + 1):
                shifted = v.times_monomial(tuple(int(k == i) for k in range(n + 1)))
                products.append(
                    [shifted.terms.get(mono, Fraction(0)) for mono in free_monos]
                )
        if products:
            _, pivot_cols = bareiss_pivots(integer_rows(products))
            covered = set(pivot_cols)
        else:
            covered = set()
        new = [curr[k] for k in range(len(curr)) if k not in covered]
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
    if rank_int(integer_rows(rows)) != size:
        raise ValueError("coordinate change matrix is singular")
    new_points = []
    for p in scheme.points:
        img = [sum(row[k] * p.coords[k] for k in range(size)) for row in rows]
        new_points.append(ProjPoint(img))
    return FatPointScheme(scheme.n, new_points, scheme.mults)


# --- JSON scheme files ----------------------------------------------------

def _json_int(value, what: str) -> int:
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


def scheme_from_json_dict(doc: dict) -> FatPointScheme:
    """Parse `{"n": 2, "points": [{"coords": ["1","1","0"], "mult": 2}, ...]}`.

    n and mult must be JSON integers, coordinates integers or strings.
    """
    try:
        n = _json_int(doc["n"], "n")
        entries = doc["points"]
        points = [ProjPoint([_json_coord(c) for c in e["coords"]]) for e in entries]
        mults = [_json_int(e.get("mult", 1), "mult") for e in entries]
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
