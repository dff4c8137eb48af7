"""Homogeneous polynomials in S = Q[X_0, ..., X_n].

Monomials are exponent tuples ordered degree-reverse-lexicographically;
no Groebner machinery is needed anywhere, the fixed order just makes
coefficient vectors and printed output deterministic.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Mapping, Sequence

Exponents = tuple[int, ...]


def monomial_key(exps: Exponents):
    """Sort key for degree-reverse-lexicographic order (ascending)."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, unsorted."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def degree_slice(n: int, degree: int) -> tuple[Exponents, ...]:
    """The C(n+degree, n) monomials of S_degree in descending canonical order."""
    if degree < 0:
        return ()
    monos = sorted(monomials_of_degree(n + 1, degree), key=monomial_key, reverse=True)
    assert len(monos) == comb(n + degree, n)
    return tuple(monos)


class HomogPoly:
    """Immutable homogeneous polynomial; zero terms are never stored."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: Mapping[Exponents, Fraction]):
        clean = {}
        for exps, coeff in terms.items():
            coeff = Fraction(coeff)
            if not coeff:
                continue
            if len(exps) != nvars or sum(exps) != degree:
                raise ValueError(f"term {exps} does not lie in degree {degree}")
            clean[tuple(exps)] = coeff
        self.nvars = nvars
        self.degree = degree
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HomogPoly":
        return cls(nvars, degree, {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "HomogPoly":
        exps = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, 1, {exps: Fraction(1)})

    @classmethod
    def from_coeffs(cls, n: int, degree: int, coeffs: Sequence[Fraction]) -> "HomogPoly":
        monos = degree_slice(n, degree)
        if len(coeffs) != len(monos):
            raise ValueError("coefficient vector has wrong length")
        return cls(n + 1, degree, dict(zip(monos, coeffs)))

    def coeff_vector(self) -> list[Fraction]:
        order = degree_slice(self.nvars - 1, self.degree)
        return [self.terms.get(m, Fraction(0)) for m in order]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree or self.nvars != other.nvars:
            raise ValueError("degree mismatch in sum of homogeneous polynomials")
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return HomogPoly(self.nvars, self.degree, terms)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.nvars, self.degree, {e: -c for e, c in self.terms.items()})

    def scale(self, factor) -> "HomogPoly":
        factor = Fraction(factor)
        return HomogPoly(self.nvars, self.degree, {e: c * factor for e, c in self.terms.items()})

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        if self.nvars != other.nvars:
            raise ValueError("different ambient rings")
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return HomogPoly(self.nvars, self.degree + other.degree, terms)

    def times_monomial(self, exps: Exponents) -> "HomogPoly":
        shift = tuple(exps)
        return HomogPoly(
            self.nvars,
            self.degree + sum(shift),
            {tuple(a + b for a, b in zip(e, shift)): c for e, c in self.terms.items()},
        )

    def partial(self, i: int) -> "HomogPoly":
        """Formal partial derivative with respect to X_i."""
        if not 0 <= i < self.nvars:
            raise IndexError(f"variable index {i} out of range")
        if self.degree == 0:
            return HomogPoly.zero(self.nvars, 0)
        terms: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e:
                newexps = exps[:i] + (e - 1,) + exps[i + 1 :]
                terms[newexps] = terms.get(newexps, Fraction(0)) + coeff * e
        return HomogPoly(self.nvars, self.degree - 1, terms)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong number of coordinates")
        pt = [Fraction(x) for x in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(pt, exps):
                if e:
                    val *= x**e
            total += val
        return total

    def __repr__(self):
        return f"HomogPoly({format_poly(self)!r})"


# --- text format: `3*X0^2 - 4*X0*X1 + X1^2` ------------------------------

_TERM_RE = re.compile(
    r"""(?P<sign>[+-])?\s*
        (?P<coeff>\d+(?:/\d+)?)?
        (?P<vars>(?:\s*\*?\s*X\d+(?:\^\d+)?)*)""",
    re.VERBOSE,
)
_VAR_RE = re.compile(r"X(\d+)(?:\^(\d+))?")


def parse_poly(text: str, nvars: int) -> HomogPoly:
    """Parse a homogeneous polynomial in X0..X{nvars-1} from text."""
    text = text.strip()
    if not text or text == "0":
        raise ValueError("cannot infer the degree of the zero polynomial")
    terms: dict[Exponents, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {text[pos:pos + 20]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms near {text[pos:pos + 20]!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if sign == "-":
            coeff = -coeff
        exps = [0] * nvars
        for vm in _VAR_RE.finditer(m.group("vars") or ""):
            idx = int(vm.group(1))
            if idx >= nvars:
                raise ValueError(f"variable X{idx} out of range (nvars={nvars})")
            exps[idx] += int(vm.group(2)) if vm.group(2) else 1
        if m.group("coeff") is None and not any(exps):
            raise ValueError(f"empty term near {text[pos:pos + 20]!r}")
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
        pos = m.end()
        while pos < len(text) and text[pos].isspace():
            pos += 1
        first = False
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        raise ValueError(f"polynomial is not homogeneous (degrees {sorted(degrees)})")
    return HomogPoly(nvars, degrees.pop(), terms)


def format_poly(f: HomogPoly) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for exps in sorted(f.terms, key=monomial_key, reverse=True):
        coeff = f.terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"X{i}")
            elif e > 1:
                factors.append(f"X{i}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
