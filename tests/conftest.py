import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kahlerdiff.schemes import FatPointScheme, ProjPoint, apply_coordinate_change


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a child interpreter on `args`, with the package source first on
    its PYTHONPATH (pytest's `pythonpath` setting reaches only this
    process), capturing its output as text, with a 120 s timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def random_scheme(rng: random.Random, max_n=3, max_s=5, max_mult=3) -> FatPointScheme:
    """Scheme with affine coordinates in {-4..4}, distinct support points."""
    n = rng.randint(1, max_n)
    s = rng.randint(1, max_s)
    points = set()
    while len(points) < s:
        points.add(tuple(rng.randint(-4, 4) for _ in range(n)))
    mults = [rng.randint(1, max_mult) for _ in range(s)]
    return FatPointScheme(n, [ProjPoint((1,) + p) for p in sorted(points)], mults)


def off_integers(scheme: FatPointScheme) -> FatPointScheme:
    """Image of `scheme` under X_i -> X_i + X_0/(i+2), which leaves every
    point with a non-integral affine coordinate."""
    n = scheme.n
    shift = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    for i in range(1, n + 1):
        shift[i][0] = Fraction(1, i + 2)
    return apply_coordinate_change(scheme, shift)


def jets_by_partials(f, scheme: FatPointScheme, index) -> list[Fraction]:
    """Jet vector of `f` at the functionals `index` of `scheme`: the
    gamma-partial of f, by `HomogPoly.partial`, evaluated at P_j."""
    out = []
    for j, gamma in index:
        g = f
        for i, e in enumerate(gamma, start=1):
            for _ in range(e):
                g = g.partial(i)
        out.append(g.evaluate(scheme.points[j].coords))
    return out


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def four_points_p3():
    pts = [(1, 9, 0, 0), (1, 6, 0, 1), (1, 2, 3, 3), (1, 9, 3, 5)]
    return FatPointScheme(3, [ProjPoint(p) for p in pts], [1, 1, 1, 1])


@pytest.fixture
def conic8_points():
    coords = [(1, 1, 0), (1, 3, 0), (1, 0, 1), (1, 4, 1),
              (1, 0, 3), (1, 1, 4), (1, 4, 3), (1, 3, 4)]
    return [ProjPoint(p) for p in coords]


@pytest.fixture
def double_origin_p2():
    return FatPointScheme(2, [ProjPoint((1, 0, 0))], [2])
