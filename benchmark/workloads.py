"""Seeded inputs, items and correctness gates of the four workloads.

Every workload runs closed loop: one item at a time in a single process,
the next item starting when the previous one is certified.

* battery -- 234 small schemes from the criterion-9 distribution, every
  form module of each, the relative 1-forms and the top form.  Many small
  matrices, where Python overhead in row assembly dominates: the per-item
  latency workload.  The seed draws the coordinates; the shapes (n and the
  multiset of multiplicities) are fixed, three schemes of each, so that the
  work of a pass stays near constant from seed to seed.
* fat3 -- one scheme from the heavy tail of the same distribution (P^3,
  degree 26), every form module.  Few large matrices with wide entries,
  where fraction-free Bareiss elimination dominates.  A single scheme of
  this size costs 20-45 s depending on its coordinates, and even the point
  order moves its cost by a third, so the scheme is fixed: seeded draws
  would swamp any regression bound.
* probe -- the top-form probe on the first seven points of the shipped
  twisted-cubic scheme (degree 69).  Fraction RREF in the ideal data
  dominates; row assembly and Bareiss are almost bypassed.  It stands in
  for the full ten-point probe, which is too long to repeat.  Fixed input,
  for the same reason as fat3.
* golden -- `verify-paper --suite core` and `--suite conic` through the
  command-line entry point in one process.  The user-facing path, the only
  one that runs cli, verify and formulas, and the only one whose checks
  reuse the caches.  Its inputs are the shipped golden tables.

The seed is recorded with every result; only battery's inputs depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference"

# battery: every shape (n, multiset of multiplicities) of the criterion-9
# distribution up to these degrees, BATTERY_COPIES schemes of each.  The
# cost of a scheme hangs on its shape far more than on its coordinates (four
# reduced points in P^3 cost five times what one double point costs, at the
# same degree), so fixing the shapes keeps a pass's work near constant from
# seed to seed.  P^1 takes every shape; P^2 and P^3 stop where a pass would
# outgrow a run (a P^3 scheme of degree 5 costs ~0.5 s).
BATTERY_MAX_DEGREE = {1: 16, 2: 8, 3: 5}
BATTERY_COPIES = 3

# fat3: the first P^3 scheme of this degree drawn from the criterion-9
# distribution with this generator seed.
FAT3_DEGREE = 26
FAT3_DRAW_SEED = 6

PROBE_POINTS = 7


def _distinct_points(rng: random.Random, n: int, s: int) -> list[tuple[int, ...]]:
    points = set()
    while len(points) < s:
        points.add(tuple(rng.randint(-4, 4) for _ in range(n)))
    return sorted(points)


def criterion9_draw(rng: random.Random, max_n=3, max_s=5, max_mult=3):
    """One scheme of the criterion-9 distribution: n <= 3, s <= 5 distinct
    points with affine coordinates in -4..4, multiplicities <= 3.

    Returns (n, points, mults) with points as affine integer tuples.
    """
    n = rng.randint(1, max_n)
    s = rng.randint(1, max_s)
    points = _distinct_points(rng, n, s)
    return n, points, [rng.randint(1, max_mult) for _ in range(s)]


def shape_draw(rng: random.Random, n: int, shape) -> tuple:
    """A scheme of the criterion-9 distribution given its n and multiset of
    multiplicities: its points as in criterion9_draw, the multiplicities in
    random order."""
    points = _distinct_points(rng, n, len(shape))
    mults = list(shape)
    rng.shuffle(mults)
    return n, points, mults


def battery_shapes() -> list[tuple[int, tuple[int, ...]]]:
    return [
        (n, shape)
        for n, top in BATTERY_MAX_DEGREE.items()
        for s in range(1, 6)
        for shape in combinations_with_replacement((1, 2, 3), s)
        if _degree(n, shape) <= top
    ]


def _degree(n: int, mults) -> int:
    return sum(comb(m + n - 1, n) for m in mults)


def _scheme(n, points, mults):
    from kahlerdiff.schemes import FatPointScheme, ProjPoint

    return FatPointScheme(n, [ProjPoint((1,) + tuple(p)) for p in points], mults)


@dataclass
class Item:
    """One unit of closed-loop work: `run` computes, `check` gates its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    info: dict = field(default_factory=dict)


# --- battery and fat3: every form module of a scheme ----------------------

def _form_tables(scheme, relative_one: bool):
    from kahlerdiff.kaehler import omega_hf, top_form_hf

    omegas = {m: omega_hf(scheme, m) for m in range(1, scheme.n + 2)}
    if relative_one:
        omega_hf(scheme, 1, relative=True)
    return omegas, top_form_hf(scheme)


def _forms_agree(scheme, result) -> bool:
    """Alternating-sum identity in every scanned degree, and the two
    presentations of the top form module agree."""
    from kahlerdiff.kaehler import koszul_check

    omegas, top = result
    span = max(len(o.table.values) for o in [top, *omegas.values()]) + 2
    if not all(koszul_check(scheme, d) for d in range(span)):
        return False
    wedge = omegas[scheme.n + 1].table
    return wedge.prefix(span) == top.table.prefix(span) and wedge.hp == top.table.hp


def _scheme_item(label: str, scheme, relative_one: bool) -> Item:
    return Item(
        label,
        lambda: _form_tables(scheme, relative_one),
        lambda result: _forms_agree(scheme, result),
        {"n": scheme.n, "mults": list(scheme.mults), "degree": scheme.degree()},
    )


def battery(seed: int) -> list[Item]:
    rng = random.Random(seed)
    drawn = []
    for n, shape in battery_shapes():
        copies = []
        while len(copies) < BATTERY_COPIES:
            spec = shape_draw(rng, n, shape)
            if spec not in copies:  # a repeated scheme would be served from the caches
                copies.append(spec)
        drawn += copies
    rng.shuffle(drawn)
    return [
        _scheme_item(f"battery[{k}]", _scheme(*spec), relative_one=True)
        for k, spec in enumerate(drawn)
    ]


def fat3(seed: int) -> list[Item]:
    rng = random.Random(FAT3_DRAW_SEED)
    while True:
        n, points, mults = criterion9_draw(rng)
        if n == 3 and _degree(n, mults) == FAT3_DEGREE:
            break
    return [_scheme_item("fat3[0]", _scheme(n, points, mults), relative_one=False)]


# --- probe: top-form HP against the thinned degree ------------------------

def probe(seed: int) -> list[Item]:
    from kahlerdiff import formulas
    from kahlerdiff.schemes import FatPointScheme
    from kahlerdiff.verify import load_scheme

    _, full = load_scheme("twisted_cubic10_p3")
    scheme = FatPointScheme(full.n, full.points[:PROBE_POINTS], full.mults[:PROBE_POINTS])
    expected = json.loads((REFERENCE / "probe.json").read_text())

    def check(report) -> bool:
        return (report.hp_top == report.hp_thinned
                and [report.hp_top, report.hp_thinned]
                == [expected["hp_top"], expected["hp_thinned"]])

    return [Item(
        "probe[0]",
        lambda: formulas.conjecture_probe(scheme),  # looked up late, so traced
        check,
        {"n": scheme.n, "mults": list(scheme.mults), "degree": scheme.degree()},
    )]


# --- golden: verify-paper through the command line ------------------------

def _verify_paper(suite: str):
    from kahlerdiff.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-paper", "--suite", suite])
    return code, out.getvalue()


def golden(seed: int) -> list[Item]:
    import kahlerdiff.cli  # noqa: F401  (set-up includes importing the front end)

    items = []
    for suite in ("core", "conic"):
        reference = (REFERENCE / f"verify-{suite}.txt").read_text(encoding="utf-8")
        items.append(Item(
            f"golden[{suite}]",
            lambda suite=suite: _verify_paper(suite),
            lambda result, reference=reference: result == (0, reference),
            {"suite": suite},
        ))
    return items


BUILDERS = {"battery": battery, "fat3": fat3, "probe": probe, "golden": golden}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Item]:
    return BUILDERS[workload](seed)
