#!/usr/bin/env python3
"""Sharpness survey: how often do the regularity bounds bite?

Samples random fat point schemes, compares every engine regularity index
with the bound chain, and tallies where the bounds are attained.  It draws
until it holds N distinct schemes, so a repeated draw is tallied once.

Usage: python scripts/survey_random_schemes.py [--count N] [--seed S]
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_scheme

from kahlerdiff.formulas import hp_bounds, ri_bounds
from kahlerdiff.kaehler import omega_hf
from kahlerdiff.schemes import regularity_index


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    drawn: dict = {}  # insertion-ordered, so the first draw of a scheme keeps its place
    draws = 0
    while len(drawn) < args.count:
        drawn[random_scheme(rng)] = None
        draws += 1
    attained = Counter()
    slack = Counter()
    print(f"{'n':>2} {'s':>2} {'deg':>4} {'r':>3}  ri(engine)      ri(bound)")
    for s in drawn:
        ris = [omega_hf(s, m).ri for m in range(1, s.n + 2)]
        bounds = [ri_bounds(s, m) for m in range(1, s.n + 2)]
        print(
            f"{s.n:>2} {s.s:>2} {s.degree():>4} {regularity_index(s):>3}  "
            f"{str(ris):<15} {bounds}"
        )
        for m, (ri, b) in enumerate(zip(ris, bounds), start=1):
            if ri == b:
                attained[m] += 1
            slack[m] += b - ri
        for m in range(1, s.n + 2):
            lo, hi = hp_bounds(s, m)
            hp = omega_hf(s, m).hp
            assert lo <= hp <= hi

    print(f"\n{len(drawn)} distinct schemes in {draws} draws")
    print("bound attained (by form degree):", dict(sorted(attained.items())))
    print("total slack (by form degree):  ", dict(sorted(slack.items())))


if __name__ == "__main__":
    main()
