#!/usr/bin/env python3
"""Full form-module tables for equimultiple fat points on a conic.

Prints HF of the coordinate ring and of every form module, computed both
by the rank engine and by the closed formulas, for s points (1 : t : t^2)
on the parametrized conic X1^2 - X0 X2.

Usage: python scripts/conic_tables.py [--points S] [--mult NU]
Exits with status 1 if any table disagrees with its closed form.
"""

import argparse
import sys

from kahlerdiff.formulas import ConicSchemeSpec, conic_hf
from kahlerdiff.kaehler import omega_hf
from kahlerdiff.polyring import parse_poly
from kahlerdiff.schemes import FatPointScheme, ProjPoint, hf_table


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--points", type=int, default=6, help="number of points (>= 4)")
    parser.add_argument("--mult", type=int, default=2, help="common multiplicity")
    args = parser.parse_args()

    ts = [0] + [t for k in range(1, args.points) for t in (k, -k)]
    pts = [ProjPoint((1, t, t * t)) for t in ts[: args.points]]
    conic = parse_poly("X1^2 - X0*X2", 3)
    spec = ConicSchemeSpec(conic, pts, [args.mult] * args.points)
    w = spec.to_scheme()

    table = hf_table(w)
    width = max(omega_hf(w, m).ri for m in (1, 2, 3)) + 3
    status = 0
    print(f"s = {args.points}, multiplicity = {args.mult}, degree = {w.degree()}")
    print("HF_W      :", " ".join(str(table.value(d)) for d in range(width)))
    for m in (1, 2, 3):
        engine = omega_hf(w, m).table
        formula = conic_hf(spec, m)
        mismatch = [i for i in range(width) if engine.value(i) != formula.value(i)]
        print(
            f"Omega^{m}   :",
            " ".join(str(engine.value(d)) for d in range(width)),
            "(closed form agrees)" if not mismatch else f"MISMATCH at {mismatch}",
        )
        if mismatch:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
