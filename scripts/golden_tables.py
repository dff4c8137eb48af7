#!/usr/bin/env python3
"""Pinned Hilbert tables: writes tests/data/golden_tables.json, which
tests/test_golden_tables.py holds the engine against.

The schemes are the shipped ones except hyperplane7_p5 and
twisted_cubic10_p3, whose tables take tens of seconds, and the first DRAWS
distinct `random_scheme` draws from seed SEED, each with its image under
`off_integers`.  For each it pins HF_W and every Omega^m table,
absolute and relative: values, stable_from, hp and, for the form tables,
cert_degree.

A pin is a regression check, not a proof, so every table is checked before
anything is written: HP_W = deg W, each form table's HP against `hp_local`,
and the alternating-sum identity (`koszul_check`) at every degree through
one past the last stored value.

Usage: python scripts/golden_tables.py [--out PATH]
Exits with status 1, writing nothing, if a check fails.
"""

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import off_integers, random_scheme

from kahlerdiff.kaehler import hp_local, koszul_check, omega_hf
from kahlerdiff.schemes import HFTable, hf_table, scheme_to_json_dict
from kahlerdiff.verify import load_scheme

SHIPPED = (
    "conic8_p2",
    "fat_points_p3",
    "four_points_p3",
    "line_mults_123_p1",
    "nine_points_p2",
    "six_on_conic_p2",
    "six_on_two_lines_p2",
    "ten_points_p2",
)
SEED, DRAWS = 1, 40
OUT = ROOT / "tests" / "data" / "golden_tables.json"


def pinned_schemes() -> list:
    """(label, scheme) pairs, in the order of the file."""
    bases = [(label, load_scheme(label)[1]) for label in SHIPPED]
    rng = random.Random(SEED)
    drawn: dict = {}  # insertion-ordered, so a repeated draw keeps its first place
    while len(drawn) < DRAWS:
        drawn.setdefault(random_scheme(rng), None)
    bases += [(f"random_scheme seed {SEED} #{k}", s) for k, s in enumerate(drawn)]
    return [pair for label, s in bases
            for pair in ((label, s), (f"{label} off_integers", off_integers(s)))]


def table_entry(table: HFTable) -> dict:
    return {"values": list(table.values), "stable_from": table.stable_from, "hp": table.hp}


def tables(scheme) -> dict:
    """HF_W and every form table of `scheme`, keyed as in the file."""
    forms = {}
    for key, relative, top in (("omega", False, scheme.n + 1), ("omega_relative", True, scheme.n)):
        forms[key] = {}
        for m in range(1, top + 1):
            o = omega_hf(scheme, m, relative)
            forms[key][str(m)] = {**table_entry(o.table), "cert_degree": o.cert_degree}
    return {"hf": table_entry(hf_table(scheme)), **forms}


def failed_checks(scheme, pinned: dict) -> list[str]:
    bad = []
    if pinned["hf"]["hp"] != scheme.degree():
        bad.append("HP_W is not deg W")
    for key, relative in (("omega", False), ("omega_relative", True)):
        for m, entry in pinned[key].items():
            if entry["hp"] != hp_local(scheme, int(m), relative):
                bad.append(f"{key} {m}: HP is not hp_local")
    last = max(len(entry["values"]) for entry in pinned["omega"].values())
    bad += [f"koszul_check fails at d = {d}" for d in range(last + 1)
            if not koszul_check(scheme, d)]
    return bad


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=OUT, help="file to write")
    args = parser.parse_args()

    lines, status = [], 0
    for label, scheme in pinned_schemes():
        pinned = tables(scheme)
        for problem in failed_checks(scheme, pinned):
            print(f"{label}: {problem}", file=sys.stderr)
            status = 1
        entry = {"label": label, "scheme": scheme_to_json_dict(scheme), **pinned}
        lines.append(json.dumps(entry, separators=(",", ":")))
    if status:
        return status
    args.out.write_text('{"schemes": [\n' + ",\n".join(lines) + "\n]}\n")
    print(f"{len(lines)} schemes pinned in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
