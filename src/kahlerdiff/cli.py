"""Command-line front end: scheme reports, bound summaries, table verification.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 coordinate-assumption violation (a support point on X_0 = 0),
4 a Hilbert table that did not stabilize where it must: a jet sweep that
stopped growing short of full, or a form table whose value at the
fattening bound is not its Hilbert polynomial from local lengths (a fault).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .formulas import (
    conjecture_probe,
    hp_bounds,
    hp_exact_cases,
    is_general_position,
    reducedness_test,
    ri_bounds,
)
from .kaehler import koszul_check, omega_hf, omega_hf_prefix
from .schemes import (
    CoordinateAssumptionError,
    FatPointScheme,
    StabilizationError,
    hf_table,
    regularity_index,
    scheme_from_json_dict,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_COORDS = 3
EXIT_STABILIZATION = 4


def _load_scheme(path: str) -> FatPointScheme:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return scheme_from_json_dict(doc)


@dataclass(frozen=True)
class _Table:
    """One table of `hf` output.  stable_from and hp are None for a
    `--max-degree` prefix; cert_degree is None there and for HF_W."""

    name: str
    values: tuple[int, ...]
    stable_from: int | None = None
    hp: int | None = None
    cert_degree: int | None = None


def _tables(scheme: FatPointScheme, ms: list[int], relative: bool, max_degree) -> list[_Table]:
    """The tables of `hf`: HF_W for m = 0 and Omega^m otherwise, by default
    HF_W and every form module."""
    if not ms:
        ms = range((scheme.n if relative else scheme.n + 1) + 1)
    tables = []
    for m in ms:
        name = "HF_W" if m == 0 else f"Omega^{m}" + ("_rel" if relative else "")
        if max_degree is not None and m == 0:
            tables.append(_Table(name, tuple(hf_table(scheme).prefix(max_degree + 1))))
        elif max_degree is not None:
            tables.append(_Table(name, tuple(omega_hf_prefix(scheme, m, max_degree, relative))))
        elif m == 0:
            t = hf_table(scheme)
            tables.append(_Table(name, t.values, t.stable_from, t.hp))
        else:
            o = omega_hf(scheme, m, relative)
            tables.append(_Table(name, o.table.values, o.table.stable_from, o.table.hp, o.cert_degree))
    return tables


def _emit_tables(entries: list[_Table], fmt: str) -> str:
    lines = []
    if fmt == "text":
        for t in entries:
            row = f"{t.name:<12}: " + " ".join(str(v) for v in t.values)
            if t.stable_from is not None:
                cert = "" if t.cert_degree is None else f", certified at degree {t.cert_degree}"
                row += f"   (stable from {t.stable_from}, HP {t.hp}{cert})"
            lines.append(row)
    elif fmt == "csv":
        for t in entries:
            lines.append(f"# table={t.name}")
            lines.append("degree,value")
            for d, v in enumerate(t.values):
                lines.append(f"{d},{v}")
    elif fmt == "json":
        blobs = []
        for t in entries:
            blob = {"table": t.name, "values": list(t.values)}
            if t.stable_from is not None:
                blob["stable_from"] = t.stable_from
                blob["hp"] = t.hp
                if t.cert_degree is not None:
                    blob["certificate"] = {"degree": t.cert_degree, "value": t.hp}
            blobs.append(blob)
        return json.dumps({"tables": blobs}, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines)


def cmd_hf(args) -> int:
    if args.max_degree is not None and args.max_degree < 0:
        raise ValueError(f"--max-degree must be at least 0, got {args.max_degree}")
    scheme = _load_scheme(args.scheme)
    print(_emit_tables(_tables(scheme, args.m, args.relative, args.max_degree), args.format))
    return EXIT_OK


def cmd_bounds(args) -> int:
    scheme = _load_scheme(args.scheme)
    n = scheme.n
    rows = []
    r = regularity_index(scheme)
    rows.append(("regularity index of the scheme", r, r, "attained"))
    # every table is constant past its own ri, so the alternating-sum
    # identity holds in all degrees once it holds through last + 1
    last = r
    for m in range(1, n + 2):
        o = omega_hf(scheme, m)
        last = max(last, o.ri)
        bound = ri_bounds(scheme, m)
        kind = "reduced-case bound" if scheme.reduced else "fattening/general-position bound"
        rows.append(
            (f"ri(Omega^{m}) <= {bound} [{kind}]", bound, o.ri,
             "attained" if o.ri == bound else "satisfied")
        )
        lo, hi = hp_bounds(scheme, m)
        status = "inside" if lo <= o.hp <= hi else "VIOLATED"
        rows.append((f"HP(Omega^{m}) in [{lo}, {hi}]", (lo, hi), o.hp, status))
        exact = hp_exact_cases(scheme, m)
        if exact is not None:
            rows.append(
                (f"HP(Omega^{m}) closed form", exact, o.hp,
                 "match" if exact == o.hp else "MISMATCH")
            )
    report = {
        "general_position": is_general_position(scheme),
        "reduced": reducedness_test(scheme),
        "koszul_ok": all(koszul_check(scheme, d) for d in range(last + 2)),
    }
    probe = conjecture_probe(scheme)
    ok = report["koszul_ok"] and not any(
        st in ("VIOLATED", "MISMATCH") for *_, st in rows
    )
    if args.format == "json":
        blob = {
            "bounds": [
                {"statement": s, "bound": b, "engine": e, "status": st}
                for s, b, e, st in rows
            ],
            "reduced": report["reduced"],
            "general_position": report["general_position"],
            "koszul_ok": report["koszul_ok"],
            "top_form_probe": {
                "hp_top": probe.hp_top,
                "hp_thinned": probe.hp_thinned,
                "agree": probe.agree,
                "experimental": True,
            },
        }
        print(json.dumps(blob, indent=2))
    else:
        for s, _b, e, st in rows:
            print(f"{s:<55} engine={e:<6} {st}")
        print(f"{'support in general position':<55} {report['general_position']}")
        print(f"{'scheme reduced':<55} {report['reduced']}")
        print(f"{'alternating-sum identity (all degrees)':<55} {report['koszul_ok']}")
        print(
            f"{'top-form HP vs thinned degree (experimental probe)':<55} "
            f"hp_top={probe.hp_top} hp_thinned={probe.hp_thinned} agree={probe.agree}"
        )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        checks = [{"name": r.name, "passed": r.passed,
                   **({} if r.passed else {"expected": r.expected, "computed": r.computed})}
                  for r in results]
        print(json.dumps({"suite": args.suite, "passed": len(results) - len(failed),
                          "failed": len(failed), "checks": checks}, indent=2))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
            if not r.passed:
                print(f"      expected: {r.expected}")
                print(f"      computed: {r.computed}")
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerdiff",
        description="Hilbert functions of differential form modules of fat point schemes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hf = sub.add_parser("hf", help="Hilbert function tables for a scheme file")
    p_hf.add_argument("scheme", help="scheme description file (JSON)")
    p_hf.add_argument("--m", type=int, nargs="*", default=[],
                      help="form degrees (default: 0..n+1, 0 meaning the coordinate ring)")
    p_hf.add_argument("--relative", action="store_true",
                      help="forms over K[x_0] instead of K")
    p_hf.add_argument("--max-degree", type=int, default=None,
                      help="tabulate degrees 0..D without a stabilization certificate")
    p_hf.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_hf.set_defaults(func=cmd_hf)

    p_b = sub.add_parser("bounds", help="bound report for a scheme file")
    p_b.add_argument("scheme", help="scheme description file (JSON)")
    p_b.add_argument("--format", choices=("text", "json"), default="text")
    p_b.set_defaults(func=cmd_bounds)

    p_v = sub.add_parser("verify-paper", help="replay the golden verification tables")
    p_v.add_argument("--suite", choices=("core", "conic", "slow"), default="core")
    p_v.add_argument("--format", choices=("text", "json"), default="text")
    p_v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StabilizationError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CoordinateAssumptionError):  # a ValueError
            return EXIT_COORDS
        return EXIT_STABILIZATION if isinstance(exc, StabilizationError) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
