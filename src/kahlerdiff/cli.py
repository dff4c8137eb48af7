"""Command-line front end: scheme reports, bound summaries, table verification.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 coordinate-assumption violation (a support point on X_0 = 0).
"""

from __future__ import annotations

import argparse
import json
import sys

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
    hf_table,
    regularity_index,
    scheme_from_json_dict,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_COORDS = 3


def _load_scheme(path: str) -> FatPointScheme:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return scheme_from_json_dict(doc)


def _table_jobs(scheme: FatPointScheme, ms: list[int], relative: bool):
    jobs = []
    if not ms:
        jobs.append(("scheme", 0, False))
        top = scheme.n if relative else scheme.n + 1
        ms = list(range(1, top + 1))
    for m in ms:
        if m == 0:
            jobs.append(("scheme", 0, False))
        else:
            jobs.append(("omega", m, relative))
    return jobs


def _compute_table(scheme: FatPointScheme, job, max_degree):
    kind, m, relative = job
    name = "HF_W" if kind == "scheme" else f"Omega^{m}" + ("_rel" if relative else "")
    if kind == "scheme":
        table = hf_table(scheme)
        if max_degree is not None:
            return name, table.prefix(max_degree + 1), None, None
        return name, list(table.values), table.stable_from, table.hp
    if max_degree is not None:
        return name, omega_hf_prefix(scheme, m, max_degree, relative), None, None
    o = omega_hf(scheme, m, relative)
    return name, list(o.table.values), o.table.stable_from, o.table.hp, o.cert_degree


def _emit_tables(entries, fmt: str) -> str:
    lines = []
    if fmt == "text":
        for entry in entries:
            name, values = entry[0], entry[1]
            stable, hp = entry[2], entry[3]
            row = f"{name:<12}: " + " ".join(str(v) for v in values)
            if stable is not None:
                cert = f", certified at degree {entry[4]}" if len(entry) > 4 else ""
                row += f"   (stable from {stable}, HP {hp}{cert})"
            lines.append(row)
    elif fmt == "csv":
        for entry in entries:
            name, values = entry[0], entry[1]
            lines.append(f"# table={name}")
            lines.append("degree,value")
            for d, v in enumerate(values):
                lines.append(f"{d},{v}")
    elif fmt == "json":
        blobs = []
        for entry in entries:
            blob = {"table": entry[0], "values": entry[1]}
            if entry[2] is not None:
                blob["stable_from"] = entry[2]
                blob["hp"] = entry[3]
                if len(entry) > 4:
                    blob["certificate"] = {"degree": entry[4], "value": entry[3]}
            blobs.append(blob)
        return json.dumps({"tables": blobs}, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines)


def cmd_hf(args) -> int:
    scheme = _load_scheme(args.scheme)
    jobs = _table_jobs(scheme, args.m, args.relative)
    entries = [_compute_table(scheme, j, args.max_degree) for j in jobs]
    print(_emit_tables(entries, args.format))
    return EXIT_OK


def cmd_bounds(args) -> int:
    scheme = _load_scheme(args.scheme)
    n = scheme.n
    rows = []
    r = regularity_index(scheme)
    rows.append(("regularity index of the scheme", r, r, "attained"))
    for m in range(1, n + 2):
        o = omega_hf(scheme, m)
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
        "koszul_ok": all(koszul_check(scheme, d) for d in range(r + n + 3)),
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
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "passed": len(results) - len(failed),
                    "failed": len(failed),
                    "checks": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            **({} if r.passed else {"expected": r.expected, "computed": r.computed}),
                        }
                        for r in results
                    ],
                },
                indent=2,
            )
        )
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
    except CoordinateAssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COORDS
    except (json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
