"""Golden-table verification suites over the shipped reference configurations.

Each check recomputes a stored table along every route the library offers
(rank engine, closed formulas, independent presentations) and compares
exactly.  The CLI's `verify-paper` subcommand and the acceptance tests
both run these.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from math import comb
from typing import Callable

from .formulas import (
    ConicSchemeSpec,
    P1SchemeSpec,
    conic_hf,
    conic_regularity_index,
    conjecture_probe,
    hyperplane_top_form,
    maximal_quotient_hf,
    p1_hf,
    p1_ri,
    ri_bounds,
)
from .kaehler import koszul_check, omega_hf, submodule_slice, top_form_hf
from .polyring import parse_poly
from .schemes import (
    FatPointScheme,
    _generator_jets,
    generator_degrees,
    hf_table,
    regularity_index,
    scheme_from_json_dict,
)

__all__ = ["CheckResult", "load_config", "run_suite", "SUITES"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    expected: str = ""
    computed: str = ""

    @classmethod
    def compare(cls, name: str, expected, computed) -> "CheckResult":
        return cls(name, expected == computed, repr(expected), repr(computed))


def load_config(label: str) -> dict:
    path = resources.files("kahlerdiff.data").joinpath(f"{label}.json")
    return json.loads(path.read_text())


def load_scheme(label: str) -> tuple[dict, FatPointScheme]:
    doc = load_config(label)
    return doc, scheme_from_json_dict(doc)


def _check_tables(out: list[CheckResult], label: str) -> tuple[dict, FatPointScheme]:
    """The golden HF_W and Omega^m tables of a shipped configuration, then
    its relative ones if it has any; returns its document and scheme."""
    doc, scheme = load_scheme(label)
    exp = doc["expected"]
    out.append(
        CheckResult.compare(f"{label}: HF", exp["hf"], hf_table(scheme).prefix(len(exp["hf"])))
    )
    for relative, key in ((False, "omega"), (True, "omega_relative")):
        for m_str, e in exp.get(key, {}).items():
            m = int(m_str)
            o = omega_hf(scheme, m, relative=relative)
            tag = f"{label}: omega^{m}{'(relative)' if relative else ''}"
            out.append(
                CheckResult.compare(f"{tag} table", e["values"], o.table.prefix(len(e["values"])))
            )
            out.append(CheckResult.compare(f"{tag} ri", e["ri"], o.ri))
    return doc, scheme


def _check_four_points(out: list[CheckResult]) -> None:
    doc, scheme = _check_tables(out, "four_points_p3")
    n = scheme.n
    top = top_form_hf(scheme)
    # (Omega^{n+1}_S)_d has dimension comb(d - 1, n)
    degrees = range(1, top.ri + 1)
    out.append(
        CheckResult.compare(
            "four_points_p3: top-form path agrees",
            [comb(d - 1, n) - submodule_slice(scheme, n + 1, d) for d in degrees],
            [top.table.value(d) for d in degrees],
        )
    )
    out.append(
        CheckResult.compare(
            "four_points_p3: bound chain attained",
            doc["expected"]["ri_bounds"],
            [ri_bounds(scheme, m) for m in range(1, 5)],
        )
    )
    out.append(
        CheckResult.compare(
            "four_points_p3: alternating sum",
            [True] * 8,
            [koszul_check(scheme, d) for d in range(8)],
        )
    )


def _check_line(out: list[CheckResult]) -> None:
    doc, scheme = _check_tables(out, "line_mults_123_p1")
    exp = doc["expected"]
    spec = P1SchemeSpec([p.coords[1] for p in scheme.points], scheme.mults)
    for m_str, e in exp["omega"].items():
        m = int(m_str)
        ft = p1_hf(spec, m)
        out.append(
            CheckResult.compare(
                f"line_mults_123_p1: closed form omega^{m}",
                e["values"],
                ft.prefix(len(e["values"])),
            )
        )
    relft = p1_hf(spec, 1, relative=True)
    e = exp["omega_relative"]["1"]
    out.append(
        CheckResult.compare(
            "line_mults_123_p1: closed form omega^1 (relative)",
            e["values"],
            relft.prefix(len(e["values"])),
        )
    )
    out.append(
        CheckResult.compare("line_mults_123_p1: ri closed form", 8, p1_ri(spec))
    )


def _check_six_point_pair(out: list[CheckResult]) -> None:
    for label in ("six_on_conic_p2", "six_on_two_lines_p2"):
        _check_tables(out, label)


def _check_nine_ten(out: list[CheckResult]) -> None:
    _, scheme = _check_tables(out, "nine_points_p2")
    _check_tables(out, "ten_points_p2")
    t1 = omega_hf(scheme, 1).table
    out.append(
        CheckResult.compare(
            "nine_points_p2: one-form dips and rises (14 > 13 < 14)",
            [14, 13, 14],
            [t1.value(4), t1.value(5), t1.value(6)],
        )
    )


def _check_fat_points(out: list[CheckResult]) -> None:
    doc, scheme = load_scheme("fat_points_p3")
    exp = doc["expected"]
    out.append(
        CheckResult.compare(
            "fat_points_p3: r of scheme and fattening",
            [exp["r_scheme"], exp["r_fattening"]],
            [regularity_index(scheme), _generator_jets(scheme).fattened_ri],
        )
    )
    out.append(
        CheckResult.compare(
            "fat_points_p3: omega ri",
            exp["omega_ri"],
            [omega_hf(scheme, m).ri for m in range(1, 5)],
        )
    )
    out.append(
        CheckResult.compare(
            "fat_points_p3: ri bounds",
            exp["ri_bounds"],
            [ri_bounds(scheme, m) for m in range(1, 5)],
        )
    )
    sub = doc["double_subscheme"]
    dbl = FatPointScheme(
        3,
        [scheme.points[i] for i in sub["point_indices"]],
        [sub["mult"]] * len(sub["point_indices"]),
    )
    out.append(
        CheckResult.compare(
            "fat_points_p3: double subscheme omega ri",
            sub["expected"]["omega_ri"],
            [omega_hf(dbl, m).ri for m in range(1, 5)],
        )
    )
    out.append(
        CheckResult.compare(
            "fat_points_p3: double subscheme bounds attained",
            sub["expected"]["ri_bounds"],
            [ri_bounds(dbl, m) for m in range(1, 5)],
        )
    )


def _check_conic8(out: list[CheckResult]) -> None:
    doc, base = load_scheme("conic8_p2")
    exp = doc["expected"]
    conic = parse_poly(doc["conic"], 3)
    out.append(
        CheckResult.compare(
            "conic8_p2: minimal generator degrees",
            {int(k): v for k, v in exp["generator_degrees"].items()},
            generator_degrees(base, regularity_index(base) + 1),
        )
    )
    for nu_str, hf_exp in exp["hf"].items():
        nu = int(nu_str)
        w = base.with_mults([nu] * base.s)
        out.append(
            CheckResult.compare(
                f"conic8_p2: HF of {nu}-fold scheme",
                hf_exp,
                hf_table(w).prefix(len(hf_exp)),
            )
        )
        out.append(
            CheckResult.compare(
                f"conic8_p2: r formula for {nu}-fold scheme",
                exp["r"][nu_str],
                conic_regularity_index([nu] * base.s),
            )
        )
    for m, key in ((3, "omega3"), (2, "omega2")):
        for nu_str, table_exp in exp[key].items():
            nu = int(nu_str)
            w = base.with_mults([nu] * base.s)
            spec = ConicSchemeSpec(conic, base.points, [nu] * base.s)
            engine = omega_hf(w, m).table
            formula = conic_hf(spec, m)
            out.append(
                CheckResult.compare(
                    f"conic8_p2: omega^{m} (nu={nu}) engine",
                    table_exp,
                    engine.prefix(len(table_exp)),
                )
            )
            out.append(
                CheckResult.compare(
                    f"conic8_p2: omega^{m} (nu={nu}) closed form",
                    table_exp,
                    formula.prefix(len(table_exp)),
                )
            )
    for nu_str, hp_exp in exp["omega2_hp"].items():
        nu = int(nu_str)
        w = base.with_mults([nu] * base.s)
        out.append(
            CheckResult.compare(
                f"conic8_p2: omega^2 HP vs (3v^2-v-2)s/2 (nu={nu})",
                hp_exp,
                (3 * nu * nu - nu - 2) * base.s // 2,
            )
        )
        out.append(
            CheckResult.compare(
                f"conic8_p2: omega^2 stabilized value (nu={nu})",
                hp_exp,
                omega_hf(w, 2).hp,
            )
        )
    # isomorphism route for 3-forms: HF(i) = HF_{S/(M*I_thin)}(i-3)
    for nu in (2, 3):
        w = base.with_mults([nu] * base.s)
        thin = w.thinning()
        engine = omega_hf(w, 3).table
        out.append(
            CheckResult.compare(
                f"conic8_p2: omega^3 quotient isomorphism (nu={nu})",
                [engine.value(i) for i in range(18)],
                [maximal_quotient_hf(thin, i - 3) for i in range(18)],
            )
        )


def _check_hyperplane(out: list[CheckResult]) -> None:
    doc, scheme = load_scheme("hyperplane7_p5")
    exp = doc["expected"]["top_form"]
    h = parse_poly(doc["hyperplane"], 6)
    table = hyperplane_top_form(scheme, h)
    out.append(
        CheckResult.compare(
            "hyperplane7_p5: top-form table",
            exp["values"],
            table.prefix(len(exp["values"])),
        )
    )
    out.append(CheckResult.compare("hyperplane7_p5: ri", exp["ri"], table.stable_from))
    out.append(CheckResult.compare("hyperplane7_p5: HP", exp["hp"], table.hp))
    engine = omega_hf(scheme, scheme.n + 1).table
    out.append(
        CheckResult.compare(
            "hyperplane7_p5: top-form table (engine)",
            exp["values"],
            engine.prefix(len(exp["values"])),
        )
    )
    out.append(CheckResult.compare("hyperplane7_p5: ri (engine)", exp["ri"], engine.stable_from))
    out.append(CheckResult.compare("hyperplane7_p5: HP (engine)", exp["hp"], engine.hp))


def _check_twisted_cubic(out: list[CheckResult]) -> None:
    doc, scheme = load_scheme("twisted_cubic10_p3")
    exp = doc["expected"]["conjecture"]
    report = conjecture_probe(scheme)
    out.append(
        CheckResult.compare(
            "twisted_cubic10_p3: top-form HP vs thinned degree",
            [exp["hp_top"], exp["hp_thinned"], True],
            [report.hp_top, report.hp_thinned, report.agree],
        )
    )


def run_core() -> list[CheckResult]:
    out: list[CheckResult] = []
    _check_four_points(out)
    _check_line(out)
    _check_six_point_pair(out)
    _check_nine_ten(out)
    _check_fat_points(out)
    return out


def run_conic() -> list[CheckResult]:
    out: list[CheckResult] = []
    _check_conic8(out)
    return out


def run_slow() -> list[CheckResult]:
    out: list[CheckResult] = []
    _check_hyperplane(out)
    _check_twisted_cubic(out)
    return out


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "core": run_core,
    "conic": run_conic,
    "slow": run_slow,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = SUITES[name]()
    if name == "slow":
        results = run_core() + run_conic() + results
    return results
