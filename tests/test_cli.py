import json
from pathlib import Path

import pytest

from conftest import run_python

PINNED_HF = Path(__file__).resolve().parent / "data" / "hf_stdout_line_mults_123_p1.json"


def run_cli(*args):
    return run_python("-m", "kahlerdiff", *args)


@pytest.fixture
def scheme_file(tmp_path):
    doc = {
        "n": 2,
        "points": [
            {"coords": ["1", "0", "0"], "mult": 2},
            {"coords": ["1", "1", "0"], "mult": 1},
        ],
    }
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_hf_text_output(scheme_file):
    res = run_cli("hf", scheme_file)
    assert res.returncode == 0
    assert "HF_W" in res.stdout
    assert "Omega^1" in res.stdout and "Omega^3" in res.stdout
    assert "stable from" in res.stdout


def test_hf_selected_m_and_relative(scheme_file):
    res = run_cli("hf", scheme_file, "--m", "1", "--relative")
    assert res.returncode == 0
    assert "Omega^1_rel" in res.stdout
    assert "Omega^2" not in res.stdout


def test_hf_csv_and_json(scheme_file):
    res = run_cli("hf", scheme_file, "--m", "1", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "# table=Omega^1"
    assert lines[1] == "degree,value"
    assert lines[2] == "0,0"

    res = run_cli("hf", scheme_file, "--format", "json")
    blob = json.loads(res.stdout)
    names = [t["table"] for t in blob["tables"]]
    assert names == ["HF_W", "Omega^1", "Omega^2", "Omega^3"]
    for t in blob["tables"]:
        assert "certificate" in t or t["table"] == "HF_W"


def test_hf_max_degree_omits_certificate(scheme_file):
    res = run_cli("hf", scheme_file, "--m", "1", "--max-degree", "4", "--format", "json")
    blob = json.loads(res.stdout)
    [table] = blob["tables"]
    assert len(table["values"]) == 5
    assert "certificate" not in table and "hp" not in table


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_negative_max_degree_rejected(scheme_file, fmt):
    res = run_cli("hf", scheme_file, "--max-degree", "-3", "--format", fmt)
    assert res.returncode == 2
    assert res.stdout == ""
    assert "--max-degree" in res.stderr


def test_output_determinism_across_thread_counts(scheme_file):
    base = run_cli("hf", scheme_file, "--format", "json").stdout
    rerun = run_cli("hf", scheme_file, "--format", "json").stdout
    assert base == rerun


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("hf", str(bad)).returncode == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2}))
    assert run_cli("hf", str(missing)).returncode == 2


def test_coordinate_violation_exit_code(tmp_path):
    doc = {"n": 2, "points": [{"coords": ["0", "1", "0"], "mult": 1}]}
    path = tmp_path / "onhyperplane.json"
    path.write_text(json.dumps(doc))
    res = run_cli("hf", str(path))
    assert res.returncode == 3
    assert "X_0" in res.stderr


def test_bounds_report(scheme_file):
    res = run_cli("bounds", scheme_file)
    assert res.returncode == 0
    assert "ri(Omega^1)" in res.stdout
    assert "HP(Omega^1) in [" in res.stdout
    assert "experimental" in res.stdout


def test_bounds_json(scheme_file):
    res = run_cli("bounds", scheme_file, "--format", "json")
    blob = json.loads(res.stdout)
    assert blob["reduced"] is False
    assert blob["koszul_ok"] is True
    assert blob["top_form_probe"]["experimental"] is True


def test_hf_on_shipped_configuration(tmp_path):
    from importlib import resources

    src = resources.files("kahlerdiff.data").joinpath("four_points_p3.json")
    path = tmp_path / "four.json"
    path.write_text(src.read_text())
    res = run_cli("hf", str(path), "--m", "1", "2", "3", "4", "--format", "json")
    assert res.returncode == 0
    blob = json.loads(res.stdout)
    tables = {t["table"]: t for t in blob["tables"]}
    assert tables["Omega^1"]["values"][:5] == [0, 4, 10, 4, 4]
    assert tables["Omega^2"]["values"][:6] == [0, 0, 6, 4, 0, 0]
    assert tables["Omega^3"]["values"][:7] == [0, 0, 0, 4, 1, 0, 0]
    assert tables["Omega^4"]["values"][:7] == [0, 0, 0, 0, 1, 0, 0]
    assert tables["Omega^4"]["stable_from"] == 5


def test_verify_paper_core():
    res = run_cli("verify-paper", "--suite", "core")
    assert res.returncode == 0
    assert "checks passed" in res.stdout
    assert "FAIL" not in res.stdout


def test_verify_paper_json_schema():
    res = run_cli("verify-paper", "--suite", "core", "--format", "json")
    blob = json.loads(res.stdout)
    assert blob["failed"] == 0
    assert blob["passed"] == len(blob["checks"])


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bounds_violation_exit_code(scheme_file, monkeypatch, capsys, fmt):
    from kahlerdiff import cli

    monkeypatch.setattr(cli, "hp_bounds", lambda scheme, m: (-2, -1))
    assert cli.main(["bounds", scheme_file, "--format", fmt]) == 1
    assert "VIOLATED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "point",
    [
        {"coords": ["1", "0", "0"], "mult": 2.7},
        {"coords": ["1", "0", "0"], "mult": True},
        {"coords": [1, 0.1, 0], "mult": 1},
        {"coords": "100", "mult": 1},
        {"coords": {"1": 0, "2": 0, "3": 0}, "mult": 1},
    ],
    ids=["float-mult", "bool-mult", "float-coordinate", "string-coords", "object-coords"],
)
def test_coerced_input_rejected(tmp_path, point):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"n": 2, "points": [point]}))
    res = run_cli("hf", str(path))
    assert res.returncode == 2
    assert "malformed scheme description" in res.stderr and res.stdout == ""


def test_integer_coordinates_accepted(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"n": 1, "points": [{"coords": [1, 2], "mult": 2}]}))
    res = run_cli("hf", str(path), "--m", "0")
    assert res.returncode == 0
    assert res.stdout.startswith("HF_W")


def _shipped(tmp_path, name):
    from importlib import resources

    path = tmp_path / name
    path.write_text(resources.files("kahlerdiff.data").joinpath(name).read_text())
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["hf", "--format", "text"], ["hf", "--format", "csv"], ["hf", "--format", "json"],
     ["bounds", "--format", "text"], ["bounds", "--format", "json"], ["hf", "--m", "1"]],
    ids=["hf-text", "hf-csv", "hf-json", "bounds-text", "bounds-json", "hf-m1"],
)
def test_scan_cap_exit_code(tmp_path, monkeypatch, capsys, argv):
    """The jet sweep that stops growing short of full, here with the shift
    stalled, exits 4 with one error line, in every output format, whether
    HF_W or a form table asked for it."""
    from kahlerdiff import cli, kaehler, schemes

    path = _shipped(tmp_path, "nine_points_p2.json")
    monkeypatch.setattr(
        schemes.JetSystem, "shift_by_variable", lambda self, vec, i: [0] * len(vec)
    )
    kaehler._generator_jets.cache_clear()
    kaehler.omega_hf.cache_clear()
    assert cli.main([argv[0], path, *argv[1:]]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: Hilbert function failed to stabilize")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_form_scan_cap_exit_code(tmp_path, monkeypatch, capsys, fmt):
    """The same exit code when a form table never repeats a value, so that
    its value at the fattening bound D* is D* itself, and when it settles
    on a plateau above its Hilbert polynomial from local lengths."""
    from itertools import chain, count, repeat

    from kahlerdiff import cli, kaehler
    from kahlerdiff.schemes import regularity_index

    path = _shipped(tmp_path, "nine_points_p2.json")
    scheme = cli._load_scheme(path)
    real = kaehler.omega_hf(scheme, 1)
    d_star = max(regularity_index(scheme) + 1, regularity_index(scheme.fattening()))
    assert (d_star, real.hp) == (11, 9)
    faults = {
        f"stabilized at {d_star}, not at its local Hilbert polynomial {real.hp}":
            lambda *args: count(),
        f"stabilized at {real.hp + 1}, not at its local Hilbert polynomial {real.hp}":
            lambda *args: chain(real.table.values[: real.ri], repeat(real.hp + 1)),
    }
    for message, values in faults.items():
        monkeypatch.setattr(kaehler, "_form_values", values)
        kaehler.omega_hf.cache_clear()
        assert cli.main(["hf", path, "--m", "1", "--format", fmt]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: Omega^1 Hilbert function {message}")
        assert err.count("\n") == 1


def test_bounds_checks_koszul_past_the_old_window(tmp_path, monkeypatch, capsys):
    """`bounds` checks the alternating-sum identity in every degree up to one
    past the last stabilization: a table wrong only past r + n + 2 turns
    koszul_ok false and exits 1."""
    from dataclasses import replace

    from kahlerdiff import cli, kaehler
    from kahlerdiff.schemes import HFTable

    path = _shipped(tmp_path, "nine_points_p2.json")
    real = kaehler.omega_hf
    wrong_at = 10

    def skewed(scheme, m, relative=False):
        o = real(scheme, m, relative)
        if m != 1 or relative:
            return o
        values = list(o.table.values)
        values[wrong_at] += 2
        return replace(o, table=HFTable.from_values(values))

    scheme = cli._load_scheme(path)
    r = cli.regularity_index(scheme)
    assert r + scheme.n + 2 < wrong_at < real(scheme, 1).ri
    assert skewed(scheme, 1).table.hp == real(scheme, 1).table.hp
    monkeypatch.setattr(kaehler, "omega_hf", skewed)
    monkeypatch.setattr(cli, "omega_hf", skewed)
    assert cli.main(["bounds", path, "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["koszul_ok"] is False
    assert all(b["status"] not in ("VIOLATED", "MISMATCH") for b in report["bounds"])


@pytest.mark.parametrize("argv", list(json.loads(PINNED_HF.read_text())))
def test_hf_stdout_pinned(capsys, argv):
    """`hf` stdout on a shipped scheme in every format, with and without
    --max-degree and --relative, byte for byte as recorded in tests/data."""
    from importlib import resources

    from kahlerdiff import cli

    expected = json.loads(PINNED_HF.read_text())[argv]
    path = resources.files("kahlerdiff.data").joinpath("line_mults_123_p1.json")
    with resources.as_file(path) as scheme:
        assert cli.main(["hf", str(scheme), *argv.split()]) == 0
    assert capsys.readouterr().out == expected
