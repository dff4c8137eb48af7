import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "kahlerdiff"]


def run_cli(*args):
    return subprocess.run(RUN + list(args), capture_output=True, text=True)


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
    ],
    ids=["float-mult", "bool-mult", "float-coordinate"],
)
def test_coerced_input_rejected(tmp_path, point):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps({"n": 2, "points": [point]}))
    res = run_cli("hf", str(path))
    assert res.returncode == 2
    assert "error" in res.stderr and res.stdout == ""


def test_integer_coordinates_accepted(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({"n": 1, "points": [{"coords": [1, 2], "mult": 2}]}))
    res = run_cli("hf", str(path), "--m", "0")
    assert res.returncode == 0
    assert res.stdout.startswith("HF_W")
