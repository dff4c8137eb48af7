"""The runnable experiments under scripts/ start and finish cleanly."""

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize(
    "argv",
    [
        ["survey_random_schemes.py", "--count", "3", "--seed", "2"],
        ["conic_tables.py"],
    ],
)
def test_script_exits_zero(argv):
    res = run_python(str(ROOT / "scripts" / argv[0]), *argv[1:])
    assert res.returncode == 0, res.stderr
    assert res.stdout


def test_survey_counts_each_scheme_once():
    """Seed 183 draws its first scheme, a double point on P^1, again as its
    sixth: the survey holds six distinct schemes after seven draws and
    tallies each once."""
    res = run_python(str(ROOT / "scripts" / "survey_random_schemes.py"),
                     "--count", "6", "--seed", "183")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert "6 distinct schemes in 7 draws" in lines
    rows = lines[1 : lines.index("")]
    assert len(rows) == 6 and len(set(rows)) == 6
    assert sum(row.split()[:4] == ["1", "1", "2", "1"] for row in rows) == 1
