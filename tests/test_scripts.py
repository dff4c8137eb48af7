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
