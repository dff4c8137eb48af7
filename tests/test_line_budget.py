"""The package source does not grow: the modules of `kahlerdiff` together
stay within a fixed line budget, so a change that adds code pays for it by
removing some elsewhere."""

from pathlib import Path

import kahlerdiff

PACKAGE = Path(kahlerdiff.__file__).parent
BUDGET = 2749  # lines of src/kahlerdiff/*.py, as `wc -l` counts them


def test_package_stays_within_its_line_budget():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    total = sum(path.read_bytes().count(b"\n") for path in modules)
    assert total <= BUDGET, f"src/kahlerdiff/*.py has {total} lines, over the budget of {BUDGET}"
