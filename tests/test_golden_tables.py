"""The pinned tables: every table in tests/data/golden_tables.json, written
by scripts/golden_tables.py, is the table the engine computes, value for
value, with its stabilization degree, Hilbert polynomial and, for the form
tables, certified degree.  A change that moves any of them fails here."""

import json

from kahlerdiff.kaehler import omega_hf
from kahlerdiff.schemes import hf_table, scheme_from_json_dict

from conftest import ROOT, run_python

GOLDEN = ROOT / "tests" / "data" / "golden_tables.json"


def entry_of(table) -> dict:
    return {"values": list(table.values), "stable_from": table.stable_from, "hp": table.hp}


def test_every_pinned_table_is_reproduced():
    schemes = json.loads(GOLDEN.read_text())["schemes"]
    assert len(schemes) == 96
    for pinned in schemes:
        s, label = scheme_from_json_dict(pinned["scheme"]), pinned["label"]
        assert entry_of(hf_table(s)) == pinned["hf"], label
        for key, relative, top in (("omega", False, s.n + 1), ("omega_relative", True, s.n)):
            assert list(pinned[key]) == [str(m) for m in range(1, top + 1)], label
            for m in range(1, top + 1):
                o = omega_hf(s, m, relative)
                computed = {**entry_of(o.table), "cert_degree": o.cert_degree}
                assert computed == pinned[key][str(m)], (label, key, m)


def test_the_script_writes_the_pinned_file(tmp_path):
    """Regenerating the pins, with every check the script makes, gives the
    committed file byte for byte."""
    out = tmp_path / "golden_tables.json"
    res = run_python(str(ROOT / "scripts" / "golden_tables.py"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == GOLDEN.read_bytes()
