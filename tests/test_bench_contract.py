"""The benchmark under benchmark/ reads this package from outside: it wraps
the entry points named in its tracing table and reads their arguments and
results.  These checks keep those names and shapes resolvable; they write
no file of the benchmark, and install its tracer only in a child process."""

import importlib
import importlib.util
import json
from fractions import Fraction

from kahlerdiff.exactla import Echelon
from kahlerdiff.kaehler import omega_hf, omega_hf_prefix, top_form_hf
from kahlerdiff.schemes import FatPointScheme, ProjPoint

from conftest import ROOT, run_python

TRACING = ROOT / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Names the tracing table still wraps that left the package with the Bareiss
# and rref eliminations, which are test oracles now; the tracer reports them
# absent and leaves out no metric, since `integer_rows` and `kernel_standard`
# still feed their timers.
GONE = {"exactla.rank_int", "exactla.bareiss_pivots", "exactla.rref"}


def test_every_layer_entry_point_resolves():
    missing = []
    for _layer, module, attr in _tracing().LAYER_MAP:
        target = importlib.import_module(f"kahlerdiff.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert sorted(missing) == sorted(GONE)


def test_the_tracer_reports_every_per_layer_metric():
    """The tracer leaves out, silently, a metric none of whose entry points
    resolves, so a renamed or moved entry point would drop a metric from
    the benchmark's report.  Installed in a child process, which keeps this
    one unwrapped, it reports every `per_layer` name of BENCHMARK.json but
    the two `trace.*` names that run.py adds from its untraced pass."""
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracing; "
            "tracer = tracing.Tracer(); tracer.install(); print(json.dumps(sorted(tracer.metrics())))")
    proc = run_python("-c", code, str(TRACING.parent))
    assert proc.returncode == 0, proc.stderr
    added_by_run = {"trace.overhead_s", "trace.base_wall_s"}
    assert sorted(declared - added_by_run - set(json.loads(proc.stdout))) == []


def test_echelon_insert_returns_bool():
    ech = Echelon(2)
    assert ech.insert([Fraction(1), Fraction(2)]) is True
    assert ech.insert([2, 4]) is False
    assert ech.ncols == 2


def test_result_shapes_read_by_the_tracer(capsys):
    s = FatPointScheme(2, [ProjPoint((1, 0, 0)), ProjPoint((1, 1, 2))], [2, 1])
    table = omega_hf(s, 1).table
    assert isinstance(table.values, tuple) and table.prefix(3) == list(table.values[:3])
    assert isinstance(table.stable_from, int) and isinstance(table.hp, int)
    assert top_form_hf(s).m == s.n + 1
    assert isinstance(omega_hf_prefix(s, 2, 4), list)
    assert capsys.readouterr().out == ""
