"""Outside-in tracing of kahlerdiff's layers.

The benchmark wraps each layer's entry points from outside the program and
records one span per call: entry point, start, end, parent span and the
benchmark item it belongs to.  Spans stay in memory until the pass ends.
A layer's self time is the duration of its spans minus the time their
child spans cover.  Counters are read at the same boundaries, from the
arguments and results of the wrapped calls.

Nothing here is imported by kahlerdiff; an untraced pass never loads it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns

# (layer, module, attribute): the entry points wrapped for each layer.
# A name is wrapped in every kahlerdiff module namespace that binds it,
# since `from .exactla import rank_int` copies the binding.
LAYER_MAP = (
    ("jets", "schemes", "JetSystem.__init__"),
    ("jets", "schemes", "JetSystem.poly_jets"),
    ("jets", "schemes", "JetSystem.monomial_column"),
    ("jets", "schemes", "JetSystem.shift_by_variable"),
    ("ring", "schemes", "hf_table"),
    ("ideal", "schemes", "_slice_data"),
    ("ideal", "schemes", "minimal_generators"),
    ("rows", "kaehler", "_GeneratorJets.__init__"),
    ("rows", "kaehler", "_GeneratorJets.product_jets"),
    ("rows", "kaehler", "_differential_rows"),
    ("bareiss", "exactla", "rank_int"),
    ("bareiss", "exactla", "bareiss_pivots"),
    ("bareiss", "exactla", "integer_rows"),
    ("rref", "exactla", "rref"),
    ("rref", "exactla", "kernel_standard"),
    ("echelon", "exactla", "Echelon.insert"),
    ("scan", "kaehler", "omega_hf"),
    ("scan", "kaehler", "omega_hf_prefix"),
    ("scan", "kaehler", "top_form_hf"),
    ("formulas", "formulas", "p1_hf"),
    ("formulas", "formulas", "p1_ri"),
    ("formulas", "formulas", "hp_bounds"),
    ("formulas", "formulas", "hp_exact_cases"),
    ("formulas", "formulas", "ri_bounds"),
    ("formulas", "formulas", "is_general_position"),
    ("formulas", "formulas", "hyperplane_top_form"),
    ("formulas", "formulas", "conic_regularity_index"),
    ("formulas", "formulas", "conic_hf"),
    ("formulas", "formulas", "delta_h"),
    ("formulas", "formulas", "maximal_quotient_hf"),
    ("formulas", "formulas", "complex_inequality"),
    ("formulas", "formulas", "complex_inequality_rhs"),
    ("formulas", "formulas", "conjecture_probe"),
    ("formulas", "formulas", "reducedness_test"),
    ("verify", "verify", "load_config"),
    ("verify", "verify", "load_scheme"),
    ("verify", "verify", "run_suite"),
    ("cli", "cli", "main"),
    ("cli", "cli", "build_parser"),
    ("cli", "cli", "cmd_hf"),
    ("cli", "cli", "cmd_bounds"),
    ("cli", "cli", "cmd_verify"),
    ("cli", "cli", "_emit_tables"),
)

# Self-time metric of each layer; the three elimination routes are split.
TIMERS = {
    "jets": "jets.self_s",
    "ring": "ring.self_s",
    "ideal": "ideal.self_s",
    "rows": "rows.self_s",
    "bareiss": "elim.bareiss_s",
    "rref": "elim.rref_s",
    "echelon": "elim.echelon_s",
    "scan": "scan.self_s",
    "formulas": "formulas.self_s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}

# Boundary counters, each with the entry points that feed it.
_ELIM_IN = ("rank_int", "bareiss_pivots", "rref", "Echelon.insert")
_SCAN = ("omega_hf", "omega_hf_prefix", "top_form_hf")
COUNTERS = {
    "jets.calls": ("JetSystem.__init__", "JetSystem.poly_jets",
                   "JetSystem.monomial_column", "JetSystem.shift_by_variable"),
    "rows.offered": ("_differential_rows",),
    "rows.product_jets_calls": ("_GeneratorJets.product_jets",),
    "ideal.slices": ("_slice_data",),
    "ideal.generators": ("minimal_generators",),
    "elim.rows_in": _ELIM_IN,
    "elim.rank_out": _ELIM_IN,
    "elim.cells": _ELIM_IN,
    "elim.max_bits": _ELIM_IN,
    "elim.useful_ratio": _ELIM_IN,
    "scan.tables": _SCAN,
    "scan.degrees": _SCAN,
    "scan.overshoot": _SCAN,
}

ITEM = -1  # entry index of a benchmark item's root span
PROBE = -2  # entry index of a speed probe's span, which belongs to no layer


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _matrix_in(counts: dict, rows, ncols=None) -> None:
    """Count rows, cells and the widest entry offered to elimination.

    Read before the call: `rank_int` and `bareiss_pivots` consume their input.
    """
    if not rows:
        return
    width = len(rows[0]) if ncols is None else ncols
    counts["elim.rows_in"] += len(rows)
    counts["elim.cells"] += len(rows) * width
    bits = max((_bits(x) for row in rows for x in row if x), default=0)
    if bits > counts["elim.max_bits"]:
        counts["elim.max_bits"] = bits


def _table_out(counts: dict, degrees: int, values, stable_from: int) -> None:
    counts["scan.tables"] += 1
    counts["scan.degrees"] += degrees
    counts["scan.overshoot"] += len(values) - 1 - stable_from


def _count(counts: dict, attr: str, args, result, computed: bool) -> None:
    """Counters read at the boundary of entry point `attr` after a call."""
    if attr.startswith("JetSystem."):
        counts["jets.calls"] += 1
    elif attr == "_GeneratorJets.product_jets":
        counts["rows.product_jets_calls"] += 1
    elif attr == "_differential_rows":
        counts["rows.offered"] += len(result)
    elif attr in ("rank_int", "bareiss_pivots"):
        counts["elim.rank_out"] += result if attr == "rank_int" else result[0]
    elif attr == "rref":
        counts["elim.rank_out"] += len(result[1])
    elif attr == "Echelon.insert":
        counts["elim.rank_out"] += int(result)
    elif not computed:
        return
    elif attr == "_slice_data":
        counts["ideal.slices"] += 1
    elif attr == "minimal_generators":
        counts["ideal.generators"] += sum(len(g) for g in result.values())
    elif attr == "omega_hf":
        t = result.table
        _table_out(counts, len(t.values), t.values, t.stable_from)
    elif attr == "top_form_hf":
        t = result.table
        _table_out(counts, len(t.values) - result.m, t.values, t.stable_from)
    elif attr == "omega_hf_prefix":
        _table_out(counts, len(result), result, len(result) - 1)


def _count_before(counts: dict, attr: str, args) -> None:
    if attr in ("rank_int", "bareiss_pivots", "rref"):
        _matrix_in(counts, args[0])
    elif attr == "Echelon.insert":
        _matrix_in(counts, [args[1]], args[0].ncols)


class Tracer:
    """Wraps the entry points of LAYER_MAP and records spans while active."""

    def __init__(self):
        self.entries: list[tuple[str, str]] = []  # (layer, attribute) per index
        self.missing: list[str] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        del self.counts["elim.useful_ratio"]  # derived in metrics()
        self.caches: list = []
        self.active = False
        self.item = -1
        self._stack = [-1]
        self.entry = array("i")
        self.parent = array("q")
        self.owner = array("i")
        self.start = array("q")
        self.end = array("q")

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point found; note the ones that no longer exist."""
        for module in sorted({module for _, module, _ in LAYER_MAP}):
            try:
                importlib.import_module(f"kahlerdiff.{module}")
            except ImportError:
                pass
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "kahlerdiff" or name.startswith("kahlerdiff.")]
        for mod in modules:
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and value not in self.caches:
                    self.caches.append(value)
        for layer, module, attr in LAYER_MAP:
            mod = sys.modules.get(f"kahlerdiff.{module}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            idx = len(self.entries)
            self.entries.append((layer, attr))
            wrapped = self._wrap(idx, attr, fn)
            if owner_name:
                setattr(owner, meth, wrapped)
                continue
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, name, wrapped)

    def _wrap(self, idx: int, attr: str, fn):
        tracer = self
        counts = self.counts
        cached = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            _count_before(counts, attr, args)
            misses = cached().misses if cached else 0
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            computed = cached is None or cached().misses > misses
            _count(counts, attr, args, result, computed)
            return result

        return traced

    # -- spans -----------------------------------------------------------

    def _open(self, idx: int) -> int:
        sid = len(self.entry)
        self.entry.append(idx)
        self.parent.append(self._stack[-1])
        self.owner.append(self.item)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def run_item(self, number: int, fn):
        """Run one benchmark item under a root span shared by its children."""
        self.item = number
        self.active = True
        sid = self._open(ITEM)
        try:
            return fn()
        finally:
            self._close(sid)
            self.active = False
            self.item = -1

    def untimed(self, fn):
        """Run `fn` in a span of its own, so that no layer's self time
        includes it (the speed probe of speed.py, run from a signal handler).

        A signal that lands inside _open leaves the span arrays of unequal
        length; the probe then runs unrecorded, inside the open span.
        """
        if not self.active or len(self.entry) != len(self.end):
            return fn()
        sid = self._open(PROBE)
        try:
            return fn()
        finally:
            self._close(sid)

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Self time per layer, boundary counters and cache statistics.

        A metric whose entry points are all missing is left out.
        """
        nspans = len(self.entry)
        child = array("q", bytes(8 * nspans))
        for sid in range(nspans):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        layers = {layer for layer, _ in self.entries}
        out = {name: 0.0 for layer, name in TIMERS.items() if layer in layers}
        for sid in range(nspans):
            idx = self.entry[sid]
            if idx < 0:
                continue
            own = self.end[sid] - self.start[sid] - child[sid]
            out[TIMERS[self.entries[idx][0]]] += own / 1e9
        found = {attr for _, attr in self.entries}
        rows_in = self.counts["elim.rows_in"]
        counts = dict(self.counts, **{
            "elim.useful_ratio": self.counts["elim.rank_out"] / rows_in if rows_in else 0.0})
        out.update((name, counts[name]) for name, sources in COUNTERS.items()
                   if found.intersection(sources))
        infos = [c.cache_info() for c in self.caches]
        out["cache.hits"] = sum(i.hits for i in infos)
        out["cache.misses"] = sum(i.misses for i in infos)
        out["cache.entries"] = sum(i.currsize for i in infos)
        out["trace.spans"] = nspans - self.entry.tolist().count(PROBE)
        return out

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text: id, parent, item, layer,
        entry point, start and end in nanoseconds."""
        names = [layer + "\t" + attr for layer, attr in self.entries]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\titem\tlayer\tentry\tstart_ns\tend_ns\n")
            for sid in range(len(self.entry)):
                idx = self.entry[sid]
                name = {ITEM: "item\titem", PROBE: "probe\tprobe"}.get(idx) or names[idx]
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.owner[sid]}\t{name}\t"
                         f"{self.start[sid]}\t{self.end[sid]}\n")
