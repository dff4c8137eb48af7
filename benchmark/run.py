"""kahlerdiff benchmark: time to certified Hilbert tables, layer by layer.

    python3 benchmark/run.py --workload battery --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each exists): battery, fat3, probe,
golden.  Every pass of a workload runs in a fresh process with one thread
(KAHLER_THREADS=1), so module-level caches never carry over between passes.

--trace 0 measures the end-to-end metrics with tracing off.  Set-up is
measured in its own cold processes, started several times, and reported as
their median.  Whole passes run while the next one still fits in --seconds
(at least one).  Times are in reference seconds: wall time rescaled to a
fixed CPU speed by the probe in speed.py, because a shared machine's
speed drifts by a fifth to a half within seconds.  The wall times are printed
beside them.  wall_s and peak_rss_mb are medians over the passes, and each
item counts with its median time over the passes.

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced one, with the tracing overhead (traced minus
untraced wall_s) and its base.

Every item's output goes through a correctness gate.  The report prints
each metric by name with its unit and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when an
item failed its gate (failed_frac > 0) or a worker failed or ran past
the run's deadline of DEADLINE_S, 2 when the checkout holds no kahlerdiff
sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170  # a whole run, so that it ends within three minutes
T_START = time.perf_counter()

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "elim.max_bits":
        return "bits"
    if name == "elim.useful_ratio":
        return "ratio"
    return "count"


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, seed: int, *flags: str) -> tuple[dict, float]:
    """Run one worker process; return its result and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), KAHLER_THREADS="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, T_START + DEADLINE_S - t))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"run exceeded {DEADLINE_S} s in {cmd}") from exc
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1]), wall


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: at least (100 - p)% of samples lie at or above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def median_items(passes: list[dict]) -> list[float]:
    """Each item's median time over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for item in p["items"]:
            times.setdefault(item["label"], []).append(item["seconds"])
    return [statistics.median(t) for t in times.values()]


def _untraced(workload: str, seed: int, seconds: float) -> tuple[list[dict], dict]:
    start = time.perf_counter()
    _worker(workload, seed, "--setup-only")  # writes bytecode caches; not timed
    # Set-up probes run before the first pass and after every pass, so that
    # their median spans the whole run.
    setups, passes, longest = [], [], 0.0
    while True:
        setups += [_worker(workload, seed, "--setup-only")[0] for _ in range(SETUP_PROBES)]
        if passes and time.perf_counter() - start + longest > seconds:
            break
        result, wall = _worker(workload, seed)
        passes.append(result)
        longest = max(longest, wall)
    samples = median_items(passes)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_s": percentile(samples, 50),
        "item_p90_s": percentile(samples, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"# {len(setups)} set-up processes, {len(passes)} passes, "
          f"{len(samples)} items per pass "
          f"({len(samples) - math.ceil(0.9 * len(samples))} beyond p90)")
    print("# set-up wall seconds: "
          + " ".join(f"{s['setup_wall_s']:.4f}" for s in setups))
    print("# pass wall seconds:   "
          + " ".join(f"{p['raw_wall_s']:.4f}" for p in passes)
          + "; reference seconds: " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    return passes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def _traced(workload: str, seed: int) -> tuple[list[dict], dict]:
    base, _ = _worker(workload, seed)
    traced, _ = _worker(workload, seed, "--trace")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - base["wall_s"]
    layers["trace.base_wall_s"] = base["wall_s"]
    print(f"# traced pass: {traced['wall_s']:.4f} s against an untraced "
          f"{base['wall_s']:.4f} s (reference seconds; wall seconds "
          f"{traced['raw_wall_s']:.4f} and {base['raw_wall_s']:.4f}); "
          f"spans in {traced['spans_file']}")
    for name in traced["missing"]:
        print(f"# absent entry point: {name} (metrics fed only by it are left out)")
    busy = sum(v for k, v in layers.items() if k.endswith("_s") and "." in k
               and not k.startswith("trace."))
    print(f"# layer self time as a share of the traced wall "
          f"({traced['wall_s']:.4f} s; {busy:.4f} s inside layers):")
    for k, v in layers.items():
        if k.endswith("_s") and not k.startswith("trace."):
            print(f"#   {k:<16} {100 * v / traced['wall_s']:5.1f}%")
    return [base, traced], {k: (v, _layer_unit(k)) for k, v in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kahlerdiff" / "__init__.py").is_file():
        print(f"error: no kahlerdiff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())} "
          f"KAHLER_THREADS=1 (caller's value: {os.environ.get('KAHLER_THREADS', 'unset')})")
    try:
        if args.trace:
            passes, metrics = _traced(args.workload, args.seed)
        else:
            passes, metrics = _untraced(args.workload, args.seed, args.seconds)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for item in passes[0]["items"]:
        info = " ".join(f"{k}={v}" for k, v in item.items()
                        if k not in ("label", "seconds", "ok"))
        times = ",".join(f"{p['items'][i]['seconds']:.4f}"
                         for p in passes for i, q in enumerate(p["items"])
                         if q["label"] == item["label"])
        print(f"# item {item['label']} {info} seconds={times}")
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(not item["ok"] for p in passes for item in p["items"])
    for name, (value, unit) in metrics.items():
        print(f"{name:<24} {value:.6g} {unit}")
    print(f"{'failed_frac':<24} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
