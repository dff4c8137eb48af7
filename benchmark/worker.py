"""One pass of a workload in a fresh process.

    python3 benchmark/worker.py --workload battery --seed 1 [--trace] [--setup-only]

Imports kahlerdiff from the checkout's `src`, builds the workload's inputs,
runs every item once (closed loop), gates each output and prints one JSON
object as its last line.  Times are given twice: as wall seconds and as
reference seconds (see speed.py).  With --trace the layer entry points are
wrapped and the spans are written under `.bench_out/` when the pass ends.
The run.py front end starts one of these per pass.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BURST = 20  # set-up spans only a few timer ticks; probe more right after it


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import kahlerdiff

    if Path(kahlerdiff.__file__).resolve().parent != ROOT / "src" / "kahlerdiff":
        print(f"error: kahlerdiff imported from {kahlerdiff.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    import workloads

    items = workloads.build(args.workload, args.seed)
    t_setup = time.perf_counter()
    if args.setup_only:
        probe.stop()
        probe.burst(SETUP_BURST)
        print(json.dumps({"setup_s": probe.scaled(T0, t_setup),
                          "setup_wall_s": probe.raw(T0, t_setup)}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        probe.run = tracer.untimed

    out = {"items": []}
    stretches = []
    start = time.perf_counter()
    for number, item in enumerate(items):
        t = time.perf_counter()
        result = tracer.run_item(number, item.run) if tracer else item.run()
        stretches.append((t, time.perf_counter()))
        ok = bool(item.check(result))
        out["items"].append({"label": item.label, "ok": ok, **item.info})
    end = time.perf_counter()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.stop()
    for record, (t, u) in zip(out["items"], stretches):
        record["seconds"] = probe.scaled(t, u)
    out["wall_s"] = probe.scaled(start, end)
    out["raw_wall_s"] = probe.raw(start, end)

    if tracer:
        # Layer times are rescaled by the pass's mean speed, like wall_s.
        factor = out["wall_s"] / out["raw_wall_s"]
        out["layers"] = {k: v * factor if k.endswith("_s") else v
                         for k, v in tracer.metrics().items()}
        out["missing"] = tracer.missing
        spans_dir = ROOT / ".bench_out"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write_spans(path)
        out["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
