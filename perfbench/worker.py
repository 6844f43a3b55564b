"""One pass of one workload, in a fresh interpreter.

Started by run.py for every pass, so nothing (algebra bracket caches, module
level monomial ids) carries over from the previous pass.  Writes one JSON
object to ``--result``: set-up seconds measured from the parent's spawn time,
per-job seconds and answer checks, peak resident set, report digests and,
with ``--trace 1``, the per-function span summary.  Set-up and job seconds
are given both as wall seconds and scaled to the reference speed by a
calibrate.SpeedMeter that runs from the end of set-up to the end of the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _now() -> float:
    # CLOCK_MONOTONIC is system wide, so the parent's spawn stamp compares.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    import poischain as P

    if Path(P.__file__).resolve().parent != (root / "src" / "poischain").resolve():
        raise SystemExit(f"imported poischain from {P.__file__}, not from {root}")

    from calibrate import SpeedMeter
    from tracing import Tracer
    from workloads import WORKLOADS, make_inputs

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    traced_from = time.perf_counter()

    setup, jobs = WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    workdir = Path(args.workdir)
    ctx = setup(P, inputs, workdir)
    ready = _now()
    construct_s = time.perf_counter() - traced_from
    if tracer is not None:
        tracer.active = False
    meter = SpeedMeter()
    setup_s = ready - args.spawned
    out = {"setup_wall_s": setup_s, "setup_s": setup_s * meter.start()}

    if not args.setup_only:
        records = []
        for name, run, check in jobs:
            if tracer is not None:
                tracer.active = True
            mark = meter.mark()
            start = time.perf_counter()
            try:
                result, error = run(P, ctx, inputs), None
            except Exception:
                result, error = None, traceback.format_exc()
            end = time.perf_counter()
            seconds, ref_seconds = meter.since(mark, start, end)
            if tracer is not None:
                tracer.active = False
            record = {"job": name, "seconds": seconds, "ref_seconds": ref_seconds}
            if error is None:
                try:
                    record["mismatches"] = check(ctx, inputs, result)
                except Exception:
                    record["mismatches"] = ["check raised:\n" + traceback.format_exc()]
                if isinstance(result, dict):  # CLI jobs
                    record["digests"] = result.get("digests", {})
                    record["report_bytes"] = result.get("report_bytes", 0)
            else:
                record["mismatches"] = ["raised:\n" + error]
            records.append(record)
        out["jobs"] = records
        out["pass_s"] = sum(r["seconds"] for r in records)
        out["pass_ref_s"] = sum(r["ref_seconds"] for r in records)
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["trace"]["traced_s"] = construct_s + out["pass_s"]
    meter.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
