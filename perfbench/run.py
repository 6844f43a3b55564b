"""poischain benchmark: timed, answer-checked passes over fixed job lists.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every workload, traced

Workloads: chain-verify, relations, cli-readme (see workloads.py for the jobs
and why each was chosen).  Load model: one client, closed loop, jobs in order
and one at a time; every pass runs in a fresh interpreter (worker.py), so no
cache survives from one pass to the next.  Passes are started while the next
one still fits in ``--seconds``, counted from the start of the run.

``--trace 0`` reports the end-to-end metrics: pass_ref_s (median seconds of
the job calls in one pass, each job's own wall seconds scaled to the
reference speed by the probes of calibrate.py), setup_s (median seconds from
spawn until the jobs can start, over the passes plus set-up-only spawns
between them, scaled the same way) and peak_rss_mb.  The raw wall medians
pass_s and setup_wall_s are printed too but are not contract metrics: on a
shared host they move with the host's speed.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics from the traced ones, each layer's share of self time, and the
tracing overhead (traced minus untraced pass_ref_s).

Every job's output is checked against a reference; a job that raises, gives
a wrong answer or exit code, prints a traceback, or (cli-readme) writes
report bytes that differ between passes of the run counts as failed.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the full record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS  # noqa: E402
from workloads import NOT_RUN, PROTOTYPE_SHARES, WHY, WORKLOADS, make_inputs  # noqa: E402

RUN_LIMIT_S = 170  # every run must end within 180 s
# Set-up-only spawns before the first pass and after every pass, on top of
# the pass's own set-up: set-up is short, and the machine's speed changes
# within seconds, so samples are spread over the whole run.
SETUP_SAMPLES = 6

END_TO_END_UNITS = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_s": "s", "setup_wall_s": "s"}
# Printed with the others but not contract metrics: raw wall seconds move
# with the host's speed (see calibrate.py).
WALL_ONLY = ("pass_s", "setup_wall_s")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# per-layer metrics: (metric, unit, traced function, field)
# field: incl_s / self_s / calls or a counter the tracer keeps for that function

PER_LAYER = [
    ("commutant.invariant_basis.s", "s", "commutant.invariant_basis", "incl_s"),
    ("commutant.invariant_basis.calls", "count", "commutant.invariant_basis", "calls"),
    ("commutant.invariant_basis.monomials", "count", "commutant.invariant_basis",
     "monomials"),
    ("commutant.invariant_basis.kernel_dim", "count", "commutant.invariant_basis",
     "kernel_dim"),
    ("commutant.monomial_basis.s", "s", "commutant.monomial_basis", "incl_s"),
    ("commutant.indecomposables.s", "s", "commutant.indecomposables", "incl_s"),
    ("linalg.nullspace.s", "s", "linalg.nullspace", "incl_s"),
    ("linalg.nullspace.calls", "count", "linalg.nullspace", "calls"),
    ("linalg.nullspace.rows", "count", "linalg.nullspace", "rows"),
    ("linalg.canonical_rref.s", "s", "linalg.canonical_rref", "incl_s"),
    ("linalg.row_from_rationals.calls", "count", "linalg.row_from_rationals", "calls"),
    ("linalg.echelon_insert.calls", "count", "linalg.echelon_insert", "calls"),
    ("linalg.coeff_bits_max", "bits", "linalg.canonical_rref", "bits_max"),
    ("poly.mul.s", "s", "poly.mul", "incl_s"),
    ("poly.mul.calls", "count", "poly.mul", "calls"),
    ("poly.mul.terms_out", "count", "poly.mul", "terms_out"),
    ("poly.bracket.s", "s", "poly.bracket", "incl_s"),
    ("poly.bracket.calls", "count", "poly.bracket", "calls"),
    ("chains.base_center_check.s", "s", "chains.base_center_check", "incl_s"),
    ("chains.base_center_check.pairs", "count", "chains.base_center_check", "pairs"),
    ("casimir_mf.mf_commutativity_check.s", "s", "casimir_mf.mf_commutativity_check",
     "incl_s"),
    ("commutant.relation_basis.s", "s", "commutant.relation_basis", "incl_s"),
    ("commutant.relation_basis.relations", "count", "commutant.relation_basis",
     "relations"),
    ("commutant.membership.s", "s", "commutant.membership", "incl_s"),
    ("casimir_mf.trace_casimirs_sln.s", "s", "casimir_mf.trace_casimirs_sln", "incl_s"),
    ("sampling.jacobian_rank.s", "s", "sampling.jacobian_rank", "incl_s"),
    ("sampling.jacobian_rank.calls", "count", "sampling.jacobian_rank", "calls"),
    ("chains.trdeg.s", "s", "chains.trdeg", "incl_s"),
    ("algebra.orbit_dimension.s", "s", "algebra.orbit_dimension", "incl_s"),
    ("algebra.builtin_sl.s", "s", "algebra.builtin_sl", "incl_s"),
    ("algebra.builtin_sl.calls", "count", "algebra.builtin_sl", "calls"),
    ("algebra.validate_algebra.s", "s", "algebra.validate_algebra", "incl_s"),
    ("cycles.balance_check.s", "s", "cycles.balance_check", "incl_s"),
    ("cycles.balance_check.calls", "count", "cycles.balance_check", "calls"),
    ("cycles.oracle_cross_check.s", "s", "cycles.oracle_cross_check", "incl_s"),
    ("flow.integrate.s", "s", "flow.integrate", "incl_s"),
    ("flow.integrate.steps", "count", "flow.integrate", "steps"),
    ("cli.main.s", "s", "cli.main", "self_s"),
    ("poly.render.s", "s", "poly.render", "incl_s"),
    ("poly.dump_json.s", "s", "poly.dump_json", "incl_s"),
]


def self_time_by_layer(funcs: dict) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for fn, entry in funcs.items():
        out[fn.split(".")[0]] += entry["self_s"]
    return out


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    funcs = result["trace"]["functions"]
    out = {name: funcs[fn].get(field, 0) for name, _, fn, field in PER_LAYER}
    ins = funcs["linalg.echelon_insert"]
    out["linalg.echelon_insert.pivot_ratio"] = (
        ins.get("useful", 0) / ins["calls"] if ins.get("calls") else 0.0)
    out["cli.report_bytes"] = sum(j.get("report_bytes", 0) for j in result["jobs"])
    by_layer = self_time_by_layer(funcs)
    total = sum(by_layer.values()) or 1.0
    for layer, s in by_layer.items():
        out[f"share.{layer}"] = 100.0 * s / total
    return out


def prototype_share(result: dict) -> dict:
    """Measured self-time share of what the prototype's quoted share covers."""
    funcs = result["trace"]["functions"]
    covers, quoted = PROTOTYPE_SHARES[result["workload"]]
    total = sum(self_time_by_layer(funcs).values()) or 1.0
    covered = sum(entry["self_s"] for fn, entry in funcs.items()
                  if fn in covers or fn.split(".")[0] in covers)
    return {"covers": sorted(covers), "prototype_pct": quoted,
            "measured_pct": 100.0 * covered / total,
            "traced_s_in_spans_pct": 100.0 * total / result["trace"]["traced_s"]}


PER_LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}
PER_LAYER_UNITS.update({"linalg.echelon_insert.pivot_ratio": "ratio",
                        "cli.report_bytes": "bytes"})
PER_LAYER_UNITS.update({f"share.{layer}": "%" for layer in LAYERS})
PER_LAYER_UNITS.update({"trace.untraced_pass_ref_s": "s", "trace.traced_pass_ref_s": "s",
                        "trace.overhead_s": "s", "trace.overhead_pct": "%"})


# ---------------------------------------------------------------------------
# statistics


def describe(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals), "min": vals[0], "max": vals[-1]}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        out["tail_percentile"] = 100.0 * (n - 10) / n
        out["tail_value"] = vals[n - 11]
    else:
        out["tail_percentile"] = None  # needs at least 11 samples
    return out


# ---------------------------------------------------------------------------
# environment


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "poischain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# passes


def spawn(workload: str, seed: int, workdir: Path, trace: int, setup_only: bool,
          timeout: float) -> dict:
    """Run worker.py once in a fresh interpreter and return its result."""
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir),
           "--result", str(result_path), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = _now()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s",
                "wall_s": _now() - spawned}
    wall = _now() - spawned
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}",
                "wall_s": wall}
    out = json.loads(result_path.read_text())
    out["wall_s"] = wall
    out["workload"] = workload
    return out


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 workdir: Path) -> dict:
    started = _now()
    deadline = started + seconds  # the whole run, set-up samples included
    jobs = WORKLOADS[workload][1]
    workdir.mkdir(parents=True, exist_ok=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (_now() - started)

    setups = []

    def sample_setups() -> None:
        for _ in range(SETUP_SAMPLES):
            res = spawn(workload, seed, workdir, 0, True, remaining())
            if "error" not in res:
                setups.append(res)

    # The first spawn compiles bytecode; it is not a sample.
    spawn(workload, seed, workdir, 0, True, remaining())
    sample_setups()
    passes: list[dict] = []
    longest = 0.0  # one pass plus the set-up samples after it
    while True:
        # trace runs alternate untraced and traced passes, untraced first
        traced = trace and len(passes) % 2 == 1
        need = 2 if trace else 1
        if len(passes) >= need and _now() + longest > deadline:
            break
        if remaining() < longest + 5:
            break
        cycle_start = _now()
        res = spawn(workload, seed, workdir, int(traced), False, remaining())
        res["traced"] = bool(traced)
        passes.append(res)
        sample_setups()
        longest = max(longest, _now() - cycle_start)

    # answer checks, worker failures and report determinism
    attempted = failed = 0
    failures: list[dict] = []
    first_digests: dict[str, dict] = {}
    for idx, res in enumerate(passes):
        attempted += len(jobs)
        if "error" in res:
            failed += len(jobs)
            failures.append({"pass": idx, "job": "*", "detail": res["error"]})
            continue
        if not res["traced"]:
            setups.append(res)
        for rec in res["jobs"]:
            bad = list(rec["mismatches"])
            digests = rec.get("digests")
            if digests is not None and not bad:
                ref = first_digests.setdefault(rec["job"], digests)
                if digests != ref:
                    bad.append("report bytes differ from an earlier pass")
            if bad:
                failed += 1
                failures.append({"pass": idx, "job": rec["job"], "detail": bad})

    good = [r for r in passes if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    summary = {
        "workload": workload,
        "why": WHY[workload],
        "inputs": make_inputs(seed),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": failures,
        "report_sha256": first_digests,
        "wall_s": _now() - started,
    }
    stats = {}
    if untraced:
        stats["pass_ref_s"] = describe([r["pass_ref_s"] for r in untraced])
        stats["pass_s"] = describe([r["pass_s"] for r in untraced])
        stats["peak_rss_mb"] = describe([r["peak_rss_mb"] for r in untraced])
        summary["job_seconds_median"] = {
            name: statistics.median(
                next(j["seconds"] for j in r["jobs"] if j["job"] == name)
                for r in untraced)
            for name, _, _ in jobs
        }
    if setups:
        stats["setup_s"] = describe([r["setup_s"] for r in setups])
        stats["setup_wall_s"] = describe([r["setup_wall_s"] for r in setups])
    summary["end_to_end"] = stats
    if traced_runs and untraced:
        per_pass = [layer_metrics(r) for r in traced_runs]
        layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        traced_s = statistics.median(r["pass_ref_s"] for r in traced_runs)
        untraced_s = stats["pass_ref_s"]["median"]
        layer["trace.untraced_pass_ref_s"] = untraced_s
        layer["trace.traced_pass_ref_s"] = traced_s
        layer["trace.overhead_s"] = traced_s - untraced_s
        layer["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        summary["per_layer"] = layer
        summary["prototype_share"] = prototype_share(traced_runs[0])
        first = traced_runs[0]["trace"]
        summary["functions"] = first["functions"]
        summary["trace_cost"] = {"spans": first["span_count"],
                                 "counter_s": first["counter_s"]}
    return summary


# ---------------------------------------------------------------------------
# output


def contract_metrics(summary: dict, trace: int) -> dict:
    if trace:
        layer = summary.get("per_layer", {})
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
    return {k: {"value": s["median"], "unit": END_TO_END_UNITS[k]}
            for k, s in summary["end_to_end"].items() if k not in WALL_ONLY}


def print_table(summary: dict, trace: int) -> None:
    w = summary["workload"]
    print(f"== {w}: {summary['passes']} passes, {summary['attempted']} jobs, "
          f"failed_share {summary['failed_share']:.4f}")
    for name, s in summary["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        q = (f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  " if "q1" in s else "")
        tail = ("tail: needs >= 11 samples" if s["tail_percentile"] is None else
                f"p{s['tail_percentile']:.1f} {s['tail_value']:.4f}")
        print(f"  {name:<12} median {s['median']:.4f} {unit}  {q}n={s['n']}  {tail}")
    print(f"  {'failed_share':<12} {summary['failed_share']:.4f} ratio (failed "
          f"{summary['failed']} / attempted {summary['attempted']})")
    for f in summary["failures"]:
        print(f"  FAILED pass {f['pass']} {f['job']}: {f['detail']}")
    if trace and "per_layer" in summary:
        for name, value in summary["per_layer"].items():
            print(f"  {name:<40} {value:.6g} {PER_LAYER_UNITS[name]}")
        p = summary["prototype_share"]
        print(f"  self-time share of {'+'.join(p['covers'])}: measured "
              f"{p['measured_pct']:.1f}%, prototype {p['prototype_pct']:.0f}%")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "poischain" / "__init__.py").is_file():
        print(f"error: no poischain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workroot = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace, workroot / w)
                     for w in names]
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    env["loadavg_end"] = list(os.getloadavg())
    env["run_seconds"] = args.seconds
    env["trace"] = args.trace

    for summary in summaries:
        print_table(summary, args.trace)
    print(json.dumps({"environment": env, "not_run": NOT_RUN, "workloads": summaries},
                     sort_keys=True))
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = contract_metrics(summaries[0], args.trace)
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in contract_metrics(s, args.trace).items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
