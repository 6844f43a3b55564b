"""Every job of the benchmark (perfbench/workloads.py) runs once in process
and matches its reference, so a change to the API the benchmark reads fails
here and not only in the benchmark's own run."""

import importlib.util
from pathlib import Path

import pytest

import poischain

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_jobs_match_their_references(name, tmp_path):
    setup, jobs = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(1)
    ctx = setup(poischain, inputs, tmp_path)
    mismatches = {}
    for job, run, check in jobs:
        bad = check(ctx, inputs, run(poischain, ctx, inputs))
        if bad:
            mismatches[job] = bad
    assert mismatches == {}
