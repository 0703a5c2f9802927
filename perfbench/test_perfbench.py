"""Self-test of the benchmark, run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -s

For every workload it makes two traced runs and one untraced run (a few
minutes in all). It asserts that the exact counts repeat between the traced
runs, that every span links to an enclosing parent under one `qubolab run`
batch, and prints the tracing overhead: traced over untraced batch_ref.
"""

import csv
import gzip
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

EXACT_COUNTS = [
    "optimizer.nfev",
    "optimizer.max_iter_frac",
    "model.cost_vector.calls",
    "model.brute_force.calls",
    "simulator.apply_gate.calls",
    "transpiler.two_qubit_gates",
    "annealer.sa.flip_attempts",
]
# the count each workload exists to exercise must be nonzero there
BUSY = {
    "small-train": ["optimizer.nfev", "transpiler.two_qubit_gates"],
    "wide-qaoa": ["model.cost_vector.calls", "simulator.apply_gate.calls"],
    "anneal": ["annealer.sa.flip_attempts", "simulator.apply_gate.calls"],
}


def _run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _out(workload, trace):
    return ROOT / "perfbench" / "out" / f"{workload}-seed{SEED}-trace{trace}"


def _spans(workload):
    with gzip.open(_out(workload, 1) / "spans.csv.gz", "rt") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("workload", sorted(BUSY))
def test_counts_repeat_and_spans_nest(workload):
    first = _run(workload, trace=1)
    spans = _spans(workload)
    second = _run(workload, trace=1)
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name
    for name in BUSY[workload]:
        assert first[name] > 0, name

    for span in spans:
        parent = int(span["parent"])
        if parent < 0:
            assert span["name"] == "cli.run"
            continue
        outer = spans[parent]
        assert parent < int(span["index"])
        assert outer["batch"] == span["batch"]
        assert float(outer["start_s"]) <= float(span["start_s"])
        assert float(span["end_s"]) <= float(outer["end_s"])

    untraced = _run(workload, trace=0, seconds=5)
    untraced_s = json.loads((_out(workload, 0) / "run.json").read_text())["batch_s"]
    overhead = first["trace.batch_ref"] / untraced["batch_ref"] - 1.0
    print(
        f"\n{workload}: traced batch_s {first['trace.batch_s']:.3f} s, untraced "
        f"{untraced_s:.3f} s; batch_ref traced {first['trace.batch_ref']:.2f}, "
        f"untraced {untraced['batch_ref']:.2f}: tracing overhead {overhead:+.1%}"
    )
