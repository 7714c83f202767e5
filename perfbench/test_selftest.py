"""Self-test of the benchmark: a reduced certify-small run, made twice with
the same seed and operation count, must repeat every count exactly.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selftest.py
"""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
EXACT_UNITS = ("count", "count/op", "ratio")


def _reduced_run() -> dict:
    """Every `metric <name> = <value> <unit>` line of one reduced run."""
    cmd = [sys.executable, str(RUN), "--workload", "certify-small", "--seed", "5",
           "--seconds", "1", "--trace", "1", "--ops", "9"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=RUN.parent.parent)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 9, last
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, _, value, unit = line.split()
            metrics[name] = (float(value), unit)
    assert set(last["metrics"]) <= set(metrics)
    return metrics


def test_counts_and_outcomes_repeat_exactly():
    first = _reduced_run()
    second = _reduced_run()
    exact = [name for name, (_, unit) in first.items() if unit in EXACT_UNITS]
    for name in ("oracle.enumerate_calls", "network.cost_calls", "oracle.hit_frac",
                 "cost_ratio", "failed_frac"):
        assert name in exact, name
    for name in exact:
        assert first[name] == second[name], name
    assert first["oracle.enumerate_calls"][0] == 1.0
    assert 0.0 < first["cost_ratio"][0] <= 1.0


def test_benchmark_json_matches_the_harness():
    sys.path[:0] = [str(RUN.parent), str(RUN.parent.parent / "src")]
    import pb_workloads
    import run

    spec = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(pb_workloads.WORKLOADS)
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == run.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
