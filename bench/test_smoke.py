"""Smoke test of the benchmark: every workload once, untraced and traced,
on tiny inputs.

    python -m pytest bench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is printed with its
unit, that every per-layer metric's spans and counters were recorded in
the trace, that all output checks pass, and that the benchmark refuses to
run without the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    assert record_line.startswith("record ")
    return json.loads(result_line), json.loads(record_line[len("record "):])


def assert_passed(result, record):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(not op["failures"] for op in record["operations"])
    assert record["failed_share"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, record = parse(run_bench(ROOT, workload, 0))
    assert_passed(result, record)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_every_layer(workload):
    result, record = parse(run_bench(ROOT, workload, 1))
    assert_passed(result, record)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    recorded = set(record["trace_names"])
    for metric, sources in record["per_layer_sources"].items():
        assert set(sources) <= recorded, (metric, sorted(recorded))
    assert set(record["per_layer_sources"]) == set(expected) - {"trace.overhead_share"}
    assert record["computed"]["spmm_per_call"].keys() == {"interaction", "social"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
