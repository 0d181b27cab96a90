"""Smoke tests of the public entry points: every demo script, the `check`
subcommand and the artifact digest tool run to completion."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import socrec
from socrec.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(pathlib.Path(socrec.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_found():
    assert len(DEMOS) >= 4


def test_check_subcommand_passes():
    assert main(["check"]) == 0


def test_artifact_digest_is_reproducible(tmp_path):
    """Two digests of the same tree are equal and cover every artifact
    kind except the wall-clock timing files, and each command's stdout."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    tool = [sys.executable, str(ROOT / "tools" / "artifact_digest.py"), str(ROOT)]
    runs = [subprocess.run(tool, cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=300) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr[-2000:]
    assert runs[0].stdout == runs[1].stdout
    names = {line.split("/")[-1] for line in runs[0].stdout.splitlines()}
    assert {"report.dat", "history.txt", "config", "report.txt", "ablation.dat",
            "robustness.dat", "sweep.dat", "relevance_weights.txt", "E_u"} <= names
    assert "shape" not in names
    assert "timing.txt" not in names
    stdouts = [line for line in runs[0].stdout.splitlines() if "  stdout/" in line]
    assert len(stdouts) == 15  # one per command of the suite
    files = {path: sha for sha, path in
             (line.split("  ") for line in runs[0].stdout.splitlines())}

    def run_files(name):
        prefix = f"train/{name}/"
        return {path[len(prefix):]: sha for path, sha in files.items()
                if path.startswith(prefix)}

    full = run_files("full")
    assert {"config", "history.txt", "report.dat", "report.txt", "checkpoint/E_u",
            "checkpoint/config"} <= set(full)
    # `train --config <out>/train/full/config`, and `train --dataset-dir` on
    # the fixture as save_dataset wrote it, write what train/full wrote
    assert run_files("full_replay") == full
    assert run_files("full_dataset_dir") == full


def _record(workload, sha, seed, eval_users_per_s, digest, sample_batch_s=None):
    """A `bench/run.py` record; traced when `sample_batch_s` is given."""
    end_to_end = {m: 1.0 for m in ("setup_s", "train_s", "train_triples_per_s",
                                   "peak_rss_mb", "test_hr10", "test_ndcg10")}
    end_to_end["eval_users_per_s"] = eval_users_per_s
    provenance = {"nproc": 2, "cpu_model": "cpu", "python": "3", "numpy": "2",
                  "scipy": "1", "blas_pin": {"OPENBLAS_NUM_THREADS": "2"},
                  "blas_threads_in_effect": 2, "git_sha": sha, "seed": seed}
    record = {"workload": workload, "seed": seed, "trace": 0, "seconds": 55.0,
              "provenance": provenance, "end_to_end": end_to_end,
              "operations": [{"sha256": {"report.dat": digest}}] * 2,
              "attempted": 2, "failed": 0}
    if sample_batch_s is not None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        record["trace"] = 1
        record["per_layer"] = {m["name"]: 2.0 for m in spec["per_layer"]}
        record["per_layer"]["objective.sample_batch_s"] = sample_batch_s
    return record


def test_bench_summary_groups_by_workload_and_sha(tmp_path):
    runs = [_record("w", "parent", seed, rate, "r1")
            for seed, rate in ((1, 10.0), (2, 30.0), (3, 20.0))]
    runs += [_record("w", "change", 1, 40.0, "r1"), _record("w", "change", 1, 50.0, "r2")]
    # traced runs give the per-layer figures and stay out of the end-to-end ones
    runs += [_record("w", "parent", 4, 1e6, "r3", sample_batch_s=s) for s in (3.0, 5.0, 4.0)]
    runs += [_record("v", "change", 1, 1e6, "r3", sample_batch_s=0.5)]
    captured = tmp_path / "captured.out"
    captured.write_text("".join(f"noise\nrecord {json.dumps(r)}\n{{}}\n" for r in runs))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_summary.py"),
                           str(captured)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    workloads = json.loads(proc.stdout)["workloads"]
    parent, change = workloads["w"]["parent"], workloads["w"]["change"]
    assert parent["seeds"] == [1, 2, 3] and parent["attempted"] == 6
    assert parent["end_to_end"]["eval_users_per_s"]["median"] == 20.0
    assert set(parent["end_to_end"]) == {"setup_s", "train_s", "train_triples_per_s",
                                         "eval_users_per_s", "peak_rss_mb",
                                         "test_hr10", "test_ndcg10"}
    assert parent["outputs_sha256"] == {str(s): {"report.dat": ["r1"]} for s in (1, 2, 3)}
    assert change["outputs_sha256"] == {"1": {"report.dat": ["r1", "r2"]}}
    assert change["provenance"]["numpy"] == "2" and "git_sha" not in change["provenance"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = parent["traced"]
    assert traced["seeds"] == [4, 4, 4] and traced["runs"] == 3
    assert set(traced["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["per_layer"]["objective.sample_batch_s"] == {
        "median": 4.0, "q1": 3.0, "q3": 5.0, "unit": "s"}
    assert traced["per_layer"]["eval.users_ranked"]["median"] == 2.0
    assert "traced" not in change
    only_traced = workloads["v"]["change"]
    assert only_traced["traced"]["per_layer"]["objective.sample_batch_s"]["median"] == 0.5
    assert "end_to_end" not in only_traced and only_traced["provenance"]["nproc"] == 2
