"""Smoke tests of the public entry points: every demo script, the `check`
subcommand and the artifact digest tool run to completion."""

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
            "robustness.dat", "sweep.dat", "relevance_weights.txt", "E_u",
            "shape"} <= names
    assert "timing.txt" not in names
    stdouts = [line for line in runs[0].stdout.splitlines() if "  stdout/" in line]
    assert len(stdouts) == 12  # one per command of the suite
