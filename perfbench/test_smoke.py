"""Smoke test of the benchmark in quick mode (one block of ops, one traced pass).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every workload runs, that its outputs match the reference,
that the last line parses, and that the metric names and units match
BENCHMARK.json.  It takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", str(run.DEFAULT_SEED),
                     "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float)


def test_fails_without_the_package(tmp_path):
    """A directory with only the benchmark must exit non-zero, printing no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", run.WORKLOADS[0], "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
