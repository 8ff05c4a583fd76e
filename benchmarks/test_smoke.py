"""Smoke test of the benchmark at a tiny scale.

    python3 -m pytest -q benchmarks/test_smoke.py

Checks that every metric BENCHMARK.json names is reported for every
workload, with tracing off and on, that every output check passes, that the
generator is deterministic, and that the benchmark refuses to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = "0.05"


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
        "--seconds", "1", "--trace", str(trace), "--scale", SCALE,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_workloads_are_generated():
    assert {w["name"] for w in SPEC["workloads"]} <= set(generate.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(generate.WORKLOADS))
def test_every_metric_reported_and_all_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", list(generate.WORKLOADS))
def test_generator_is_deterministic(workload, tmp_path):
    generate.generate(workload, 5, tmp_path / "a", scale=float(SCALE))
    generate.generate(workload, 5, tmp_path / "b", scale=float(SCALE))
    generate.generate(workload, 6, tmp_path / "c", scale=float(SCALE))
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert (tmp_path / "a" / "raw.log").read_bytes() != (tmp_path / "c" / "raw.log").read_bytes()


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    proc = _run(tmp_path, "hdfs-pipeline", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
