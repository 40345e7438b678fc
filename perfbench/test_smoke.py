"""Smoke test of the benchmark runner: every workload at tiny size.

    python3 -m pytest perfbench/test_smoke.py

Kept out of the package's own test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    environment = json.loads(proc.stdout.splitlines()[-2])["environment"]
    assert {"python", "commit", "nproc"} <= set(environment)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], numbers.Real)
        if not trace:
            assert printed["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "catalog-neg", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
