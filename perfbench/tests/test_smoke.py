"""Smoke test of the benchmark: every workload at tiny size, in seconds.

    python3 -m pytest perfbench/tests -q

Timing is not checked here, only that each workload runs, passes its output
checks and reports every metric BENCHMARK.json lists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def _run_cli(cwd, workload="pipeline_cs"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def import_s():
    return run.import_package()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_reports_every_metric(workload, import_s):
    # a traced run also makes untraced passes, so it reports both metric sets
    record = run.run_benchmark(workload, seed=7, seconds=0.1, trace=1, import_s=import_s, size="tiny")
    metrics = record["metrics"]
    assert record["attempted"] >= 2
    assert metrics["error_rate"]["value"] == 0
    assert [name for name in UNITS if name not in metrics] == []
    assert {name: metrics[name]["unit"] for name in UNITS} == UNITS
    assert all(metrics[name]["value"] > 0 for name in END_TO_END)


def test_command_line_prints_the_result_last():
    proc = _run_cli(ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
