"""Smoke test of the benchmark: one input cycle per workload (``--seconds 0``),
traced and untraced, asserting that every end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit and that the run is correct.  It covers
all four workloads of ``run.py``, also the two that BENCHMARK.json does not list.

    python -m pytest -q perfbench/test_smoke.py

Takes about a minute and a half on 2 cores.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert table[metric["name"]][1] == metric["unit"]
    assert table["fail_ratio"][1] == "ratio"
    if workload == "cli_cold":
        # the two ROADMAP open-item argvs fail at the seed and are counted
        assert 0 < result["failed"] < result["attempted"]
    else:
        assert result["failed"] == 0


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path), "verify_all", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
