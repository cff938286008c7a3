"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs with --tiny --seconds 0, untraced and traced.  Every
metric named in BENCHMARK.json, and the printed-only wall_s, items_per_s
and error_rate, must appear with its unit, and no operation may fail.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit_and_no_failures(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"], lines[-2]
    assert result["attempted"] >= 1 and result["failed"] == 0

    printed = {f[0]: (f[1], f[2]) for f in (line.split() for line in lines[1:-2]) if len(f) >= 3}
    for name, unit in expected.items():
        assert printed[name][1] == unit
    if not trace:
        assert printed["wall_s"][1] == "s" and printed["items_per_s"][1] == "1/s"
    assert printed["error_rate"] == ("0", "ratio")


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
