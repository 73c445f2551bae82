"""Smoke test: every workload at tiny size, untraced and traced.

Asserts that every metric named in BENCHMARK.json is reported and that no
operation failed; asserts nothing about speed. Run it from the repository
root with ``python -m pytest perfbench/test_smoke.py``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac == 0
        assert 0.0 < result["metrics"]["design_efficiency"]["value"] <= 1.0 + 1e-9


def test_refuses_to_run_without_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "seq-local", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
