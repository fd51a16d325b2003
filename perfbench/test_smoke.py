"""Smoke tests of the benchmark, with every workload cut to low degree.

Run from the repository root with ``python -m pytest perfbench -q``.  The
project's own test run collects only ``tests/``, so these stay out of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(workload, seed, trace, cwd=ROOT, check=True):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=check)


def _result(workload, seed, trace):
    result = json.loads(_run(workload, seed, trace).stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(workload, 3, 0)
    assert metrics["ok_frac"] == 1.0
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_seeds(workload):
    first, second = _result(workload, 3, 1), _result(workload, 4, 1)
    counts = [m["name"] for m in DECLARED["per_layer"]
              if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["loops.build_calls"] >= 1 and 0 < first["trace.coverage_frac"] <= 1


def test_wrong_answers_and_exceptions_count_as_failed():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run
    run._use_library_sources()

    def broken(rng, smoke):
        def boom():
            raise RuntimeError("task failure")
        tasks = [lambda: {"right": 1}, lambda: {"wrong": 0}, boom]
        return tasks, {"right": 1, "wrong": 1, "raised": 1}

    done = run._one_pass(broken, seed=0, smoke=True)
    assert done.attempted == 3 and sorted(done.wrong) == ["raised", "wrong"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 1, 0, cwd=tmp_path, check=False)
    assert out.returncode != 0
    assert not out.stdout.strip()
