"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json agrees with the metric tables, that an untraced
run emits every end-to-end metric with its unit, that the traced run's
counts repeat exactly between two runs, and that the benchmark refuses to
run without the library.
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
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_tables():
    with open(ROOT / "BENCHMARK.json") as f:
        doc = json.load(f)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.FULL)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == \
        layers.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        [row[:3] for row in layers.PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.FULL))
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result(_run(workload, trace=0))
    assert list(result["metrics"]) == [name for name, *_ in layers.END_TO_END]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == layers.UNITS[name]
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", list(workloads.FULL))
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, trace=1))["metrics"]
    second = _result(_run(workload, trace=1))["metrics"]
    assert list(first) == [name for name, *_ in layers.PER_LAYER]
    for name in layers.EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["policies.sddp.cuts_total"]["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("assess-summer", trace=0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
