"""Smoke test of the benchmark on the rungs N = 1, 2 of every workload.

Run from the repository root (it takes a few seconds):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from spans import DETERMINISTIC  # noqa: E402


def run(workload, seed, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=root, timeout=120)


def result(workload, seed, trace):
    proc = run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, section):
    res = result(workload, 1, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in res["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counters_repeat_across_runs_and_seeds(workload):
    counters = [{k: result(workload, seed, 1)["metrics"][k]["value"] for k in DETERMINISTIC}
                for seed in (1, 1, 2)]
    assert counters[0] == counters[1] == counters[2]
    assert counters[0]["quad.moment_calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 1, 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
