"""Smoke test of the benchmark at a tiny size (about two minutes).

    python3 -m pytest bench/test_smoke.py -q

Every workload runs once untraced and once traced; each must print every
metric that BENCHMARK.json names, with its unit.  One run injects a failing
op, which must show up in ``failed`` and in ``ok_frac``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_injected_failure_shows_in_ok_frac():
    result = run("analysis", 0, "--inject-failure")
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
        1.0 - 1.0 / result["attempted"])
