"""Smoke test of the benchmark: tiny inputs, every metric, every oracle.

Runs ``perfbench/run.py --smoke`` on each workload of ``BENCHMARK.json``
and checks the output contract: the last stdout line carries every metric
named in ``BENCHMARK.json`` with its unit, and every request of a pass is
read by at least one oracle check.  The smoke sizes are too small for the
oracle tolerances, so whether the checks pass is not asserted here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / (
        f"{workload}-seed{SEED}-trace{trace}-smoke.json")).read_text())
    return result, record


def units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def assert_result_shape(result, want_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want_units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_metric_and_runs_every_oracle(workload):
    result, record = run_smoke(workload, 1)
    assert_result_shape(result, units(SPEC["per_layer"]))
    for name, unit in units(SPEC["end_to_end"]).items():
        assert record["metrics"][name]["unit"] == unit
        assert record["metrics"][name]["value"] > 0
    assert {p["traced"] for p in record["passes"]} == {False, True}
    for p in record["passes"]:
        covered = set()
        for check in p["checks"]:
            assert isinstance(check["ok"], bool) and check["detail"]
            covered.add(check["request"])
            covered.update(check["covers"])
        assert covered == {row["request"] for row in p["rows"]}
    prov = record["provenance"]
    for key in ("source_sha256", "python", "numpy", "scipy", "nproc",
                "blas_threads", "seed"):
        assert prov[key] is not None


def test_untraced_run_emits_the_end_to_end_metrics():
    result, record = run_smoke(WORKLOADS[0], 0)
    assert_result_shape(result, units(SPEC["end_to_end"]))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any(p["traced"] for p in record["passes"])
