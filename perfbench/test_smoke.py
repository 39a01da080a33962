"""Smoke tests of the benchmark command (tiny inputs, about a minute).

Run from the root of a checkout::

    python -m pytest perfbench -q
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


def run_bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=timeout,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_workload_reports_every_metric(trace):
    out = run_bench("--smoke", "--workload", "all", "--seconds", "0.5",
                    "--trace", str(trace))
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        for metric in declared:
            entry = result["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"], metric["name"]
            if not trace:
                assert entry["value"] > 0, (workload, metric["name"])
    if trace:
        value = lambda w, m: result["metrics"][f"{w}/{m}"]["value"]  # noqa: E731
        for workload in WORKLOADS:
            merged_back = value(workload, "mergeback.blob_bytes")
            if workload == "process-k2":
                assert merged_back > 0
            else:
                assert merged_back == 0
        assert value("unique-nodedup", "reduction.wall_s") == 0
        assert value("unique-nodedup", "hmerge.calls") == 0
        assert value("hpccg-coll", "hmerge.calls") > 0


def test_single_workload_prints_exactly_the_declared_metrics():
    out = run_bench("--smoke", "--workload", "svc-chain-mix", "--seconds", "0.5")
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    result = last_json(out.stdout)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for line in ("svc-chain-mix chain_epoch_p50_s", "svc-chain-mix time_travel_p50_s",
                 "svc-chain-mix restore_mbps", "svc-chain-mix restore_tail_s",
                 "error_rate = 0.000000"):
        assert line in out.stdout


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
