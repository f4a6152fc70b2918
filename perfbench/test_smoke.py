"""Smoke test of the benchmark: every workload, briefly, in both modes.

    python3 -m pytest perfbench -q

Asserts that every metric ``BENCHMARK.json`` names is reported with
its unit, that no operation failed, and that two seeds yield the same
metric names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("host ")
    host = json.loads(lines[0][len("host "):])
    assert host["fabric"] == "tcp-loopback" and host["nproc"] >= 1
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_reports_every_metric(workload: str, trace: int) -> None:
    # lossy_rpc measures whole rounds of 200 calls with three attempt
    # timeouts each; one round takes about two seconds.
    seconds = 3.0 if workload == "lossy_rpc" else 1.0
    result = _run(workload, 1, trace, seconds)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_seeds_change_inputs_not_metric_names() -> None:
    sys.path.insert(0, HERE)
    import workloads

    def drops(seed: int) -> list[int]:
        schedule = workloads.EvenDrop(seed)
        return [i for i in range(400) if schedule.decide("request")]

    assert len(drops(1)) == len(drops(2)) == workloads.LOSS_DROPS
    assert drops(1) != drops(2)
    assert drops(1) == drops(1)
    a = _run("pipelined_nb", 1, 0, 0.5)
    b = _run("pipelined_nb", 2, 0, 0.5)
    assert set(a["metrics"]) == set(b["metrics"])


def test_refuses_to_run_without_sources(tmp_path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(
                open(os.path.join(HERE, name), encoding="utf-8").read()
            )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmd_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
