"""The benchmark's own tests. They run the benchmark, so they take minutes:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return digest.split()[-1], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {
        workload: [_result(_run(workload, trace=1)) for _ in range(2)]
        for workload in WORKLOADS
    }


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    # Seed 0 is the default seed: every digest is checked against golden.json.
    _digest, result = _result(_run(workload, trace=0, seed=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric(traced_twice):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced_twice.values():
        for _digest, result in runs:
            assert result["correct"], result
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_percentiles_have_ten_samples_beyond_them(traced_twice):
    for runs in traced_twice.values():
        for _digest, result in runs:
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            n = metrics["runner.shard_s.n"]
            if metrics["runner.shard_s.p90"]:
                assert n >= 100
            if metrics["runner.shard_s.p50"]:
                assert n >= 20
    sweep = traced_twice["sweep_cold_warm"][0][1]["metrics"]
    assert sweep["runner.shard_s.p90"]["value"] > 0


def test_traced_digests_and_counts_repeat_exactly(traced_twice):
    for (digest_a, a), (digest_b, b) in traced_twice.values():
        assert digest_a == digest_b
        for name, metric in a["metrics"].items():
            if metric["unit"] == "count":
                assert metric["value"] == b["metrics"][name]["value"], name


def test_traced_and_timed_runs_agree_on_digests(traced_twice):
    for workload in WORKLOADS:
        digest, _result_line = _result(_run(workload, trace=0))
        assert digest == traced_twice[workload][0][0]


def test_layers_stay_separate(traced_twice):
    def value(workload, name):
        return traced_twice[workload][0][1]["metrics"][name]["value"]

    assert value("sweep_cold_warm", "net.decode.calls") == 0
    assert value("forwarding_open_loop", "openflow.messages.calls") == 0
    assert value("forwarding_open_loop", "net.decode.calls") > 0
    assert value("control_closed_loop", "openflow.messages.calls") > 0
    assert value("sweep_cold_warm", "hw.burst.advance.calls") > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
