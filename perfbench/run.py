"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload forwarding_open_loop --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate instrumented and profiled run. See README.md.

Set-up time is the median of several fresh interpreters, each timed from
its start to its first point being ready. The measured phase runs in one
more fresh interpreter with ``PYTHONHASHSEED`` pinned, the program's
``REPRO_*`` selectors cleared and ``TMPDIR`` inside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
#: Seconds a measured process may take beyond ``--seconds``.
SLACK_S = 120


def _env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    return env


def _measure(args, work: Path, extra, timeout_s: float) -> dict:
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--work",
        str(work),
        *extra,
    ]
    done = subprocess.run(
        command,
        env=_env(work),
        stdout=subprocess.PIPE,
        timeout=timeout_s,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def stolen_s() -> float:
    """CPU seconds the hypervisor has taken from this machine (0 if unreported)."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def setup_s(args, work: Path) -> float:
    """Median seconds from interpreter start to the first point ready.

    Each probe is one fresh interpreter, less the time the hypervisor
    stole while it ran (set-up keeps one CPU busy).
    """
    _measure(args, work, ["--probe"], 60)  # untimed: compiles bytecode
    samples = []
    for _ in range(SETUP_PROBES):
        start, stolen = time.monotonic(), stolen_s()
        ready = _measure(args, work, ["--probe"], 60)["ready"]
        samples.append(ready - start - (stolen_s() - stolen))
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("run.py: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2
    work = Path(".perfbench_work") / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = None if args.trace else setup_s(args, work)
        out = _measure(
            args,
            work,
            ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + SLACK_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in out["metrics"].items()
    }
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    for error in out["errors"][:20]:
        print(f"failed: {error}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} passes={out['passes']} {out['digest']}")
    print(
        json.dumps(
            {
                "correct": out["failed"] == 0,
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": dict(sorted(metrics.items())),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
