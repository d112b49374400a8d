#!/usr/bin/env python3
"""CI smoke for the waveform recorder's determinism guarantees.

The waveform digest is the proof object of PR 10: one SHA-256 over the
canonical JSON of every recorded series. This smoke checks the three
invariances the ISSUE demands, end to end:

1. **datapath invariance** — the same workload recorded under
   ``REPRO_DATAPATH=packet`` and ``=burst`` must produce *byte-identical*
   digests (the burst lanes feed waveforms closed-form, at window
   edges, instead of per packet);
2. **worker-count invariance** — an ``incast_burst`` sweep with
   ``waveforms: true`` folded through :class:`repro.runner.SweepRunner`
   must produce the same ``merged_waveforms()`` document at 1 and 4
   workers;
3. **kill-and-resume invariance** — a sweep stopped after one shard and
   resumed from its checkpoint directory must fold to the same combined
   digest as an uninterrupted run.

Exits non-zero with a diagnostic on any violated expectation.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro.obs import observe_simulators
from repro.runner import ExperimentSpec, SweepRunner
from repro.telemetry import WaveformRecorder
from repro.testbed.attacks import incast_burst_point
from repro.units import ms


def fail(message: str) -> None:
    print(f"ci_timeline_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def incast_digest(keep_every: int = 1) -> str:
    recorder = WaveformRecorder(keep_every=keep_every)
    with observe_simulators(waves=recorder):
        incast_burst_point(duration=int(ms(1)))
    return recorder.digest()


def loopback_digest() -> str:
    from repro.hw import connect
    from repro.osnt import OSNT
    from repro.sim import Simulator
    from repro.testbed.workloads import udp_template

    recorder = WaveformRecorder()
    sim = Simulator()
    recorder.arm(sim)
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    generator = tester.generator(0)
    generator.load_template(udp_template(256))
    generator.set_load(0.6).for_duration(ms(1))
    generator.start()
    sim.run()
    return recorder.digest()


def check_datapath_invariance() -> None:
    for name, runner in (("loopback", loopback_digest), ("incast", incast_digest)):
        digests = {}
        for impl in ("packet", "burst"):
            os.environ["REPRO_DATAPATH"] = impl
            try:
                digests[impl] = runner()
            finally:
                os.environ.pop("REPRO_DATAPATH", None)
        if digests["packet"] != digests["burst"]:
            fail(
                f"{name}: digest differs across datapaths: "
                f"packet={digests['packet']} burst={digests['burst']}"
            )
        print(f"datapath invariance ok ({name}): {digests['burst'][:16]}…")


def incast_spec(name: str) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        scenario="incast_burst",
        params={"duration": "1ms", "waveforms": True},
        axes={"senders": [1, 2, 3]},
        timeout_s=120.0,
        retries=0,
    )


def check_worker_invariance(root: Path) -> dict:
    folds = {}
    reports = {}
    for workers in (1, 4):
        report = SweepRunner(
            incast_spec("ci-timeline"),
            workers=workers,
            checkpoint_dir=root / f"w{workers}",
        ).run()
        if len(report.ok) != 3:
            fail(f"workers={workers}: expected 3 ok shards, got {len(report.ok)}")
        folds[workers] = report.merged_waveforms()
        reports[workers] = report.merged_json()
    if folds[1] != folds[4]:
        fail(f"waveform fold differs across worker counts: {folds}")
    if folds[1]["combined_digest"] is None:
        fail("no combined digest — shards did not report waveform_digest")
    if reports[1] != reports[4]:
        fail("merged_json differs across worker counts")
    print(f"worker invariance ok: combined {folds[1]['combined_digest'][:16]}…")
    return folds[1]


def check_resume_invariance(root: Path, expected: dict) -> None:
    checkpoint = root / "resume"
    partial = SweepRunner(
        incast_spec("ci-timeline"), workers=1, checkpoint_dir=checkpoint
    ).run(max_shards=1)
    if len(partial.ok) != 1:
        fail(f"partial run: expected 1 ok shard, got {len(partial.ok)}")
    resumed = SweepRunner(
        incast_spec("ci-timeline"), workers=4, checkpoint_dir=checkpoint
    ).run()
    if len(resumed.ok) != 3:
        fail(f"resumed run: expected 3 ok shards, got {len(resumed.ok)}")
    fold = resumed.merged_waveforms()
    if fold != expected:
        fail(f"kill-and-resume fold differs: {fold} vs {expected}")
    print("kill-and-resume invariance ok")


def main() -> int:
    check_datapath_invariance()
    with tempfile.TemporaryDirectory(prefix="ci-timeline-") as tmp:
        root = Path(tmp)
        expected = check_worker_invariance(root)
        check_resume_invariance(root, expected)
    print("ci_timeline_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
