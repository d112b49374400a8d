#!/usr/bin/env python3
"""Demo Part I: packet-processing latency of a legacy switch vs load.

Reproduces the first half of the SIGCOMM'15 demo: two OSNT ports attach
to a (simulated) commercial L2 switch; one port generates traffic with
embedded TX timestamps at a finely-controlled rate, the other captures
with hardware RX timestamps, and the userspace application estimates
switching latency under different load conditions (Figure 2 topology).

Run:  python examples/legacy_switch_latency.py
"""

from repro.analysis import print_table
from repro.runner import ExperimentSpec, run_spec
from repro.testbed import load_points


def main() -> None:
    spec = ExperimentSpec(
        name="legacy-latency-vs-load",
        scenario="legacy_latency",
        params={"duration": "2ms", "seed": 0},
        axes={
            "frame_size": [64, 512, 1518],
            "load": load_points(steps=4, maximum=1.0) + [1.15],  # overload too
        },
        timeout_s=None,
    )
    rows = run_spec(spec, workers=0).require_ok().results()
    print_table(
        ["frame", "load", "probes", "mean us", "p50 us", "p99 us", "max us", "drops"],
        [
            [
                row["frame_size"],
                f"{row['load']:.2f}",
                row["packets"],
                round(row["mean_us"], 3),
                round(row["p50_us"], 3),
                round(row["p99_us"], 3),
                round(row["max_us"], 3),
                row["switch_drops"],
            ]
            for row in rows
        ],
        title="Legacy switch latency under load (OSNT Part I demo)",
    )
    saturated = [row for row in rows if row["load"] > 1.0]
    if saturated:
        print(
            "Above line rate the egress queue saturates: latency plateaus "
            f"near {max(row['max_us'] for row in saturated):.0f} µs (buffer depth) "
            "and the switch starts dropping — the behaviour the demo "
            "visualises live on commercial switches."
        )


if __name__ == "__main__":
    main()
