"""E6 — "a loss-limited path that gets (a subset of) captured packets
into the host ... packet capture filtering and packet thinning in
hardware" (paper §1).

Regenerates: host capture completeness vs offered load, for the plain
path and each hardware reducer (cut / thin / cut+thin).
"""

from conftest import emit, run_once

from repro.analysis import format_table
from repro.testbed import CAPTURE_VARIANTS, capture_path_point
from repro.units import ms

LOADS = [0.1, 0.3, 0.6, 0.9]


def test_e6_capture_loss_vs_reducers(benchmark):
    rows = run_once(
        benchmark,
        lambda: [
            capture_path_point(load=load, variant=variant, duration=ms(2))[0]
            for load in LOADS
            for variant in CAPTURE_VARIANTS
        ],
    )
    emit(
        format_table(
            ["load", "variant", "offered", "captured", "dropped", "capture %"],
            [
                [
                    f"{row.offered_load:.1f}",
                    row.variant,
                    row.offered_packets,
                    row.captured,
                    row.dropped,
                    f"{row.capture_fraction:.1%}",
                ]
                for row in rows
            ],
            title="E6: loss-limited host path (DMA 2 Gbps) vs hardware reducers",
        )
    )
    def of(load, variant):
        return next(r for r in rows if r.offered_load == load and r.variant == variant)

    # Low load: everything captures fine even with no reduction.
    assert of(0.1, "full").capture_fraction == 1.0
    # High load: the plain path loses packets...
    assert of(0.9, "full").dropped > 0
    # ...and loses more as load grows (monotone drop curve).
    drops = [of(load, "full").dropped for load in LOADS]
    assert drops == sorted(drops)
    # Each hardware reducer restores a lossless host path at 0.9 load.
    for variant in ("cut-64", "thin-1in8", "cut+thin"):
        assert of(0.9, variant).dropped == 0, variant
