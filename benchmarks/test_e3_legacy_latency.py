"""E3 — demo Part I: "accurately measure the packet-processing latency
of a legacy switch under different load conditions" (paper §2).

Regenerates: latency/jitter vs offered load and frame size through the
simulated commercial L2 switch, measured with embedded TX timestamps.
"""

from conftest import emit, run_once

from repro.analysis import format_table
from repro.testbed import legacy_latency_point
from repro.units import ms

LOADS = [0.25, 0.5, 0.75, 0.95, 1.1]
SIZES = [64, 512, 1518]


def test_e3_latency_vs_load(benchmark):
    rows = run_once(
        benchmark,
        lambda: [
            legacy_latency_point(frame_size=size, load=load, duration=ms(2))[0]
            for size in SIZES
            for load in LOADS
        ],
    )
    emit(
        format_table(
            ["frame B", "load", "probes", "mean us", "p50 us", "p99 us", "max us", "jitter us", "drops"],
            [
                [
                    row.frame_size,
                    f"{row.load:.2f}",
                    row.packets,
                    round(row.mean_us, 3),
                    round(row.p50_us, 3),
                    round(row.p99_us, 3),
                    round(row.max_us, 3),
                    round(row.jitter_us, 3),
                    row.switch_drops,
                ]
                for row in rows
            ],
            title="E3: legacy switch latency under load (demo Part I)",
        )
    )
    by_size = {}
    for row in rows:
        by_size.setdefault(row.frame_size, []).append(row)
    for size, series in by_size.items():
        means = [row.mean_us for row in series]
        # Latency rises with load; overload is dramatically worse.
        assert means[0] < means[-2] < means[-1]
        assert means[-1] > 5 * means[0]
    # Store-and-forward baseline grows with frame size at light load.
    light = {row.frame_size: row.mean_us for row in rows if row.load == 0.25}
    assert light[64] < light[512] < light[1518]


def test_e3b_imix_per_size_breakdown(benchmark):
    """One IMIX run yields the full per-size latency table — the style of
    measurement per-packet hardware timestamps make possible."""
    from repro.testbed import imix_latency_point

    rows, __ = run_once(benchmark, lambda: imix_latency_point(load=0.5, duration=ms(2)))
    emit(
        format_table(
            ["frame B", "packets", "mean us", "p99 us"],
            [
                [row.frame_size, row.packets, round(row.mean_us, 3), round(row.p99_us, 3)]
                for row in rows
            ],
            title="E3b: per-size latency from a single IMIX stream (load 0.5)",
        )
    )
    assert [row.frame_size for row in rows] == [64, 576, 1518]
    # IMIX ratios survive the trip: 7:4:1 by packet count.
    counts = [row.packets for row in rows]
    assert abs(counts[0] / counts[1] - 7 / 4) < 0.15
    # Store-and-forward baseline grows with size even inside one stream.
    means = [row.mean_us for row in rows]
    assert means == sorted(means)
