"""E2 — "sub-µsec time precision in traffic generation and capture,
corrected using an external GPS device"; "timestamp resolution is
6.25 nsec" (paper §1).

Regenerates: (a) inter-departure precision, OSNT vs a software
generator; (b) clock error over time, free-running vs GPS-disciplined;
(c) the timestamp quantisation table.
"""

from conftest import emit, run_once

from repro.analysis import format_table
from repro.hw import TICK_PS, TimestampUnit
from repro.sim import Simulator
from repro.testbed import clock_error_point, idt_precision_point
from repro.units import us


def test_e2a_idt_precision_vs_software(benchmark):
    rows = run_once(
        benchmark,
        lambda: [
            idt_precision_point(kind=kind, target_gap_ps=us(20), packet_count=500)[0]
            for kind in ("osnt", "software")
        ],
    )
    emit(
        format_table(
            ["generator", "target ns", "mean gap ns", "gap stddev ns", "worst error ns"],
            [
                [
                    row.generator,
                    round(row.target_gap_ns, 1),
                    round(row.mean_gap_ns, 2),
                    round(row.gap_std_ns, 2),
                    round(row.worst_error_ns, 2),
                ]
                for row in rows
            ],
            title="E2a: 20 µs inter-departure pacing, hardware vs software",
        )
    )
    osnt = next(row for row in rows if row.generator == "osnt")
    software = next(row for row in rows if row.generator == "software")
    assert osnt.gap_std_ns == 0.0  # hardware pacing is exact
    assert software.gap_std_ns > 100  # host stack: µs-scale jitter
    assert software.worst_error_ns > 1_000  # and multi-µs excursions


def test_e2b_gps_discipline(benchmark):
    rows = run_once(
        benchmark,
        lambda: [
            row
            for mode in ("free-running", "gps-disciplined")
            for row in clock_error_point(mode=mode, horizon_s=10)[0]
        ],
    )
    table = {}
    for row in rows:
        table.setdefault(row.after_seconds, {})[row.mode] = row.abs_error_ns
    emit(
        format_table(
            ["t (s)", "free-running |err| ns", "GPS-disciplined |err| ns"],
            [
                [second, round(modes["free-running"], 1), round(modes["gps-disciplined"], 1)]
                for second, modes in sorted(table.items())
            ],
            title="E2b: clock error, 30 ppm oscillator, with/without GPS PPS",
        )
    )
    final = table[max(table)]
    assert final["free-running"] > 100_000  # drifts off by >100 µs
    assert final["gps-disciplined"] < 1_000  # the paper's sub-µs claim


def test_e2c_timestamp_quantisation(benchmark):
    def quantisation_rows():
        sim = Simulator()
        unit = TimestampUnit(sim)
        rows = []
        for true_ps in (0, 3_000, 6_250, 10_000, 12_499, 12_500, 1_000_000):
            sim_local = Simulator()
            unit_local = TimestampUnit(sim_local)
            sim_local.run(until=true_ps)
            stamped = unit_local.now_ps()
            rows.append((true_ps, stamped, true_ps - stamped))
        return rows

    rows = run_once(benchmark, quantisation_rows)
    emit(
        format_table(
            ["true time ps", "stamped ps", "quantisation error ps"],
            [list(row) for row in rows],
            title=f"E2c: 64-bit timestamp quantisation (tick = {TICK_PS} ps = 6.25 ns)",
        )
    )
    # Error is bounded by one 6.25 ns tick and never negative.
    assert all(0 <= err < TICK_PS for __, __, err in rows)
