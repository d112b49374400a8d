#!/usr/bin/env python3
"""Tour of the waveform recorder: watch an incast collapse unfold.

Runs the T2 incast scenario (three synchronized burst trains converging
on one legacy-switch egress) with a
:class:`~repro.telemetry.WaveformRecorder` armed via
``observe_simulators``:

* the egress FIFO series ``sw.p1.tx.fifo_bytes`` shows the queue
  filling and draining burst by burst — its maximum *is* the hardware
  ``peak_occupancy_bytes`` counter, cross-checked below;
* per-link ``*.wire_bytes`` rate series show the offered load meeting
  the 10G egress bottleneck;
* everything exports as CSV rows, Chrome ``trace_event`` counter
  tracks (open at https://ui.perfetto.dev — the queue waveform renders
  under the packet spans that cause it) and a SHA-256 digest that
  reproduces bit-for-bit on every run, any datapath, any worker count.

Run:  python examples/timeline_tour.py
"""

import os
import tempfile

from repro.obs import observe_simulators
from repro.telemetry import WaveformRecorder, write_chrome_trace
from repro.testbed.attacks import incast_burst_point
from repro.units import ms, to_us


def render_ascii(points, width=64, height=8):
    """A tiny terminal strip chart of one (t_ps, value) series."""
    if not points:
        return ["(no samples)"]
    t0, t1 = points[0][0], points[-1][0]
    span = max(t1 - t0, 1)
    peak = max(v for _, v in points) or 1
    cells = [0] * width
    for t_ps, value in points:
        column = min(int((t_ps - t0) * (width - 1) / span), width - 1)
        cells[column] = max(cells[column], value)
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        rows.append(
            "".join("█" if cell >= threshold else " " for cell in cells)
        )
    rows.append(f"0 … {to_us(span):.0f} µs, peak {peak} B")
    return rows


def main() -> None:
    recorder = WaveformRecorder()
    with observe_simulators(waves=recorder):
        row, _ = incast_burst_point(senders=3, duration=int(ms(2)))

    print(
        f"incast: {row.senders} senders, {row.sent} sent, "
        f"{row.received} received "
        f"({row.delivery_fraction:.1%} delivered), "
        f"{row.egress_drops} egress drops"
    )

    # -- the collapse, as a waveform ----------------------------------------
    egress = recorder.get("sw.p1.tx.fifo_bytes")
    peak = max(value for _, value in egress.points())
    assert peak == row.queue_peak_bytes, "waveform must match the hw counter"
    print(f"\negress queue sw.p1.tx.fifo_bytes ({egress.recorded} samples):")
    for line in render_ascii(egress.points()):
        print("  " + line)

    # -- every series the probes produced -----------------------------------
    print("\nrecorded series:")
    for name in recorder.names():
        waveform = recorder.get(name)
        print(
            f"  {name:32s} {waveform.recorded:6d} samples, "
            f"last {waveform.last}"
        )

    # -- exports -------------------------------------------------------------
    out = tempfile.mkdtemp(prefix="timeline-tour-")
    csv_path = os.path.join(out, "incast.csv")
    trace_path = os.path.join(out, "incast_trace.json")
    recorder.write_csv(csv_path)
    events = write_chrome_trace(trace_path, None, waves=recorder)
    print(f"\nwrote {csv_path} and {trace_path} ({events} counter events)")
    print(f"digest (reproduces bit-for-bit): {recorder.digest()}")
    print(
        "\nsame thing from the shell:\n"
        "  osnt-telemetry timeline --scenario incast --senders 3 "
        "--csv incast.csv --trace incast_trace.json"
    )


if __name__ == "__main__":
    main()
