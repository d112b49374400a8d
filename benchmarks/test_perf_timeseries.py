"""Waveform recording overhead: armed probes must stay cheap.

Not a paper experiment — the regression guard for
``repro.telemetry.timeseries``. The contract (ISSUE 10 acceptance
criteria, docs/OBSERVABILITY.md) is:

* an armed :class:`~repro.telemetry.WaveformRecorder` may add at most
  15% wall-clock to the E3 legacy-latency workload it samples — the
  per-probe cost is one cached-tuple load plus a ``record()`` that
  usually suppresses (value unchanged);
* a *disarmed* recorder must be near-free: the hot-path hook is one
  ``sim.waves`` attribute load + ``None`` check per site, the same
  pattern as spans and the kernel tracer.

Methodology mirrors ``test_perf_obs``: interleaved reps so machine
drift hits both sides, ``gc.collect()`` before each rep, and ``min`` of
the reps (for a deterministic workload that estimates the noise floor
rather than averaging noise in).
"""

import gc
import time

from repro.sim import Simulator
from repro.telemetry import WaveformRecorder
from repro.testbed.scenarios import legacy_latency_point

# More reps than the spans benchmark: the armed delta (~7%) sits close
# to this container's per-rep noise (±15%), so min-of-reps needs more
# draws to converge on the floor for both sides.
REPS = 8
#: Armed waveform recording budget over the instrumented E3 workload.
ARMED_BUDGET = 1.15
#: Disarmed hooks leave only None checks behind (same bar as spans).
DISARMED_BUDGET = 1.05

_WORKLOAD = dict(frame_size=256, load=0.5, duration=500_000_000)  # 0.5 ms


def _timed_point(arm=None):
    """One E3 latency point, optionally arming the recorder first."""
    gc.collect()
    hook = None
    if arm is not None:
        from repro.sim import add_creation_hook

        add_creation_hook(arm)
        hook = arm
    try:
        start = time.perf_counter()
        row, _ = legacy_latency_point(**_WORKLOAD)
        elapsed = time.perf_counter() - start
    finally:
        if hook is not None:
            from repro.sim import remove_creation_hook

            remove_creation_hook(hook)
    assert row.packets > 0
    return elapsed


def test_armed_waveform_recording_within_budget():
    recorder = WaveformRecorder()
    base_times, armed_times = [], []
    for _ in range(REPS):
        base_times.append(_timed_point())
        armed_times.append(_timed_point(arm=lambda sim: recorder.arm(sim)))
    base, armed = min(base_times), min(armed_times)
    ratio = armed / base
    counts = recorder.counts()
    print(
        f"\nwaveform recording: base {base * 1e3:.1f} ms, "
        f"armed {armed * 1e3:.1f} ms, ratio {ratio:.3f} "
        f"(budget {ARMED_BUDGET}); {counts['series']} series, "
        f"{counts['recorded']} samples, {counts['retained']} retained"
    )
    assert counts["recorded"] > 0
    assert ratio < ARMED_BUDGET, (
        f"armed waveform recording costs {(ratio - 1) * 100:.1f}% over an "
        f"unobserved run; the agreed budget is {(ARMED_BUDGET - 1) * 100:.0f}%"
    )


def test_disarmed_recorder_is_near_free():
    """Arm-then-disarm must leave only the ``sim.waves`` None checks.

    Measured on the deterministic chained-dispatch kernel loop (the
    same workload the spans benchmark uses) rather than the full E3
    scenario: the disarmed cost lives in the datapath hook sites, and
    the tight loop resolves a 1–5% delta where the scenario's wall time
    cannot.
    """
    EVENTS = 50_000

    def chained(disarm_first):
        sim = Simulator()
        if disarm_first:
            WaveformRecorder().arm(sim).disarm()
        remaining = [EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.call_after(100, tick)

        sim.call_after(100, tick)
        sim.run()
        assert sim.events_processed == EVENTS

    never_times, disarmed_times = [], []
    for _ in range(REPS + 2):
        gc.collect()
        start = time.perf_counter()
        chained(False)
        never_times.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        chained(True)
        disarmed_times.append(time.perf_counter() - start)
    ratio = min(disarmed_times) / min(never_times)
    print(f"\ndisarmed waveform recorder ratio vs never-armed: {ratio:.3f}")
    assert ratio < DISARMED_BUDGET


def test_closed_form_run_recording_beats_per_sample_loop():
    """``record_run`` exists so burst lanes stay O(1) per window: a
    10k-frame constant-value run (the wire-rate shape — every sample
    suppressed after the first) folds in constant time, where the
    per-sample path pays 10k calls. The toggle closed form is O(points)
    by necessity; it must still land on the identical stream without
    being slower."""
    from repro.telemetry import Waveform

    N = 10_000
    loop = Waveform("loop")
    closed = Waveform("closed")

    gc.collect()
    start = time.perf_counter()
    for i in range(N):
        loop.record(i * 100, 512)
    loop_s = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    closed.record(0, 512)
    closed.record_run(100, N - 1, 100, 512, 0)
    closed_s = time.perf_counter() - start

    assert closed.points() == loop.points()
    assert closed.recorded == loop.recorded
    speedup = loop_s / closed_s if closed_s else float("inf")
    print(f"\nclosed-form constant run: {speedup:.0f}x vs per-sample loop")
    assert speedup > 10

    toggle_loop = Waveform("tl", keep_every=4)
    toggle_closed = Waveform("tc", keep_every=4)
    for i in range(N):
        toggle_loop.record(i * 100, 512)
        toggle_loop.record(i * 100, 0)
    toggle_closed.record_toggle_run(0, N, 100, 512, 0)
    assert toggle_closed.points() == toggle_loop.points()
