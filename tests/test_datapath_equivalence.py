"""Differential determinism harness: packet vs burst datapaths.

The burst datapath (`repro.hw.burst`) must be a *bit-identical* drop-in
for the per-packet generator process: same counters, same histograms,
same telemetry snapshots, same final simulated time on every workload —
including mid-run counter reads, `stop()` drains, FIFO-saturating
schedules and latency measurement. Workloads that arm an observation
point (spans, capture, faults on the loopback link) must transparently
fall back to the per-packet path and still agree. These tests run the
same workload under both `REPRO_DATAPATH` settings and assert the full
observable state matches exactly — the same pattern
tests/test_sim_queue_equivalence.py applies to the event queues.
"""

import dataclasses
import random

import pytest

from repro.errors import ConfigError
from repro.faults import FaultInjector
from repro.hw import EthernetPort, TimestampUnit, connect
from repro.net import Packet
from repro.obs import SpanRecorder
from repro.osnt import OSNT
from repro.osnt.generator import PortGenerator, TemplateSource
from repro.osnt.generator.schedule import PoissonGaps
from repro.sim import Simulator
from repro.testbed.rfc2544 import rfc2544_point
from repro.testbed.scenarios import legacy_latency_point, line_rate_point
from repro.testbed.workloads import udp_template
from repro.units import ms, us

IMPLS = ("packet", "burst")


# -- observable-state extraction ----------------------------------------


def _mac_state(stats):
    return (
        stats.packets,
        stats.bytes,
        stats.wire_bytes,
        stats.errors,
        stats.drops_overflow,
        stats.drops_injected,
        stats.busy_ps,
        stats.first_activity_ps,
        stats.last_activity_ps,
    )


def _osnt_state(sim, tester, gen_ports=(0,), mon_ports=(1,)):
    """Every observable counter of a loopback run, as one plain dict."""
    state = {"now": sim.now}
    for index in set(gen_ports) | set(mon_ports):
        port = tester.port(index)
        fifo = port.tx.fifo
        state[f"p{index}.tx"] = _mac_state(port.tx.stats)
        state[f"p{index}.rx"] = _mac_state(port.rx.stats)
        state[f"p{index}.fifo"] = (
            fifo.enqueued,
            fifo.dropped,
            fifo.occupancy_bytes,
            fifo.peak_occupancy_bytes,
        )
    for index in gen_ports:
        generator = tester.generator(index)
        state[f"g{index}.stats"] = dataclasses.astuple(generator.stats)
        state[f"g{index}.sizes"] = generator._engine.tx_sizes.to_dict()
        state[f"g{index}.running"] = generator.running
    for index in mon_ports:
        monitor = tester.monitor(index)
        state[f"m{index}.rx"] = (monitor.rx_packets, monitor.rx_bytes)
        state[f"m{index}.latency"] = monitor.latency_histogram.to_dict()
        state[f"m{index}.lat_skipped"] = monitor._pipeline.latency_skipped
    return state


def _run(impl, workload, monkeypatch):
    monkeypatch.setenv("REPRO_DATAPATH", impl)
    return workload()


def _assert_equivalent(workload, monkeypatch):
    packet = _run("packet", workload, monkeypatch)
    burst = _run("burst", workload, monkeypatch)
    assert packet == burst
    return packet


# -- loopback workloads (the lanes the burst path accelerates) ----------


class TestLoopbackWorkloads:
    def _loopback(self, configure, steps=None):
        """Build a 2-port loopback tester, run, return observable state."""
        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        configure(sim, tester)
        if steps is None:
            sim.run()
            return _osnt_state(sim, tester)
        snapshots = []
        for until in steps:
            sim.run(until=until)
            snapshots.append(_osnt_state(sim, tester))
        sim.run()
        snapshots.append(_osnt_state(sim, tester))
        return snapshots

    def test_line_rate_duration_run(self, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(ms(1))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert state["g0.stats"][0] > 14_000  # ~14.88 Mpps for 1 ms

    def test_mid_run_counter_snapshots(self, monkeypatch):
        """run(until=) twice mid-run: burst windows must stop at the
        bound and leave every counter exactly as the per-packet path."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.at_line_rate().for_duration(ms(1))
                generator.start()

            return self._loopback(configure, steps=(us(300), us(777)))

        snapshots = _assert_equivalent(workload, monkeypatch)
        assert snapshots[0]["g0.stats"][0] < snapshots[1]["g0.stats"][0]

    def test_stop_mid_run_drains(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.at_line_rate().for_duration(ms(2))
            generator.start()
            sim.run(until=us(100))
            generator.stop()
            sim.run()
            return _osnt_state(sim, tester)

        state = _assert_equivalent(workload, monkeypatch)
        assert not state["g0.running"]
        assert state["p1.rx"][0] == state["g0.stats"][0]

    @pytest.mark.parametrize("mean_gap", ["2us", "50ns"])
    def test_poisson_schedules_use_per_frame_path(self, mean_gap, monkeypatch):
        """Random gaps force the serial path, which must consume the
        schedule RNG identically (hot 50ns gaps also queue the FIFO)."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.poisson(mean_gap).for_duration(us(200))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert state["g0.stats"][0] > 50

    def test_count_limited_and_restart(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(64), count=500)
            generator.start()
            sim.run()
            first = _osnt_state(sim, tester)
            generator.start()  # second run reuses the same lane machinery
            sim.run()
            return first, _osnt_state(sim, tester)

        first, second = _assert_equivalent(workload, monkeypatch)
        assert first["g0.stats"][0] == 500
        assert second["p0.tx"][0] == 1000

    def test_sub_minimum_frames_pad_identically(self, monkeypatch):
        """A runt template: both datapaths must count the padded frame
        bytes and the padded wire bytes the same way, frame for frame."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(Packet(bytes(56)))  # 60B runt
                generator.at_line_rate().for_duration(us(100))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        packets, frame_bytes, wire_bytes = state["p0.tx"][:3]
        assert frame_bytes == packets * 64
        assert wire_bytes == packets * 84

    def test_latency_measurement_armed(self, monkeypatch):
        """Embedded TX stamps + RX latency: the burst path stamps
        arithmetic delivery times through the same quantised clock."""

        def workload():
            def configure(sim, tester):
                tester.monitor(1).enable_latency()
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.set_load(0.6).embed_timestamps()
                generator.for_duration(us(500))
                generator.start()

            return self._loopback(configure)

        state = _assert_equivalent(workload, monkeypatch)
        assert state["m1.latency"]["count"] == state["g0.stats"][0]

    def test_fifo_overflow_accounting(self, monkeypatch):
        """A tiny TX FIFO fed faster than line rate drops frames; drop
        counters and peak occupancy must match exactly."""

        def workload():
            sim = Simulator()
            a = EthernetPort(sim, "a", tx_fifo_bytes=2048)
            b = EthernetPort(sim, "b")
            connect(a, b)
            generator = PortGenerator(sim, a, TimestampUnit(sim))
            # Mean gap far below the ~172 ns wire time: the offered load
            # exceeds line rate, so the 2 KiB FIFO must tail-drop.
            generator.configure(
                TemplateSource(udp_template(200)),
                schedule=PoissonGaps(20_000, stream=random.Random(11)),
                duration_ps=us(100),
            )
            generator.start()
            sim.run()
            fifo = a.tx.fifo
            return (
                sim.now,
                dataclasses.astuple(generator.stats),
                generator.tx_sizes.to_dict(),
                _mac_state(a.tx.stats),
                _mac_state(b.rx.stats),
                (fifo.enqueued, fifo.dropped, fifo.peak_occupancy_bytes),
            )

        state = _assert_equivalent(workload, monkeypatch)
        assert state[1][2] > 0  # tx_fifo_drops


# -- observation points force the per-packet fallback -------------------


class TestObservationPointFallback:
    def test_spans_armed(self, monkeypatch):
        """Span recording needs real Packet objects: the lane must fall
        back and produce identical counters and span stories."""

        def workload():
            sim = Simulator()
            recorder = SpanRecorder()
            recorder.arm(sim)
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.set_load(0.5).for_duration(us(100))
            generator.start()
            sim.run()
            # packet_id is a process-global counter, so normalise it out
            # of the stories; everything else must match bit-for-bit.
            stories = [
                {key: value for key, value in story.items() if key != "packet_ids"}
                for story in recorder.stories()
            ]
            return _osnt_state(sim, tester), stories

        state, stories = _assert_equivalent(workload, monkeypatch)
        assert len(stories) == state["g0.stats"][0]

    def test_capture_armed(self, monkeypatch):
        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            monitor = tester.monitor(1)
            monitor.start_capture(snaplen=64)
            generator = tester.generator(0)
            generator.load_template(udp_template(512))
            generator.set_load(0.5).embed_timestamps()
            generator.for_duration(us(200))
            generator.start()
            sim.run()
            digest = [
                (packet.rx_timestamp, packet.capture_length, bytes(packet.data[:16]))
                for packet in monitor.packets
            ]
            return _osnt_state(sim, tester), digest

        state, digest = _assert_equivalent(workload, monkeypatch)
        assert len(digest) == state["g0.stats"][0]

    def test_faults_armed_on_link(self, monkeypatch):
        """Link impairments must disqualify the lane; drop accounting
        and the fault RNG stream must then match exactly."""

        def workload():
            sim = Simulator()
            tester = OSNT(sim)
            link = connect(tester.port(0), tester.port(1))
            injector = FaultInjector(
                sim,
                [{"name": "loss", "model": "link_loss",
                  "params": {"rate": 0.05, "burst": 2.0}}],
                seed=3,
            )
            injector.bind(link=link).arm()
            generator = tester.generator(0)
            generator.load_template(udp_template(128))
            generator.set_load(0.8).for_duration(us(300))
            generator.start()
            sim.run()
            return _osnt_state(sim, tester), injector.timeline_digest()

        state, __ = _assert_equivalent(workload, monkeypatch)
        assert state["p1.rx"][0] < state["g0.stats"][0]  # losses happened


# -- full scenarios across seeds ----------------------------------------


class TestScenarioEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_e1_line_rate(self, seed, telemetry, monkeypatch):
        """E1: merged rows and (when armed) full telemetry snapshots."""

        def workload():
            return line_rate_point(
                frame_size=64, duration=ms(1), ports=1,
                seed=seed, telemetry=telemetry,
            )

        row, extras = _assert_equivalent(workload, monkeypatch)
        assert row.achieved_pps > 1e6
        if telemetry:
            assert "osnt.time_ps" in extras["telemetry"]

    def test_e1_multi_port(self, monkeypatch):
        def workload():
            return line_rate_point(
                frame_size=512, duration=ms(1), ports=4,
                seed=0, telemetry=True,
            )

        _assert_equivalent(workload, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_e3_legacy_latency(self, seed, monkeypatch):
        """E3 runs through the legacy switch — a capture-armed topology
        that falls back per-packet, and must stay byte-identical."""

        def workload():
            return legacy_latency_point(load=0.8, frame_size=512, seed=seed)

        row, __ = _assert_equivalent(workload, monkeypatch)
        assert row.packets > 0

    @pytest.mark.parametrize("switch_seed", [1, 2, 3])
    def test_rfc2544_search(self, switch_seed, monkeypatch):
        def workload():
            return rfc2544_point(
                frame_size=128, duration=ms(1),
                resolution=0.05, switch_seed=switch_seed,
            )

        result = _assert_equivalent(workload, monkeypatch)
        assert result.throughput_load > 0


# -- the escape hatch ---------------------------------------------------


class TestEscapeHatch:
    def _generator(self, **kwargs):
        sim = Simulator()
        tester = OSNT(sim)
        return PortGenerator(sim, tester.port(0), TimestampUnit(sim), **kwargs)

    def test_env_variable_selects_impl(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATAPATH", "packet")
        assert self._generator().datapath_impl == "packet"
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        assert self._generator().datapath_impl == "burst"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        assert self._generator(datapath="packet").datapath_impl == "packet"

    def test_default_is_burst(self, monkeypatch):
        monkeypatch.delenv("REPRO_DATAPATH", raising=False)
        assert self._generator().datapath_impl == "burst"

    def test_unknown_impl_rejected(self):
        with pytest.raises(ConfigError):
            self._generator(datapath="simd")


# -- waveform recording equivalence -------------------------------------


class TestWaveformEquivalence:
    """An armed WaveformRecorder must not disqualify the burst lanes
    (unlike spans/capture/faults, which force the per-packet fallback):
    the closed-form feeds at window edges must reproduce the per-packet
    probes *bit-identically* — same points, same decimation envelopes,
    same digest — and recording must not perturb the run itself."""

    def _loopback_with_waves(self, configure, keep_every=1, capacity=1 << 14):
        from repro.telemetry import WaveformRecorder

        sim = Simulator()
        recorder = WaveformRecorder(capacity=capacity, keep_every=keep_every)
        recorder.arm(sim)
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        configure(sim, tester)
        sim.run()
        return (
            _osnt_state(sim, tester),
            recorder.to_dict(),
            recorder.digest(),
        )

    @pytest.mark.parametrize("keep_every", [1, 4])
    def test_line_rate_bulk_lane(self, keep_every, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(us(500))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=keep_every)

        state, series, digest = _assert_equivalent(workload, monkeypatch)
        assert len(digest) == 64
        fifo = series["series"]["osnt.p0.tx.fifo_bytes"]
        assert fifo["points"]

    @pytest.mark.parametrize("keep_every", [1, 4])
    def test_burst_train_lane(self, keep_every, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(256))
                generator.burst_train(8, "2us").for_duration(us(400))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=keep_every)

        _assert_equivalent(workload, monkeypatch)

    @pytest.mark.parametrize("mean_gap", ["2us", "50ns"])
    def test_poisson_serial_lane(self, mean_gap, monkeypatch):
        """Random gaps use the serial emit path; hot 50ns gaps also
        exercise the backlog-drain probes."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.poisson(mean_gap).for_duration(us(200))
                generator.start()

            return self._loopback_with_waves(configure)

        _assert_equivalent(workload, monkeypatch)

    def test_small_capacity_eviction(self, monkeypatch):
        """Ring eviction through the closed-form feeds must land on the
        same retained window as the per-packet probes."""

        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(64))
                generator.at_line_rate().for_duration(us(300))
                generator.start()

            return self._loopback_with_waves(configure, capacity=61, keep_every=3)

        _assert_equivalent(workload, monkeypatch)

    def test_fifo_waveform_peak_matches_hardware_counter(self, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(512))
                generator.burst_train(16, "5us").for_duration(us(400))
                generator.start()

            return self._loopback_with_waves(configure)

        state, series, __ = _assert_equivalent(workload, monkeypatch)
        fifo_points = series["series"]["osnt.p0.tx.fifo_bytes"]["points"]
        assert max(v for __t, v in fifo_points) == state["p0.fifo"][3]

    @pytest.mark.parametrize("impl", IMPLS)
    def test_recording_does_not_perturb(self, impl, monkeypatch):
        """Counters with the recorder armed == counters without, on the
        same datapath — waveforms are pure observation."""

        def configure(sim, tester):
            generator = tester.generator(0)
            generator.load_template(udp_template(256))
            generator.set_load(0.7).for_duration(us(300))
            generator.start()

        def bare():
            sim = Simulator()
            tester = OSNT(sim)
            connect(tester.port(0), tester.port(1))
            configure(sim, tester)
            sim.run()
            return _osnt_state(sim, tester)

        def observed():
            return self._loopback_with_waves(configure)[0]

        assert _run(impl, bare, monkeypatch) == _run(impl, observed, monkeypatch)

    def test_digest_stable_across_runs(self, monkeypatch):
        def workload():
            def configure(sim, tester):
                generator = tester.generator(0)
                generator.load_template(udp_template(128))
                generator.set_load(0.5).for_duration(us(250))
                generator.start()

            return self._loopback_with_waves(configure, keep_every=2)[2]

        first = _run("burst", workload, monkeypatch)
        second = _run("burst", workload, monkeypatch)
        assert first == second
