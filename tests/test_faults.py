"""Tests for repro.faults: specs, models, injector, determinism."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FaultError
from repro.faults import FAULT_MODELS, FaultInjector, FaultSpec, ImpairmentSpec
from repro.hw.dma import DmaEngine
from repro.hw.port import EthernetPort, connect
from repro.net import build_udp
from repro.openflow.connection import ControlChannel
from repro.openflow.messages import EchoRequest
from repro.osnt.api import OSNT
from repro.runner import ExperimentSpec, run_spec
from repro.sim import Simulator
from repro.telemetry import MetricsRegistry
from repro.units import ms, seconds, us


# -- spec ---------------------------------------------------------------------


class TestFaultSpec:
    def test_roundtrip_dict(self):
        fault = FaultSpec(
            name="loss", model="link_loss", params={"rate": 0.1}, start="1ms", stop="2ms"
        )
        assert FaultSpec.from_dict(fault.to_dict()) == fault

    def test_duration_strings_coerce(self):
        fault = FaultSpec(name="f", model="link_loss", start="1ms", stop="2ms")
        assert fault.start_ps == ms(1)
        assert fault.stop_ps == ms(2)

    def test_requires_name_and_model(self):
        with pytest.raises(FaultError):
            FaultSpec(name="", model="link_loss")
        with pytest.raises(FaultError):
            FaultSpec(name="f", model="")
        with pytest.raises(FaultError):
            FaultSpec.from_dict({"name": "f"})

    def test_rejects_unknown_fields(self):
        with pytest.raises(FaultError, match="unknown fault field"):
            FaultSpec.from_dict({"name": "f", "model": "link_loss", "rate": 0.1})

    def test_rejects_inverted_window(self):
        with pytest.raises(FaultError, match="must be after"):
            FaultSpec(name="f", model="link_loss", start="2ms", stop="1ms")


class TestImpairmentSpec:
    def test_json_roundtrip(self):
        spec = ImpairmentSpec.from_any(
            [{"name": "loss", "model": "link_loss", "params": {"rate": 0.05}}]
        )
        again = ImpairmentSpec.from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert again.fingerprint() == spec.fingerprint()

    def test_from_any_forms(self):
        assert ImpairmentSpec.from_any(None).empty
        spec = ImpairmentSpec.from_any([{"name": "a", "model": "link_loss"}])
        assert ImpairmentSpec.from_any(spec) is spec
        from_str = ImpairmentSpec.from_any('[{"name": "a", "model": "link_loss"}]')
        assert from_str.faults[0].name == "a"
        from_dict = ImpairmentSpec.from_any(
            {"name": "plan", "faults": [{"name": "a", "model": "link_loss"}]}
        )
        assert from_dict.name == "plan"

    def test_duplicate_names_rejected(self):
        with pytest.raises(FaultError, match="duplicate"):
            ImpairmentSpec.from_any(
                [
                    {"name": "a", "model": "link_loss"},
                    {"name": "a", "model": "link_jitter"},
                ]
            )

    def test_bad_json_rejected(self):
        with pytest.raises(FaultError, match="not valid JSON"):
            ImpairmentSpec.from_json("{nope")

    def test_fingerprint_tracks_content(self):
        one = ImpairmentSpec.from_any([{"name": "a", "model": "link_loss"}])
        two = ImpairmentSpec.from_any([{"name": "a", "model": "link_jitter"}])
        assert one.fingerprint() != two.fingerprint()


# -- injector -----------------------------------------------------------------


def loopback(sim):
    a = EthernetPort(sim, "a")
    b = EthernetPort(sim, "b")
    link = connect(a, b)
    received = []
    b.add_rx_sink(received.append)
    return a, b, link, received


def send_frames(sim, port, count, gap_ps=us(1), frame_size=128):
    for i in range(count):
        sim.call_at(i * gap_ps, port.send, build_udp(frame_size=frame_size))
    sim.run()


class TestFaultInjector:
    def test_unknown_model_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, [{"name": "x", "model": "martians"}])
        with pytest.raises(FaultError, match="unknown model"):
            injector.arm()

    def test_unbound_target_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, [{"name": "x", "model": "link_loss"}])
        with pytest.raises(FaultError, match="targets 'link'"):
            injector.arm()

    def test_rearm_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, []).arm()
        with pytest.raises(FaultError, match="already armed"):
            injector.arm()

    def test_bind_ignores_none(self):
        sim = Simulator()
        injector = FaultInjector(sim, [{"name": "x", "model": "link_loss"}])
        injector.bind(link=None)
        with pytest.raises(FaultError):
            injector.arm()

    def test_counters_and_timeline(self):
        sim = Simulator()
        a, b, link, received = loopback(sim)
        registry = MetricsRegistry()
        injector = FaultInjector(
            sim,
            [{"name": "loss", "model": "link_loss", "params": {"rate": 1.0}}],
            seed=1,
            registry=registry,
        )
        injector.bind(link=link).arm()
        send_frames(sim, a, 5)
        assert not received
        assert registry.counter("faults.loss.drop").value == 5
        assert registry.counter("faults.loss.activate").value == 1
        actions = [action for __, __, action, __ in injector.timeline]
        assert actions.count("drop") == 5

    def test_timeline_digest_is_seeded(self):
        def digest(seed):
            sim = Simulator()
            a, b, link, __ = loopback(sim)
            injector = FaultInjector(
                sim,
                [{"name": "loss", "model": "link_loss", "params": {"rate": 0.5}}],
                seed=seed,
            )
            injector.bind(link=link).arm()
            send_frames(sim, a, 50)
            return injector.timeline_digest()

        assert digest(7) == digest(7)
        assert digest(7) != digest(8)


# -- link models --------------------------------------------------------------


class TestLinkModels:
    def test_loss_counts_injected_drops(self):
        sim = Simulator()
        a, b, link, received = loopback(sim)
        injector = FaultInjector(
            sim, [{"name": "loss", "model": "link_loss", "params": {"rate": 1.0}}]
        )
        injector.bind(link=link).arm()
        send_frames(sim, a, 10)
        assert received == []
        assert injector.model("loss").dropped == 10
        assert b.rx.stats.drops_injected == 10
        assert b.rx.stats.drops_overflow == 0

    def test_loss_window_only_drops_inside(self):
        sim = Simulator()
        a, b, link, received = loopback(sim)
        FaultInjector(
            sim,
            [
                {
                    "name": "loss",
                    "model": "link_loss",
                    "params": {"rate": 1.0},
                    "start": us(3),
                    "stop": us(7),
                }
            ],
        ).bind(link=link).arm()
        send_frames(sim, a, 10)  # one frame per µs
        assert 0 < len(received) < 10

    def test_bursty_loss_is_consecutive(self):
        sim = Simulator()
        a, b, link, __ = loopback(sim)
        injector = FaultInjector(
            sim,
            [{"name": "loss", "model": "link_loss", "params": {"rate": 0.2, "burst": 8}}],
            seed=3,
        )
        injector.bind(link=link).arm()
        send_frames(sim, a, 400)
        drops = [t for t, __, action, __ in injector.timeline if action == "drop"]
        assert drops, "expected at least one burst"
        # At least one run of back-to-back (1 µs apart) dropped frames.
        runs = sum(1 for x, y in zip(drops, drops[1:]) if y - x == us(1))
        assert runs > 0

    def test_burst_below_one_rejected(self):
        sim = Simulator()
        __, __, link, __ = loopback(sim)
        injector = FaultInjector(
            sim, [{"name": "l", "model": "link_loss", "params": {"rate": 0.1, "burst": 0.5}}]
        )
        with pytest.raises(FaultError, match="burst"):
            injector.bind(link=link).arm()

    def test_rate_outside_unit_interval_rejected(self):
        sim = Simulator()
        __, __, link, __ = loopback(sim)
        injector = FaultInjector(
            sim, [{"name": "l", "model": "link_loss", "params": {"rate": 1.5}}]
        )
        with pytest.raises(FaultError, match="rate"):
            injector.bind(link=link).arm()

    def test_corrupt_counts_errors_and_injected(self):
        sim = Simulator()
        a, b, link, received = loopback(sim)
        FaultInjector(
            sim, [{"name": "dirt", "model": "link_corrupt", "params": {"rate": 1.0}}]
        ).bind(link=link).arm()
        send_frames(sim, a, 4)
        assert received == []
        assert link.frames_corrupted == 4
        assert b.rx.stats.errors == 4
        assert b.rx.stats.drops_injected == 4

    def test_jitter_delays_but_delivers(self):
        sim = Simulator()
        a, b, link, received = loopback(sim)
        FaultInjector(
            sim,
            [{"name": "j", "model": "link_jitter", "params": {"max_jitter": "5us"}}],
            seed=2,
        ).bind(link=link).arm()
        send_frames(sim, a, 20)
        assert len(received) == 20

    def test_reorder_changes_arrival_order(self):
        sim = Simulator()
        a, b, link, __ = loopback(sim)
        order = []
        b.rx.add_sink(lambda p: order.append(len(p.data)))
        injector = FaultInjector(
            sim,
            [
                {
                    "name": "r",
                    "model": "link_reorder",
                    "params": {"rate": 0.3, "delay": "10us"},
                }
            ],
            seed=5,
        )
        injector.bind(link=link).arm()
        # Strictly growing frame sizes: any out-of-order arrival shows up
        # as a descent in the received size sequence.
        for i in range(50):
            sim.call_at(i * us(1), a.send, build_udp(frame_size=64 + i))
        sim.run()
        assert len(order) == 50  # reordered, never lost
        assert injector.model("r").reordered > 0
        assert order != sorted(order)

    def test_wrong_target_type_rejected(self):
        sim = Simulator()
        injector = FaultInjector(sim, [{"name": "l", "model": "link_loss"}])
        injector.bind(link=object())
        with pytest.raises(FaultError, match="needs a Link"):
            injector.arm()


# -- dma models ---------------------------------------------------------------


class TestDmaModels:
    def test_stall_causes_counted_ring_drops(self):
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=2)
        dma.on_host_deliver = lambda p: None
        FaultInjector(
            sim,
            [
                {
                    "name": "stall",
                    "model": "dma_stall",
                    "params": {"period": "10ms", "duration": "5ms"},
                }
            ],
        ).bind(dma=dma).arm()
        for i in range(6):
            sim.call_at(us(i + 1), dma.enqueue, build_udp(frame_size=256))
        sim.run(until=ms(1))
        assert dma.stats.dropped == 4  # ring holds 2, the rest tail-drop
        sim.run(until=ms(6))
        assert dma.stats.delivered == 2  # drains once the stall lifts

    def test_ring_clamp_applies_and_releases(self):
        sim = Simulator()
        dma = DmaEngine(sim, ring_slots=64)
        FaultInjector(
            sim,
            [
                {
                    "name": "clamp",
                    "model": "dma_ring_clamp",
                    "params": {"slots": 1},
                    "stop": ms(1),
                }
            ],
        ).bind(dma=dma).arm()
        sim.run(until=us(1))
        assert dma.effective_ring_slots == 1
        sim.run(until=ms(2))
        assert dma.effective_ring_slots == 64


# -- clock models -------------------------------------------------------------


class TestClockModels:
    def test_gps_holdover_toggles_discipline_and_grows_error(self):
        sim = Simulator()
        tester = OSNT(sim, freq_error_ppm=30.0, gps_enabled=True)
        device = tester.device
        FaultInjector(
            sim,
            [
                {
                    "name": "h",
                    "model": "gps_holdover",
                    "start": seconds(2),
                    "stop": seconds(5),
                }
            ],
        ).bind(clock=device).arm()
        sim.run(until=seconds(1) + seconds(1) // 2)
        assert device.gps.enabled
        sim.run(until=seconds(2) + seconds(1) // 2)
        assert not device.gps.enabled
        early = abs(device.oscillator.error_ps())
        sim.run(until=seconds(4) + seconds(1) // 2)
        late = abs(device.oscillator.error_ps())
        assert late > early  # free-running error keeps accruing
        sim.run(until=seconds(9) + seconds(1) // 2)
        assert device.gps.enabled
        assert abs(device.oscillator.error_ps()) < late  # re-acquired

    def test_drift_step_degrades_free_running_clock(self):
        sim = Simulator()
        tester = OSNT(sim, freq_error_ppm=0.0, oscillator_walk_ppb=0.0, gps_enabled=False)
        FaultInjector(
            sim, [{"name": "d", "model": "clock_drift_step", "params": {"ppm": 50.0}}]
        ).bind(clock=tester.device).arm()
        sim.run(until=seconds(1) // 2)
        # 50 ppm over 0.5 s ≈ 25 µs of error.
        assert abs(tester.device.oscillator.error_ps()) > seconds(1) // 2 * 40e-6

    def test_timestamp_freeze_latches(self):
        sim = Simulator()
        tester = OSNT(sim)
        unit = tester.device.timestamp_unit
        FaultInjector(
            sim,
            [{"name": "f", "model": "timestamp_freeze", "start": ms(1), "stop": ms(2)}],
        ).bind(clock=tester.device).arm()
        sim.run(until=ms(1) + us(1))
        frozen_at = unit.device_time_ps()
        sim.run(until=ms(1) + us(500))
        assert unit.device_time_ps() == frozen_at
        sim.run(until=ms(3))
        assert unit.device_time_ps() > frozen_at


# -- control models -----------------------------------------------------------


class TestControlModels:
    def test_flap_loses_messages_while_down(self):
        sim = Simulator()
        channel = ControlChannel(sim)
        got = []
        channel.switch.on_message = got.append
        channel.controller.on_message = lambda m: None
        FaultInjector(
            sim,
            [
                {
                    "name": "flap",
                    "model": "control_flap",
                    "params": {"period": "10ms", "down_time": "4ms"},
                }
            ],
        ).bind(control=channel).arm()
        for i in range(10):
            sim.call_at(ms(i) + us(1), channel.controller.send, EchoRequest(xid=i))
        sim.run(until=ms(20))
        assert 0 < len(got) < 10
        assert channel.dropped_messages == 10 - len(got)

    def test_flap_down_time_must_fit_period(self):
        sim = Simulator()
        channel = ControlChannel(sim)
        injector = FaultInjector(
            sim,
            [
                {
                    "name": "flap",
                    "model": "control_flap",
                    "params": {"period": "2ms", "down_time": "2ms"},
                }
            ],
        )
        with pytest.raises(FaultError, match="down_time"):
            injector.bind(control=channel).arm()

    def test_latency_spike_slows_delivery(self):
        def arrival(extra):
            sim = Simulator()
            channel = ControlChannel(sim)
            times = []
            channel.switch.on_message = lambda m: times.append(sim.now)
            channel.controller.on_message = lambda m: None
            if extra:
                FaultInjector(
                    sim,
                    [
                        {
                            "name": "spike",
                            "model": "control_latency",
                            "params": {"extra": extra},
                        }
                    ],
                ).bind(control=channel).arm()
            channel.controller.send(EchoRequest(xid=1))
            sim.run()
            return times[0]

        assert arrival("1ms") - arrival(None) == ms(1)


# -- mac drop accounting (satellite regression) -------------------------------


class TestMacDropAccounting:
    def test_overflow_and_injected_are_separate_counters(self):
        sim = Simulator()
        a = EthernetPort(sim, "a", tx_fifo_bytes=256)
        b = EthernetPort(sim, "b")
        link = connect(a, b)
        FaultInjector(
            sim, [{"name": "loss", "model": "link_loss", "params": {"rate": 1.0}}]
        ).bind(link=link).arm()
        # Burst enough frames into the tiny TX FIFO to overflow it.
        for __ in range(8):
            a.send(build_udp(frame_size=128))
        sim.run()
        assert a.tx.stats.drops_overflow > 0  # genuine FIFO tail drops
        assert a.tx.stats.drops_injected == 0
        assert b.rx.stats.drops_injected > 0  # fault-model losses
        assert b.rx.stats.drops_overflow == 0
        assert (
            a.tx.stats.drops_overflow + b.rx.stats.drops_injected == 8
        ), "every frame is accounted exactly once"

    def test_metrics_registry_exposes_both(self):
        sim = Simulator()
        a = EthernetPort(sim, "a")
        registry = MetricsRegistry()
        a.tx.stats.register_metrics(registry, "mac")
        snapshot = registry.snapshot()
        assert "mac.drops.overflow" in snapshot
        assert "mac.drops.injected" in snapshot


# -- zero-rate impairments are no-ops (property) ------------------------------


def _capture_bytes(frame_size, count, with_zero_rate_faults):
    sim = Simulator()
    a = EthernetPort(sim, "a")
    b = EthernetPort(sim, "b")
    link = connect(a, b)
    received = []
    b.add_rx_sink(lambda p: received.append((sim.now, bytes(p.data))))
    if with_zero_rate_faults:
        FaultInjector(
            sim,
            [
                {"name": "loss", "model": "link_loss", "params": {"rate": 0.0}},
                {"name": "dirt", "model": "link_corrupt", "params": {"rate": 0.0}},
                {"name": "jit", "model": "link_jitter", "params": {"max_jitter": 0}},
                {"name": "ro", "model": "link_reorder", "params": {"rate": 0.0}},
            ],
        ).bind(link=link).arm()
    send_frames(sim, a, count, frame_size=frame_size)
    return received


class TestZeroRateNoOp:
    @settings(max_examples=10, deadline=None)
    @given(
        frame_size=st.sampled_from([64, 128, 512, 1518]),
        count=st.integers(min_value=1, max_value=40),
    )
    def test_zero_rate_link_faults_do_not_change_capture(self, frame_size, count):
        clean = _capture_bytes(frame_size, count, with_zero_rate_faults=False)
        faulted = _capture_bytes(frame_size, count, with_zero_rate_faults=True)
        assert faulted == clean  # timestamps AND payload bytes identical

    def test_zero_rate_end_to_end_scenario(self):
        from repro.faults.scenarios import lossy_link_latency_point

        clean, __ = lossy_link_latency_point(loss_rate=0.0, duration=ms(1))
        assert clean.probes_captured == clean.probes_sent
        assert clean.drops_injected == 0


# -- sweep determinism (satellite) --------------------------------------------


def lossy_spec(tmp=None):
    return ExperimentSpec.from_dict(
        {
            "name": "faults-determinism",
            "scenario": "lossy_link_latency",
            "params": {"duration": "0.5ms"},
            "axes": {"loss_rate": [0.0, 0.05], "burst": [1.0, 4.0]},
            "seed": 11,
        }
    )


class TestFaultSweepDeterminism:
    def test_workers_do_not_change_fault_timeline(self):
        serial = run_spec(lossy_spec(), workers=1).merged_json()
        parallel = run_spec(lossy_spec(), workers=4).merged_json()
        assert serial == parallel

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        baseline = run_spec(lossy_spec(), workers=1).merged_json()
        ckpt = str(tmp_path / "ckpt")
        partial = run_spec(lossy_spec(), workers=1, checkpoint_dir=ckpt, max_shards=2)
        assert not partial.complete
        resumed = run_spec(lossy_spec(), workers=4, checkpoint_dir=ckpt)
        assert resumed.complete
        assert resumed.merged_json() == baseline

    def test_gps_holdover_scenario_deterministic(self):
        from repro.faults.scenarios import gps_holdover_drift_point

        one = gps_holdover_drift_point(horizon_s=4, seed=9)
        two = gps_holdover_drift_point(horizon_s=4, seed=9)
        assert one == two


# -- graceful degradation (acceptance) ----------------------------------------


class TestGracefulDegradation:
    def test_flowmod_under_flap_degrades_instead_of_raising(self):
        from repro.runner.registry import get_scenario

        result = get_scenario("flowmod_under_flap")({"n_rules": 8}, seed=1)
        assert result["degraded"] is True
        assert result["control_retries"] > 0
        assert result["rules_activated"] < 8

    def test_oflops_module_degrades_with_telemetry(self):
        from repro.runner.registry import get_scenario

        result = get_scenario("oflops")(
            {
                "module": "flow_mod_latency",
                "n_rules": 4,
                "max_duration": "20ms",
                "impairments": [
                    {
                        "name": "flap",
                        "model": "control_flap",
                        "params": {"period": "8ms", "down_time": "5ms"},
                    }
                ],
                "telemetry": True,
            },
            seed=3,
        )
        assert result["degraded"] is True
        assert result["control_retries"] >= 1
        telemetry = result["telemetry"]
        assert telemetry["oflops.module.degraded"] == 1
        assert telemetry["oflops.control.retries"] == result["control_retries"]
        assert telemetry["oflops.faults.flap.activate"] == 1
        assert telemetry["oflops.control.dropped"] > 0

    def test_unimpaired_flowmod_keeps_historical_schema(self):
        from repro.runner.registry import get_scenario

        result = get_scenario("flowmod_latency")({"n_rules": 4}, seed=0)
        assert "degraded" not in result
        assert "control_retries" not in result
        assert "control_latency_ps" in result
