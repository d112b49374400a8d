"""Tests for the OFLOPS-turbo framework and measurement modules."""

import pytest

from repro.devices import SwitchProfile
from repro.errors import OflopsError
from repro.oflops import (
    EchoLatencyModule,
    FlowModLatencyModule,
    ForwardingConsistencyModule,
    MeasurementModule,
    ModuleRunner,
    OflopsContext,
    PacketInLatencyModule,
    ThroughputModule,
    render_result,
)
from repro.oflops.modules import ALL_MODULES
from repro.openflow import Match, OutputAction, constants as ofp
from repro.units import us


def profiled_runner(barrier_mode="spec", **profile_kwargs):
    profile_kwargs.setdefault("firmware_delay_ps", us(10))
    profile_kwargs.setdefault("table_write_ps", us(100))
    profile = SwitchProfile(barrier_mode=barrier_mode, **profile_kwargs)
    return ModuleRunner(OflopsContext(profile=profile))


class TestChannels:
    def test_control_xids_unique_and_correlated(self):
        ctx = OflopsContext()
        first = ctx.control.echo()
        second = ctx.control.echo()
        assert first != second
        ctx.run_for(us(500))
        assert ctx.control.rtt_of(first) is not None
        assert ctx.control.rtt_of(second) is not None

    def test_rtt_none_before_reply(self):
        ctx = OflopsContext()
        xid = ctx.control.barrier()
        assert ctx.control.rtt_of(xid) is None

    def test_flow_helpers_install_and_delete(self):
        ctx = OflopsContext()
        ctx.control.add_flow(Match.exact(tp_dst=80), [OutputAction(2)])
        barrier = ctx.control.barrier()
        ctx.run_for(us(2000))
        assert ctx.control.rtt_of(barrier) is not None
        assert len(ctx.switch.table) == 1
        ctx.control.delete_flow(Match())
        ctx.control.barrier()
        ctx.run_for(us(2000))
        assert len(ctx.switch.table) == 0

    def test_snmp_polling_collects_samples(self):
        ctx = OflopsContext()
        ctx.snmp.start_polling(of_port=1, interval_ps=us(500))
        ctx.run_for(us(5100))
        ctx.snmp.stop_polling()
        assert len(ctx.snmp.samples) >= 5
        times = [s.time_ps for s in ctx.snmp.samples]
        assert times == sorted(times)

    def test_features_roundtrip(self):
        ctx = OflopsContext()
        xid = ctx.control.request_features()
        ctx.run_for(us(1000))
        assert ctx.control.rtt_of(xid) is not None


class TestRunner:
    def test_timeout_raises(self):
        class NeverDone(MeasurementModule):
            name = "never"
            max_duration_ps = us(100)

            def start(self, ctx):
                pass

            def is_finished(self, ctx):
                return False

        with pytest.raises(OflopsError):
            ModuleRunner().run(NeverDone())

    def test_result_has_module_and_duration(self):
        result = ModuleRunner().run(EchoLatencyModule(count=3))
        assert result["module"] == "echo_latency"
        assert result["simulated_ps"] > 0

    def test_registry_complete(self):
        assert set(ALL_MODULES) == {
            "control_interaction",
            "echo_latency",
            "flow_expiry",
            "flow_mod_latency",
            "forwarding_consistency",
            "packet_in_latency",
            "port_stats_accuracy",
            "throughput",
        }


class TestEchoModule:
    def test_rtt_matches_channel_and_firmware(self):
        result = profiled_runner().run(EchoLatencyModule(count=10))
        assert result["count"] == 10
        # RTT = 2×50µs channel latency + 10µs firmware + serialization.
        assert 100 < result["rtt_mean_us"] < 150
        assert result["rtt_p99_us"] >= result["rtt_p50_us"]


class TestPacketInModule:
    def test_latency_positive_and_bounded(self):
        result = ModuleRunner().run(PacketInLatencyModule(count=20))
        assert result["count"] == 20
        # One-way: datapath lookup + packet_in delay + firmware-free send
        # + 50 µs channel ≥ ~70 µs; well under a millisecond.
        assert 50 < result["latency_mean_us"] < 1000


class TestFlowModModule:
    def test_spec_vs_eager_contrast(self):
        spec = profiled_runner("spec").run(FlowModLatencyModule(n_rules=8))
        eager = profiled_runner("eager").run(FlowModLatencyModule(n_rules=8))
        # Same hardware: identical data-plane completion.
        assert spec["data_done_us"] == pytest.approx(eager["data_done_us"], rel=0.05)
        # Honest barrier ≥ data completion; eager barrier far below it.
        assert spec["control_done_us"] >= spec["data_done_us"] - 100
        assert eager["barrier_understates_by_us"] > 300
        assert spec["barrier_understates_by_us"] < 100

    def test_per_rule_activations_increase(self):
        result = profiled_runner().run(FlowModLatencyModule(n_rules=6))
        activations = result["per_rule_activation_us"]
        assert activations == sorted(activations)
        assert len(activations) == 6


class TestConsistencyModule:
    def test_eager_inconsistency_detected(self):
        result = profiled_runner("eager").run(ForwardingConsistencyModule(n_rules=8))
        assert result["stale_after_barrier"] > 0
        assert result["new_path_packets"] > 0

    def test_spec_consistency(self):
        result = profiled_runner("spec").run(ForwardingConsistencyModule(n_rules=8))
        assert result["stale_after_barrier"] == 0


class TestThroughputModule:
    def test_line_rate_forwarding_with_channel_agreement(self):
        result = ModuleRunner().run(ThroughputModule())
        assert result["loss"] == 0
        assert result["channels_agree"] is True
        # 512B goodput at 10G line rate ≈ 9.62 Gbps.
        assert result["forwarding_bps"] == pytest.approx(9.62e9, rel=0.01)


class TestReport:
    def test_render_result_compact_lists(self):
        text = render_result({"module": "m", "values": list(range(20)), "x": 1.5})
        assert "20 values" in text
        assert "1.500" in text


class TestFlowExpiryModule:
    def test_expiry_within_one_scan_period(self):
        from repro.oflops.modules import FlowExpiryModule

        result = ModuleRunner().run(FlowExpiryModule(timeouts_s=[1, 2]))
        for row in result["expiries"]:
            assert row["observed_s"] >= row["configured_s"]
            # The firmware scans once a second: never more than a scan
            # period (plus control-path slack) late.
            assert row["lateness_ms"] <= 1_001

    def test_longer_timeouts_expire_later(self):
        from repro.oflops.modules import FlowExpiryModule

        result = ModuleRunner().run(FlowExpiryModule(timeouts_s=[1, 3]))
        observed = [row["observed_s"] for row in result["expiries"]]
        assert observed[0] < observed[1]


class TestControlInteractionModule:
    def test_packet_in_storm_inflates_install_latency(self):
        from repro.oflops.modules import ControlInteractionModule

        profile = SwitchProfile(firmware_delay_ps=us(30), table_write_ps=us(20))
        result = ModuleRunner(OflopsContext(profile=profile)).run(
            ControlInteractionModule()
        )
        assert result["packet_ins_during_run"] > 10
        assert result["inflation"] > 2.0
        assert result["loaded_install_us"] > result["quiet_install_us"]


class TestPortStatsModule:
    def test_counters_accurate_and_converge(self):
        from repro.oflops.modules import PortStatsAccuracyModule

        result = ModuleRunner().run(PortStatsAccuracyModule(packet_count=300))
        assert result["counters_accurate"] is True
        assert result["osnt_ground_truth"] == 300
        assert result["polls"] >= 2
        # Convergence lag is bounded by one poll interval + control RTT.
        assert 0 <= result["convergence_lag_us"] < 500

    def test_faster_polling_tightens_lag(self):
        from repro.oflops.modules import PortStatsAccuracyModule
        from repro.units import us as us_

        slow = ModuleRunner().run(
            PortStatsAccuracyModule(packet_count=200, poll_interval_ps=us_(2000))
        )
        fast = ModuleRunner().run(
            PortStatsAccuracyModule(packet_count=200, poll_interval_ps=us_(100))
        )
        assert fast["polls"] > slow["polls"]


class TestChannelEvents:
    def test_typed_packet_in_events(self):
        runner = profiled_runner()
        runner.run(PacketInLatencyModule(count=5))
        handle = runner.ctx.control
        events = handle.packet_in_events()
        assert events
        for event in events:
            assert event.kind == "packet_in"
            assert isinstance(event.timestamp_ps, int)
            assert event.payload["total_len"] > 0
            assert "in_port" in event.payload
            assert event.message is not None  # raw message stays reachable
        assert handle.events("packet_in") == events
        assert handle.events("flow_removed") == []

    def test_echo_events_decoded(self):
        ctx = OflopsContext()
        xid = ctx.control.echo(payload=b"ping")
        ctx.run_for(us(500))
        events = ctx.control.events("echo_reply")
        assert len(events) == 1
        assert events[0].xid == xid
        assert events[0].payload["payload_len"] == len(b"ping")

    def test_sync_barrier_healthy_channel_no_retries(self):
        ctx = OflopsContext()
        rtt = ctx.control.sync_barrier(ctx.run_for, us(5000), retries=3)
        assert rtt is not None
        assert ctx.control.retry_count == 0
