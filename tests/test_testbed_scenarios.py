"""Integration tests over the testbed point functions (experiments E1-E7).

These assert the *shape* of each result — who wins and by what kind of
factor — which is exactly what the benchmark harness prints.
"""

import pytest

from repro.testbed import (
    CAPTURE_VARIANTS,
    capture_path_point,
    clock_error_point,
    flowmod_latency_point,
    forwarding_consistency_point,
    idt_precision_point,
    imix_source,
    legacy_latency_point,
    legacy_testbed,
    line_rate_point,
    load_points,
    multi_flow_source,
    openflow_testbed,
    timestamp_placement_point,
)
from repro.sim import Simulator
from repro.units import line_rate_pps, ms, us


class TestWorkloads:
    def test_load_points(self):
        assert load_points(4) == [0.25, 0.5, 0.75, 1.0]
        assert load_points(2, maximum=0.5) == [0.25, 0.5]

    def test_imix_source_pattern(self):
        source = imix_source(loops=2)
        sizes = []
        index = 0
        while True:
            packet = source.next_packet(index)
            if packet is None:
                break
            sizes.append(packet.frame_length)
            index += 1
        assert len(sizes) == 24
        assert sizes[:12].count(64) == 7
        assert sizes[:12].count(576) == 4
        assert sizes[:12].count(1518) == 1

    def test_multi_flow_source_distinct_flows(self):
        from repro.net import extract_five_tuple

        source = multi_flow_source(128, flow_count=5, count=10)
        tuples = {
            extract_five_tuple(source.next_packet(i).data) for i in range(10)
        }
        assert len(tuples) == 5


class TestE1LineRate:
    def test_full_line_rate_at_64_and_1518(self):
        for size in (64, 1518):
            row, __ = line_rate_point(frame_size=size, duration=ms(1))
            # "full line-rate traffic generation regardless of packet size"
            assert row.efficiency > 0.999

    def test_four_ports_aggregate(self):
        row, __ = line_rate_point(frame_size=512, duration=ms(1), ports=4)
        assert row.ports == 4
        assert row.achieved_pps == pytest.approx(4 * line_rate_pps(512), rel=1e-3)


class TestE2Precision:
    def test_hardware_pacing_beats_software(self):
        osnt, software = (
            idt_precision_point(kind=kind, target_gap_ps=us(20), packet_count=300)[0]
            for kind in ("osnt", "software")
        )
        assert osnt.gap_std_ns == 0  # ps-exact pacing
        assert software.gap_std_ns > 100  # µs-scale OS noise
        assert software.mean_gap_ns > osnt.mean_gap_ns

    def test_gps_keeps_clock_sub_microsecond(self):
        free, __ = clock_error_point(mode="free-running", horizon_s=8)
        disciplined, __ = clock_error_point(mode="gps-disciplined", horizon_s=8)
        assert free[-1].abs_error_ns > 100_000  # hundreds of µs adrift
        assert disciplined[-1].abs_error_ns < 1_000  # sub-µs, per the paper
        # Free-running error grows monotonically with 30 ppm drift.
        errors = [r.abs_error_ns for r in free]
        assert errors == sorted(errors)


class TestE3LegacyLatency:
    def test_latency_rises_with_load(self):
        low, high, overload = (
            legacy_latency_point(frame_size=512, load=load, duration=ms(2))[0]
            for load in (0.2, 0.95, 1.2)
        )
        assert low.mean_us < high.mean_us < overload.mean_us
        assert overload.mean_us > 5 * low.mean_us  # saturated queue

    def test_baseline_latency_scales_with_frame_size(self):
        small, large = (
            legacy_latency_point(frame_size=size, load=0.1, duration=ms(2))[0]
            for size in (64, 1518)
        )
        # Store-and-forward: two serializations more for big frames.
        assert large.mean_us > small.mean_us + 2.0

    def test_probes_survive_light_load(self):
        row, __ = legacy_latency_point(frame_size=256, load=0.3, duration=ms(1))
        assert row.switch_drops == 0
        assert row.packets > 0


class TestE4FlowMod:
    @pytest.mark.parametrize("mode", ["spec", "eager"])
    def test_rules_activate_serially(self, mode):
        result = flowmod_latency_point(n_rules=8, barrier_mode=mode)
        assert len(result["rule_activation_ps"]) == 8
        assert result["rule_activation_ps"] == sorted(result["rule_activation_ps"])

    def test_spec_barrier_is_honest(self):
        result = flowmod_latency_point(n_rules=8, barrier_mode="spec")
        assert result["control_latency_ps"] >= result["data_plane_complete_ps"] - us(100)

    def test_eager_barrier_lies(self):
        result = flowmod_latency_point(n_rules=8, barrier_mode="eager")
        # The control plane claims completion long before the data plane.
        assert result["control_says_done_before_data_ps"] > us(300)

    def test_more_rules_take_longer(self):
        small = flowmod_latency_point(n_rules=4, barrier_mode="spec")
        large = flowmod_latency_point(n_rules=16, barrier_mode="spec")
        assert large["data_plane_complete_ps"] > small["data_plane_complete_ps"]


class TestE5Consistency:
    def test_spec_switch_consistent_after_barrier(self):
        result = forwarding_consistency_point(n_rules=8, barrier_mode="spec")
        assert result.stale_after_barrier == 0
        assert result.stale_during_update > 0  # transition is never free

    def test_eager_switch_stale_after_barrier(self):
        result = forwarding_consistency_point(n_rules=8, barrier_mode="eager")
        # Stale packets past the barrier = the inconsistency window; it
        # is a strict subset of the whole transition.
        assert result.stale_after_barrier > 0
        assert result.stale_after_barrier < result.stale_during_update


def capture_rows(load):
    return [
        capture_path_point(load=load, variant=variant, duration=ms(1))[0]
        for variant in CAPTURE_VARIANTS
    ]


class TestE6CapturePath:
    def test_full_capture_loses_at_high_load(self):
        rows = capture_rows(0.9)
        full = next(r for r in rows if r.variant == "full")
        assert full.dropped > 0
        assert full.capture_fraction < 1.0

    def test_cutting_restores_lossless_capture(self):
        rows = capture_rows(0.9)
        cut = next(r for r in rows if r.variant == "cut-64")
        assert cut.dropped == 0
        assert cut.capture_fraction == 1.0

    def test_thinning_restores_lossless_capture(self):
        rows = capture_rows(0.9)
        thin = next(r for r in rows if r.variant == "thin-1in8")
        assert thin.dropped == 0

    def test_low_load_lossless_everywhere(self):
        rows = capture_rows(0.1)
        assert all(r.dropped == 0 for r in rows)


class TestE7TimestampPlacement:
    def test_host_timestamps_noisier_under_load(self):
        row, __ = timestamp_placement_point(load=0.8, duration=ms(1))
        assert row.host_std_us > 10 * row.hw_std_us
        assert row.host_mean_us > row.hw_mean_us

    def test_hw_measurement_unaffected_by_capture_load(self):
        low, high = (
            timestamp_placement_point(load=load, duration=ms(1))[0]
            for load in (0.2, 0.8)
        )
        # Hardware-stamped latency statistics stay stable while host-side
        # statistics blow up with DMA/host queueing.
        assert high.hw_std_us < 0.1
        assert high.host_std_us > low.host_std_us


class TestTopologies:
    def test_legacy_testbed_wiring(self):
        sim = Simulator()
        bed = legacy_testbed(sim)
        assert bed.tester.port(0).connected
        assert bed.tester.port(1).connected
        assert not bed.tester.port(2).connected

    def test_openflow_testbed_has_channels(self):
        sim = Simulator()
        bed = openflow_testbed(sim, wire_cross_ports=True)
        assert bed.tester.port(2).connected
        assert bed.snmp.ports is not None
        assert bed.controller is bed.channel.controller


class TestMultiCardSync:
    def test_gps_bounds_one_way_error(self):
        from repro.testbed import measure_one_way_latency

        rows = measure_one_way_latency(True, sample_times_s=[2, 6])
        assert all(abs(row.error_ns) < 100 for row in rows)

    def test_free_running_cards_disagree(self):
        from repro.testbed import measure_one_way_latency

        rows = measure_one_way_latency(False, sample_times_s=[2, 6])
        assert all(abs(row.error_ns) > 10_000 for row in rows)
        # Error grows with elapsed time (55 ppm relative drift).
        assert abs(rows[1].error_ns) > abs(rows[0].error_ns)


class TestRfc2544:
    def test_nonblocking_switch_full_line_rate(self):
        from repro.testbed import rfc2544_throughput

        result = rfc2544_throughput(512, duration_ps=ms(1))
        assert result.throughput_load == 1.0
        assert result.latency_mean_us < 5
        assert len(result.trials) == 1  # line rate passed first try

    def test_oversubscribed_fabric_found(self):
        from repro.testbed import default_switch_factory, rfc2544_throughput
        from repro.units import GBPS

        result = rfc2544_throughput(
            512,
            switch_factory=default_switch_factory(fabric_rate_bps=5 * GBPS),
            duration_ps=ms(2),
        )
        # The binary search converges near the 5G fabric limit (short
        # trials overshoot slightly while buffers absorb the excess).
        assert 0.45 < result.throughput_load < 0.62
        assert all(
            trial.lossless == (trial.load <= result.throughput_load)
            for trial in result.trials
        )

    def test_lower_fabric_lower_throughput(self):
        from repro.testbed import default_switch_factory, rfc2544_throughput
        from repro.units import GBPS

        fast = rfc2544_throughput(
            512,
            switch_factory=default_switch_factory(fabric_rate_bps=6 * GBPS),
            duration_ps=ms(1),
            resolution=0.05,
        )
        slow = rfc2544_throughput(
            512,
            switch_factory=default_switch_factory(fabric_rate_bps=3 * GBPS),
            duration_ps=ms(1),
            resolution=0.05,
        )
        assert slow.throughput_load < fast.throughput_load


class TestFabricModel:
    def test_fabric_drops_counted(self):
        from repro.devices import LegacySwitch
        from repro.hw import EthernetPort, connect
        from repro.net import build_udp
        from repro.units import GBPS

        sim = Simulator()
        switch = LegacySwitch(sim, fabric_rate_bps=1 * GBPS, latency_jitter_ps=0)
        a = EthernetPort(sim, "a")
        b = EthernetPort(sim, "b")
        connect(a, switch.port(0))
        connect(b, switch.port(1))
        # Teach, then blast at 10G into a 1G fabric.
        b.send(build_udp(src_mac="02:00:00:00:00:02", dst_mac="02:00:00:00:00:01"))
        sim.run(until=us(10))
        received = []
        b.add_rx_sink(received.append)
        for __ in range(2000):
            a.send(build_udp(frame_size=512, src_mac="02:00:00:00:00:01",
                             dst_mac="02:00:00:00:00:02"))
        sim.run()
        assert switch.dropped_fabric > 0
        assert len(received) + switch.dropped_fabric + a.tx.fifo.dropped == 2000

    def test_fabric_validation(self):
        from repro.devices import LegacySwitch
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            LegacySwitch(Simulator(), fabric_rate_bps=0)
