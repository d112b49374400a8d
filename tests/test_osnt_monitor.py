"""Tests for the monitor: filters, reducers, capture pipeline."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CaptureError
from repro.hw import DmaEngine, EthernetPort, TICK_PS, TimestampUnit, connect
from repro.net import build_arp_request, build_tcp, build_udp
from repro.osnt.monitor import (
    CapturePipeline,
    FilterBank,
    FilterRule,
    HashUnit,
    PacketCutter,
    Thinner,
)
from repro.sim import RandomStreams, Simulator
from repro.units import GBPS, ms, us


class TestFilterRules:
    def tuple_of(self, **kwargs):
        from repro.net import extract_five_tuple

        return extract_five_tuple(build_udp(frame_size=100, **kwargs).data)

    def test_exact_dst_ip(self):
        rule = FilterRule(dst_ip="10.0.0.2")
        assert rule.matches(self.tuple_of(dst_ip="10.0.0.2"))
        assert not rule.matches(self.tuple_of(dst_ip="10.0.0.3"))

    def test_prefix_match(self):
        rule = FilterRule(dst_ip="192.168.0.0", dst_prefix_len=16)
        assert rule.matches(self.tuple_of(dst_ip="192.168.55.7"))
        assert not rule.matches(self.tuple_of(dst_ip="192.169.0.1"))

    def test_zero_prefix_is_wildcard(self):
        rule = FilterRule(src_ip="1.2.3.4", src_prefix_len=0)
        assert rule.matches(self.tuple_of(src_ip="9.9.9.9"))

    def test_protocol_and_ports(self):
        rule = FilterRule(protocol=17, dst_port=5001)
        assert rule.matches(self.tuple_of(dst_port=5001))
        assert not rule.matches(self.tuple_of(dst_port=80))

    def test_non_ip_only_matches_all_wildcard(self):
        assert FilterRule().matches(None)
        assert not FilterRule(protocol=17).matches(None)

    def test_bad_prefix_len(self):
        with pytest.raises(CaptureError):
            FilterRule(src_prefix_len=33)


class TestFilterBank:
    def test_priority_first_match_wins(self):
        bank = FilterBank()
        bank.add_rule(FilterRule(dst_port=5001, action_pass=False))
        bank.add_rule(FilterRule(protocol=17, action_pass=True))
        assert not bank.decide(build_udp(dst_port=5001, frame_size=100).data)
        assert bank.decide(build_udp(dst_port=80, frame_size=100).data)

    def test_default_action(self):
        bank = FilterBank(default_pass=False)
        assert not bank.decide(build_udp(frame_size=100).data)
        bank.add_rule(FilterRule(protocol=17))
        assert bank.decide(build_udp(frame_size=100).data)

    def test_capacity_enforced(self):
        bank = FilterBank(size=2)
        bank.add_rule(FilterRule())
        bank.add_rule(FilterRule())
        with pytest.raises(CaptureError):
            bank.add_rule(FilterRule())

    def test_empty_bank_counts_without_reading_the_frame(self):
        bank = FilterBank(default_pass=False)
        assert bank.decide(b"") is False  # no rule: the bytes are never read
        assert (bank.matched, bank.passed, bank.filtered) == (0, 0, 1)

    def test_counters(self):
        bank = FilterBank(default_pass=False)
        bank.add_rule(FilterRule(protocol=17))
        bank.decide(build_udp(frame_size=100).data)
        bank.decide(build_tcp(frame_size=100).data)
        assert bank.matched == 1
        assert bank.passed == 1
        assert bank.filtered == 1

    def test_arp_with_wildcard_rule(self):
        bank = FilterBank(default_pass=False)
        bank.add_rule(FilterRule())  # all-wildcard row passes non-IP too
        assert bank.decide(build_arp_request().data)


class TestReducers:
    def test_cutter_truncates(self):
        cutter = PacketCutter(snaplen=60)
        packet = build_udp(frame_size=512)
        cutter.apply(packet)
        assert packet.capture_length == 60
        assert cutter.cut == 1

    def test_cutter_leaves_short_packets(self):
        cutter = PacketCutter(snaplen=200)
        packet = build_udp(frame_size=100)
        cutter.apply(packet)
        assert packet.capture_length == len(packet.data)
        assert cutter.cut == 0

    def test_cutter_validation(self):
        with pytest.raises(CaptureError):
            PacketCutter(snaplen=10)

    def test_thinner_one_in_n(self):
        thinner = Thinner(keep_one_in=4)
        decisions = [thinner.decide() for __ in range(8)]
        assert decisions == [True, False, False, False] * 2
        assert thinner.kept == 2
        assert thinner.thinned == 6

    def test_thinner_probabilistic(self):
        thinner = Thinner(probability=0.25, rng=RandomStreams(1).stream("thin"))
        kept = sum(thinner.decide() for __ in range(10_000))
        assert kept == pytest.approx(2500, rel=0.1)

    def test_thinner_validation(self):
        with pytest.raises(CaptureError):
            Thinner(keep_one_in=0)
        with pytest.raises(CaptureError):
            Thinner(probability=1.5)

    def test_hash_unit_attaches_digest(self):
        unit = HashUnit()
        packet = build_udp(frame_size=100)
        unit.apply(packet)
        assert packet.hash_value is not None
        assert len(packet.hash_value) == 4

    def test_hash_identical_packets_collide(self):
        unit = HashUnit()
        assert unit.digest(b"same" * 20) == unit.digest(b"same" * 20)
        assert unit.digest(b"same" * 20) != unit.digest(b"diff" * 20)

    def test_hash_cover_bytes(self):
        unit = HashUnit(cover_bytes=16)
        prefix = bytes(16)
        assert unit.digest(prefix + b"AAA") == unit.digest(prefix + b"BBB")

    def test_hash_algorithms_differ(self):
        data = b"fingerprint-me--"
        assert HashUnit("crc32").digest(data) != HashUnit("fletcher32").digest(data)

    def test_hash_unknown_algorithm(self):
        with pytest.raises(CaptureError):
            HashUnit("md5")

    @given(st.binary(min_size=0, max_size=128))
    def test_hash_deterministic(self, data):
        assert HashUnit().digest(data) == HashUnit().digest(data)


def capture_rig(sim, dma_bandwidth=8 * GBPS, ring_slots=1024):
    """A sender port linked to a monitored port with its own DMA."""
    sender = EthernetPort(sim, "send")
    tap = EthernetPort(sim, "tap")
    connect(sender, tap, propagation_ps=0)
    dma = DmaEngine(sim, bandwidth_bps=dma_bandwidth, ring_slots=ring_slots)
    pipeline = CapturePipeline(sim, tap, TimestampUnit(sim), dma)
    return sender, pipeline


class TestCapturePipeline:
    def test_disabled_pipeline_counts_but_does_not_capture(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        sender.send(build_udp(frame_size=100))
        sim.run()
        assert pipeline.stats.rx_packets == 1
        assert pipeline.captured == 0

    def test_enabled_pipeline_captures_with_timestamp(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        sender.send(build_udp(frame_size=100))
        sim.run()
        assert pipeline.captured == 1
        packet = pipeline.host.packets[0]
        assert packet.rx_timestamp is not None
        assert packet.rx_timestamp % TICK_PS == 0

    def test_rx_timestamp_is_arrival_not_host_delivery(self):
        sim = Simulator()
        # Very slow DMA: host delivery is far later than arrival.
        sender, pipeline = capture_rig(sim, dma_bandwidth=0.1 * GBPS)
        pipeline.enable()
        sender.send(build_udp(frame_size=1518))
        sim.run()
        packet = pipeline.host.packets[0]
        # Arrival ≈ 1.2 µs; DMA of ~1582 bytes at 100 Mbps ≈ 126 µs.
        assert packet.rx_timestamp < us(2)
        assert sim.now > us(100)

    def test_filter_drops_before_dma(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        pipeline.filter_bank.default_pass = False
        pipeline.filter_bank.add_rule(FilterRule(dst_port=5001))
        sender.send(build_udp(frame_size=100, dst_port=5001))
        sender.send(build_udp(frame_size=100, dst_port=80))
        sim.run()
        assert pipeline.captured == 1
        assert pipeline.stats.rx_packets == 2

    def test_thinning_reduces_captures(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        pipeline.thinner = Thinner(keep_one_in=10)
        for __ in range(100):
            sender.send(build_udp(frame_size=100))
        sim.run()
        assert pipeline.captured == 10

    def test_cutting_sets_capture_length(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        pipeline.cutter.configure(64)
        sender.send(build_udp(frame_size=1518))
        sim.run()
        assert pipeline.host.packets[0].capture_length == 64

    def test_hash_before_cut_covers_full_packet(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        pipeline.hash_unit = HashUnit()
        pipeline.cutter.configure(64)
        sender.send(build_udp(frame_size=512, fill=b"\x11"))
        sender.send(build_udp(frame_size=512, fill=b"\x22"))
        sim.run()
        first, second = pipeline.host.packets
        # Same first 64 bytes? No - fill differs; but both were hashed
        # over the full frame, so the digests must differ even after
        # cutting made the *captured* prefix lengths equal.
        assert first.hash_value != second.hash_value

    def test_dma_overload_drops_are_counted(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim, dma_bandwidth=1 * GBPS, ring_slots=8)
        pipeline.enable()
        # Burst-enqueueing can tail-drop at the sender's own TX FIFO;
        # only frames that actually hit the wire are conserved here.
        accepted = sum(sender.send(build_udp(frame_size=1518)) for __ in range(500))
        sim.run()
        assert pipeline.dropped > 0
        assert pipeline.captured + pipeline.dropped == accepted
        assert pipeline.stats.rx_packets == accepted  # stats see everything

    def test_cutting_relieves_dma_overload(self):
        def run(snap):
            sim = Simulator()
            sender, pipeline = capture_rig(sim, dma_bandwidth=1 * GBPS, ring_slots=8)
            pipeline.enable()
            if snap:
                pipeline.cutter.configure(snap)
            for __ in range(300):
                sender.send(build_udp(frame_size=1518))
            sim.run()
            return pipeline.dropped

        assert run(snap=64) < run(snap=None)

    def test_host_listener_fires(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        seen = []
        pipeline.host.add_listener(lambda p: seen.append(p.rx_timestamp))
        sender.send(build_udp(frame_size=100))
        sim.run()
        assert len(seen) == 1

    def test_records_reflect_cut(self):
        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        pipeline.enable()
        pipeline.cutter.configure(60)
        sender.send(build_udp(frame_size=512))
        sim.run()
        record = pipeline.host.records()[0]
        assert len(record.data) == 60
        assert record.original_length == 508  # 512 minus 4 FCS bytes


class TestRateMonitor:
    def test_rates_reflect_traffic(self):
        from repro.osnt.monitor import RateMonitor
        from repro.units import GBPS, ms, us

        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        stats = pipeline.port.rx.stats
        rates = RateMonitor(
            sim, lambda: (stats.packets, stats.bytes), interval_ps=us(100)
        )
        rates.start()
        # 10 frames of 1000 bytes over ~1 ms.
        for i in range(10):
            sim.call_after(us(100) * i, lambda: sender.send(build_udp(frame_size=1000)))
        sim.run(until=ms(2))
        rates.stop()
        assert sum(s.packets for s in rates.samples) == 10
        # 1000B per 100 µs window = 80 Mbps in busy windows.
        busy = [s for s in rates.samples if s.packets]
        assert all(abs(s.bps - 80e6) < 1e6 for s in busy)
        assert rates.busy_intervals() == len(busy)

    def test_idle_windows_have_zero_rate(self):
        from repro.osnt.monitor import RateMonitor
        from repro.units import ms, us

        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        stats = pipeline.port.rx.stats
        rates = RateMonitor(sim, lambda: (stats.packets, stats.bytes), interval_ps=us(50))
        rates.start()
        sim.run(until=ms(1))
        assert rates.peak_bps() == 0.0
        assert rates.mean_bps() == 0.0

    def test_history_is_bounded(self):
        from repro.osnt.monitor import RateMonitor
        from repro.units import ms, us

        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        stats = pipeline.port.rx.stats
        rates = RateMonitor(
            sim, lambda: (stats.packets, stats.bytes), interval_ps=us(10), history=16
        )
        rates.start()
        sim.run(until=ms(1))
        assert len(rates.samples) == 16

    def test_stop_halts_sampling(self):
        from repro.osnt.monitor import RateMonitor
        from repro.units import ms, us

        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        stats = pipeline.port.rx.stats
        rates = RateMonitor(sim, lambda: (stats.packets, stats.bytes), interval_ps=us(100))
        rates.start()
        sim.run(until=ms(1))
        count = len(rates.samples)
        rates.stop()
        sim.run(until=ms(2))
        assert len(rates.samples) == count

    def test_stop_restart_keeps_single_tick_chain(self):
        """Regression: stop() then start() before the pending daemon
        tick fired used to leave two live tick chains, doubling the
        sampling rate from then on."""
        from repro.osnt.monitor import RateMonitor
        from repro.units import ms, us

        sim = Simulator()
        sender, pipeline = capture_rig(sim)
        stats = pipeline.port.rx.stats
        rates = RateMonitor(sim, lambda: (stats.packets, stats.bytes), interval_ps=us(100))
        rates.start()
        sim.run(until=us(250))  # mid-interval: a tick is pending
        count_before = len(rates.samples)
        rates.stop()
        rates.start()  # old chain's tick still pending at us(300)
        sim.run(until=ms(1))
        # Exactly one chain: one sample per interval from the restart,
        # not two interleaved chains sampling at double rate.
        expected = (ms(1) - us(250)) // us(100)
        assert len(rates.samples) - count_before == expected
        times = [s.time_ps for s in rates.samples[count_before:]]
        assert times == sorted(times)
        deltas = {b - a for a, b in zip(times, times[1:])}
        assert deltas == {us(100)}

    def test_stop_restart_repeatedly_is_stable(self):
        from repro.osnt.monitor import RateMonitor
        from repro.units import us

        sim = Simulator()
        rates = RateMonitor(sim, lambda: (0, 0), interval_ps=us(10))
        for __ in range(5):
            rates.start()
            rates.stop()
        rates.start()
        sim.run(until=us(100))
        assert len(rates.samples) == 10
        assert sim.pending_events() <= 1  # one pending tick, not six

    def test_validation(self):
        from repro.errors import ConfigError
        from repro.osnt.monitor import RateMonitor

        sim = Simulator()
        with pytest.raises(ConfigError):
            RateMonitor(sim, lambda: (0, 0), interval_ps=0)
        with pytest.raises(ConfigError):
            RateMonitor(sim, lambda: (0, 0), history=0)

    def test_api_rate_monitor(self):
        from repro.hw import connect
        from repro.osnt import OSNT
        from repro.units import ms, us

        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        rates = tester.monitor(1).rate_monitor(interval_ps=us(200))
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=512), count=100)
        gen.set_load(0.5)
        gen.start()
        sim.run(until=ms(1))
        rates.stop()
        assert sum(s.packets for s in rates.samples) == 100
        assert rates.peak_bps() > 0


class TestSnaplenNaming:
    def test_snaplen_is_the_supported_name(self):
        cutter = PacketCutter(snaplen=60)
        assert cutter.snaplen == 60

    def test_start_capture_takes_snaplen(self):
        from repro.osnt import OSNT

        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        monitor = tester.monitor(1)
        monitor.start_capture(snaplen=64)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=512), count=5)
        gen.start()
        sim.run()
        assert all(p.capture_length == 64 for p in monitor.packets)


class TestDeclarativeFilters:
    def test_from_rules_with_cli_shorthand(self):
        bank = FilterBank.from_rules(
            [{"src": "10.0.0.0/8", "protocol": 17}, {"dst": "10.0.0.9", "action": "drop"}]
        )
        assert len(bank.rules) == 2
        assert bank.rules[0].src_ip == "10.0.0.0"
        assert bank.rules[0].src_prefix_len == 8
        assert bank.rules[1].dst_prefix_len == 32
        assert bank.rules[1].action_pass is False
        # One pass rule exists → unmatched traffic drops by default.
        assert bank.default_pass is False

    def test_from_rules_all_drop_rules_pass_by_default(self):
        bank = FilterBank.from_rules([{"dst_port": 53, "action": "drop"}])
        assert bank.default_pass is True
        assert bank.decide(build_udp(frame_size=128, dst_port=53).data) is False
        assert bank.decide(build_udp(frame_size=128, dst_port=80).data) is True

    def test_from_rules_json_string(self):
        bank = FilterBank.from_rules('[{"dst_port": 5001}]')
        assert bank.rules[0].dst_port == 5001
        with pytest.raises(CaptureError, match="not valid JSON"):
            FilterBank.from_rules("{nope")

    def test_from_spec_rejects_unknown_fields_and_actions(self):
        with pytest.raises(CaptureError, match="unknown filter rule field"):
            FilterRule.from_spec({"port": 80})
        with pytest.raises(CaptureError, match="pass/drop"):
            FilterRule.from_spec({"dst_port": 80, "action": "reject"})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"dst": "10.0.0.300"}, "dst"),
            ({"dst": "nonsense/8"}, "dst"),
            ({"src": "10.0.0.0/abc"}, "src"),
        ],
    )
    def test_bad_address_fails_at_entry_naming_the_field(self, spec, field):
        with pytest.raises(CaptureError, match=f"'{field}"):
            FilterBank.from_rules([spec])

    def test_bad_address_fails_at_add_rule(self):
        bank = FilterBank()
        with pytest.raises(CaptureError, match="'src_ip'"):
            bank.add_rule(FilterRule(src_ip="1.2.3"))
        assert bank.rules == []

    def test_monitor_add_filter_rejects_bad_address(self):
        from repro.osnt import OSNT

        monitor = OSNT(Simulator()).monitor(1)
        with pytest.raises(CaptureError, match="'dst_ip'"):
            monitor.add_filter(dst_ip="10.0.0.256")

    def test_from_spec_passthrough(self):
        rule = FilterRule(dst_port=80)
        assert FilterRule.from_spec(rule) is rule

    def test_monitor_add_filter_accepts_declarative_rule(self):
        from repro.osnt import OSNT

        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        monitor = tester.monitor(1)
        monitor.start_capture()
        monitor.add_filter({"dst_port": 5001})
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=256, dst_port=5001), count=4)
        gen.start()
        sim.run()
        assert monitor.captured_count == 4

    def test_monitor_set_filters_routes_through_bank(self):
        from repro.osnt import OSNT

        sim = Simulator()
        tester = OSNT(sim)
        connect(tester.port(0), tester.port(1))
        monitor = tester.monitor(1)
        monitor.start_capture()
        monitor.set_filters([{"dst_port": 9999}])  # nothing we send matches
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=256, dst_port=5001), count=4)
        gen.start()
        sim.run()
        assert monitor.captured_count == 0
