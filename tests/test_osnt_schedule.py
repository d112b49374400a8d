"""Tests for generator IDT schedules and field modifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError, GeneratorError
from repro.net import build_tcp, build_udp, decode
from repro.net.checksum import internet_checksum
from repro.osnt.generator import (
    Bursts,
    ConstantBitRate,
    ConstantGap,
    ExplicitGaps,
    Ipv4AddressSweep,
    LineRate,
    PoissonGaps,
    SequenceNumber,
    TemplateSource,
    UdpPortSweep,
    VlanIdRewrite,
    rate_for_load,
)
from repro.sim import RandomStreams
from repro.units import GBPS, TEN_GBPS, frame_wire_bytes, wire_time_ps


class TestSchedules:
    def test_line_rate_gap_is_wire_slot(self):
        schedule = LineRate()
        assert schedule.gap_after(64) == wire_time_ps(84, TEN_GBPS)
        assert schedule.gap_after(1518) == wire_time_ps(1538, TEN_GBPS)

    def test_cbr_half_load_doubles_gap(self):
        full = LineRate().gap_after(512)
        half = ConstantBitRate(5 * GBPS).gap_after(512)
        assert half == pytest.approx(2 * full, rel=1e-9)

    def test_cbr_long_run_rate_exact(self):
        # The fractional accumulator keeps the long-run average exact
        # even when per-packet gaps round to integer ps.
        target = 3.3333e9
        schedule = ConstantBitRate(target)
        total = sum(schedule.gap_after(64) for __ in range(10_000))
        achieved = 10_000 * frame_wire_bytes(64) * 8 * 1e12 / total
        assert achieved == pytest.approx(target, rel=1e-9)

    def test_cbr_rejects_above_line_rate(self):
        with pytest.raises(ConfigError):
            ConstantBitRate(11 * GBPS)
        with pytest.raises(ConfigError):
            ConstantBitRate(0)

    def test_constant_gap_clamped_to_wire_time(self):
        schedule = ConstantGap(gap_ps=100)  # absurdly small
        assert schedule.gap_after(1518) == wire_time_ps(1538, TEN_GBPS)

    def test_constant_gap_above_wire_time_respected(self):
        schedule = ConstantGap(gap_ps=10_000_000)
        assert schedule.gap_after(64) == 10_000_000

    def test_poisson_mean(self):
        rng = RandomStreams(3).stream("poisson")
        schedule = PoissonGaps(mean_gap_ps=1_000_000, stream=rng)
        gaps = [schedule.gap_after(64) for __ in range(5_000)]
        assert min(gaps) >= 0
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1_000_000, rel=0.05)

    def test_poisson_clamped_mode(self):
        rng = RandomStreams(3).stream("poisson")
        schedule = PoissonGaps(mean_gap_ps=100_000, stream=rng, clamp_to_wire=True)
        floor = wire_time_ps(84, TEN_GBPS)
        gaps = [schedule.gap_after(64) for __ in range(500)]
        assert min(gaps) >= floor

    def test_poisson_options_are_keyword_only(self):
        # A stream passed positionally must not become line_rate_bps.
        with pytest.raises(TypeError):
            PoissonGaps(500_000, RandomStreams(1).stream("p"))

    def test_poisson_reproducible(self):
        first = PoissonGaps(500_000, stream=RandomStreams(1).stream("p"))
        second = PoissonGaps(500_000, stream=RandomStreams(1).stream("p"))
        assert [first.gap_after(64) for __ in range(50)] == [
            second.gap_after(64) for __ in range(50)
        ]

    def test_bursts(self):
        schedule = Bursts(burst_len=3, idle_gap_ps=1_000_000)
        wire = wire_time_ps(84, TEN_GBPS)
        gaps = [schedule.gap_after(64) for __ in range(6)]
        assert gaps == [wire, wire, wire + 1_000_000, wire, wire, wire + 1_000_000]

    def test_bursts_reset(self):
        schedule = Bursts(burst_len=2, idle_gap_ps=99)
        schedule.gap_after(64)
        schedule.reset()
        wire = wire_time_ps(84, TEN_GBPS)
        assert schedule.gap_after(64) == wire  # first of a burst again

    def test_explicit_gaps_with_exhaustion(self):
        schedule = ExplicitGaps([10_000_000, 20_000_000])
        wire = wire_time_ps(84, TEN_GBPS)
        assert schedule.gap_after(64) == 10_000_000
        assert schedule.gap_after(64) == 20_000_000
        assert schedule.gap_after(64) == wire  # exhausted: line rate

    def test_rate_for_load(self):
        assert rate_for_load(0.5) == 5 * GBPS
        with pytest.raises(ConfigError):
            rate_for_load(0.0)
        with pytest.raises(ConfigError):
            rate_for_load(1.1)

    @given(st.floats(min_value=0.01, max_value=1.0))
    def test_cbr_gap_scales_inverse_with_load(self, load):
        gap = ConstantBitRate(rate_for_load(load)).gap_after(512)
        line = LineRate().gap_after(512)
        assert gap == pytest.approx(line / load, abs=1)


class TestFieldModifiers:
    def test_ipv4_dst_sweep_cycles(self):
        sweep = Ipv4AddressSweep("dst", "10.0.0.1", count=3)
        template = build_udp(frame_size=128)
        addresses = [
            decode(sweep.apply(template.data, i)).ipv4.dst for i in range(5)
        ]
        assert addresses == ["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.1", "10.0.0.2"]

    def test_sweep_fixes_ip_checksum(self):
        sweep = Ipv4AddressSweep("src", "172.16.0.1", count=10)
        template = build_udp(frame_size=128)
        for index in range(4):
            data = sweep.apply(template.data, index)
            assert internet_checksum(data[14:34]) == 0

    def test_sweep_zeroes_udp_checksum(self):
        sweep = Ipv4AddressSweep("dst", "10.0.0.1", count=2)
        data = sweep.apply(build_udp(frame_size=128).data, 0)
        assert decode(data).udp.checksum == 0

    def test_sweep_stride(self):
        sweep = Ipv4AddressSweep("dst", "10.0.0.0", count=4, stride=256)
        data = sweep.apply(build_udp(frame_size=128).data, 2)
        assert decode(data).ipv4.dst == "10.0.2.0"

    def test_sweep_ignores_non_ip(self):
        from repro.net import build_arp_request

        sweep = Ipv4AddressSweep("dst", "10.0.0.1", count=2)
        data = build_arp_request().data
        assert sweep.apply(data, 0) == data

    def test_sweep_validation(self):
        with pytest.raises(GeneratorError):
            Ipv4AddressSweep("nope", "10.0.0.1", 2)
        with pytest.raises(GeneratorError):
            Ipv4AddressSweep("dst", "10.0.0.1", 0)

    def test_udp_port_sweep(self):
        sweep = UdpPortSweep("dst", 8000, count=4)
        template = build_udp(frame_size=128)
        ports = [decode(sweep.apply(template.data, i)).udp.dst_port for i in range(6)]
        assert ports == [8000, 8001, 8002, 8003, 8000, 8001]

    def test_udp_port_sweep_skips_tcp(self):
        sweep = UdpPortSweep("dst", 8000, count=4)
        data = build_tcp(frame_size=128).data
        assert sweep.apply(data, 1) == data

    def test_sequence_number(self):
        writer = SequenceNumber(offset=50)
        template = build_udp(frame_size=128)
        data = writer.apply(template.data, 0xABCD)
        assert int.from_bytes(data[50:54], "big") == 0xABCD

    def test_sequence_number_out_of_range(self):
        writer = SequenceNumber(offset=126)
        with pytest.raises(GeneratorError):
            writer.apply(build_udp(frame_size=128).data, 1)

    def test_vlan_rewrite(self):
        rewrite = VlanIdRewrite(vid=99)
        tagged = build_udp(frame_size=128, vlan=5)
        data = rewrite.apply(tagged.data, 0)
        assert decode(data).vlan_tags[0].vid == 99

    def test_vlan_rewrite_keeps_pcp(self):
        from repro.net import EthernetHeader, VlanTag
        from repro.net.ethernet import ETHERTYPE_VLAN

        rewrite = VlanIdRewrite(vid=7)
        tagged = build_udp(frame_size=128, vlan=5)
        # Force PCP bits, then rewrite the VID only.
        data = bytearray(tagged.data)
        data[14] |= 0xE0  # pcp=7
        result = decode(rewrite.apply(bytes(data), 0))
        assert result.vlan_tags[0].vid == 7
        assert result.vlan_tags[0].pcp == 7

    def test_vlan_rewrite_untagged_noop(self):
        rewrite = VlanIdRewrite(vid=9)
        data = build_udp(frame_size=128).data
        assert rewrite.apply(data, 0) == data

    def test_template_source_applies_chain(self):
        template = build_udp(frame_size=128)
        source = TemplateSource(
            template,
            count=4,
            modifiers=[
                Ipv4AddressSweep("dst", "10.0.0.1", count=2),
                UdpPortSweep("dst", 9000, count=2),
            ],
        )
        packets = [source.next_packet(i) for i in range(5)]
        assert packets[4] is None
        decoded = [decode(p.data) for p in packets[:4]]
        assert [d.ipv4.dst for d in decoded] == ["10.0.0.1", "10.0.0.2"] * 2
        assert [d.udp.dst_port for d in decoded] == [9000, 9001] * 2


class TestMarkovOnOff:
    def test_mean_load_formula(self):
        from repro.osnt.generator import MarkovOnOff
        from repro.units import us

        model = MarkovOnOff(mean_on_ps=us(10), mean_off_ps=us(30), peak_bps=TEN_GBPS)
        assert model.duty_cycle == pytest.approx(0.25)
        assert model.mean_load == pytest.approx(0.25)

    def test_long_run_load_matches_model(self):
        from repro.osnt.generator import MarkovOnOff
        from repro.units import us

        rng = RandomStreams(7).stream("onoff")
        model = MarkovOnOff(
            mean_on_ps=us(50), mean_off_ps=us(50), peak_bps=TEN_GBPS, stream=rng
        )
        count = 20_000
        total = sum(model.gap_after(512) for __ in range(count))
        wire = wire_time_ps(frame_wire_bytes(512), TEN_GBPS)
        achieved_load = count * wire / total
        assert achieved_load == pytest.approx(model.mean_load, rel=0.05)

    def test_gaps_are_bimodal(self):
        from repro.osnt.generator import MarkovOnOff
        from repro.units import us

        rng = RandomStreams(8).stream("onoff")
        model = MarkovOnOff(
            mean_on_ps=us(20), mean_off_ps=us(200), peak_bps=TEN_GBPS, stream=rng
        )
        gaps = [model.gap_after(512) for __ in range(5_000)]
        wire = wire_time_ps(frame_wire_bytes(512), TEN_GBPS)
        in_burst = sum(1 for g in gaps if g == wire)
        long_idles = sum(1 for g in gaps if g > 10 * wire)
        # Most packets ride inside bursts; a clear population of long
        # silences separates them.
        assert in_burst > len(gaps) * 0.5
        assert long_idles > 50

    def test_reset_restarts_off(self):
        from repro.osnt.generator import MarkovOnOff
        from repro.units import us

        model = MarkovOnOff(mean_on_ps=us(10), mean_off_ps=us(10))
        model.gap_after(64)
        model.reset()
        assert model._on_budget_ps == 0.0

    def test_validation(self):
        from repro.osnt.generator import MarkovOnOff

        with pytest.raises(ConfigError):
            MarkovOnOff(mean_on_ps=0, mean_off_ps=1)
        with pytest.raises(ConfigError):
            MarkovOnOff(mean_on_ps=1, mean_off_ps=1, peak_bps=20 * GBPS)

    def test_drives_generator_with_bursts(self):
        from repro.hw import EthernetPort, connect
        from repro.net import build_udp
        from repro.osnt.generator import MarkovOnOff, PortGenerator, TemplateSource
        from repro.hw import TimestampUnit
        from repro.sim import Simulator
        from repro.units import ms, us

        sim = Simulator()
        a, b = EthernetPort(sim, "a"), EthernetPort(sim, "b")
        connect(a, b)
        arrivals = []
        b.add_rx_sink(lambda p: arrivals.append(sim.now))
        generator = PortGenerator(sim, a, TimestampUnit(sim))
        generator.configure(
            TemplateSource(build_udp(frame_size=512)),
            schedule=MarkovOnOff(
                mean_on_ps=us(20), mean_off_ps=us(100),
                stream=RandomStreams(3).stream("m"),
            ),
            duration_ps=ms(2),
        )
        generator.start()
        sim.run()
        gaps = [y - x for x, y in zip(arrivals, arrivals[1:])]
        assert max(gaps) > 20 * min(gaps)  # visible burst structure
