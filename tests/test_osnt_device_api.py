"""Tests for the OSNTDevice register map and the software API facade."""

import pytest

from repro.errors import ConfigError, GeneratorError, RegisterError
from repro.hw import connect
from repro.net import build_udp, decode
from repro.osnt import OSNT, OSNTDevice
from repro.osnt.device import FILTER_WILDCARD, OSNT_DEVICE_ID
from repro.sim import Simulator
from repro.units import GBPS, ms, seconds, us


def loopback_tester(sim, **kwargs):
    """An OSNT card with port 0 cabled to port 1 (self-test topology)."""
    tester = OSNT(sim, **kwargs)
    connect(tester.port(0), tester.port(1))
    return tester


class TestDeviceRegisters:
    def test_id_and_version(self):
        device = OSNTDevice(Simulator())
        assert device.bus.read32(0x0) == OSNT_DEVICE_ID
        assert device.bus.read32(0x4) == 0x00010000

    def test_port_count_validation(self):
        with pytest.raises(ConfigError):
            OSNTDevice(Simulator(), num_ports=0)

    def test_four_ports_with_gen_and_mon_each(self):
        device = OSNTDevice(Simulator())
        assert len(device.ports) == 4
        assert len(device.generators) == 4
        assert len(device.monitors) == 4

    def test_register_windows_distinct_per_port(self):
        device = OSNTDevice(Simulator())
        for index in range(4):
            assert device.bus.read32(device.generator_base(index) + 0x20) == 0
            assert device.bus.read32(device.monitor_base(index) + 0x10) == 0

    def test_unmapped_address_raises(self):
        device = OSNTDevice(Simulator())
        with pytest.raises(RegisterError):
            device.bus.read32(0x0009_0000)

    def test_gps_ctrl_register_toggles_discipline(self):
        device = OSNTDevice(Simulator())
        assert device.gps.enabled
        device.bus.write32(0x8, 0)
        assert not device.gps.enabled
        device.bus.write32(0x8, 1)
        assert device.gps.enabled

    def test_gps_error_register_reads_ns(self):
        sim = Simulator()
        device = OSNTDevice(sim, freq_error_ppm=30.0)
        sim.run(until=seconds(5))
        error_ns = device.bus.read32(0xC)
        assert error_ns < 1000  # sub-µs once disciplined

    def test_monitor_ctrl_register_enables_pipeline(self):
        device = OSNTDevice(Simulator())
        base = device.monitor_base(2)
        device.bus.write32(base, 1)
        assert device.monitors[2].enabled
        device.bus.write32(base, 0)
        assert not device.monitors[2].enabled

    def test_filter_registers_install_rule(self):
        device = OSNTDevice(Simulator())
        base = device.monitor_base(0)
        device.bus.write32(base + 0x50, 17)  # proto = UDP
        device.bus.write32(base + 0x58, 5001)  # dst port
        device.bus.write32(base + 0x60, 1)  # commit
        bank = device.monitors[0].filter_bank
        assert len(bank.rules) == 1
        assert bank.rules[0].protocol == 17
        assert bank.rules[0].dst_port == 5001
        device.bus.write32(base + 0x64, 1)  # clear
        assert len(bank.rules) == 0


class TestLoopbackMeasurement:
    def test_generate_and_capture_loopback(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        mon = tester.monitor(1)
        mon.start_capture()
        gen.load_template(build_udp(frame_size=256), count=50).set_load(0.5)
        gen.start()
        sim.run()
        assert gen.packets_sent == 50
        assert mon.rx_packets == 50
        assert mon.captured_count == 50
        assert len(mon.packets) == 50

    def test_counters_via_registers_match_engine(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=512), count=20).at_line_rate()
        gen.start()
        sim.run()
        assert gen.packets_sent == gen.stats.sent == 20
        assert gen.bytes_sent == 20 * 512

    def test_embedded_timestamps_roundtrip_loopback(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture()
        gen.load_template(build_udp(frame_size=128), count=10)
        gen.set_load(0.1).embed_timestamps()
        gen.start()
        sim.run()
        from repro.osnt.generator import extract_ps

        for packet in mon.packets:
            latency = packet.rx_timestamp - extract_ps(packet.data)
            # Loopback latency: serialization + propagation, well under 2 µs,
            # and never negative (same clock stamps both ends).
            assert 0 <= latency < us(2)

    def test_filter_api_default_drop(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture()
        mon.add_filter(protocol=17, dst_port=5001)
        gen.load_template(build_udp(frame_size=128, dst_port=5001), count=5)
        gen.start()
        sim.run()
        gen2 = tester.generator(0)
        gen2.load_template(build_udp(frame_size=128, dst_port=80), count=5)
        gen2.start()
        sim.run()
        assert mon.captured_count == 5
        assert mon.rx_packets == 10

    def test_snaplen_and_thinning_via_api(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture(snaplen=64, keep_one_in=5)
        gen.load_template(build_udp(frame_size=1024), count=25)
        gen.start()
        sim.run()
        assert mon.captured_count == 5
        assert all(p.capture_length == 64 for p in mon.packets)

    def test_hashing_via_api(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture(hash_packets=True)
        gen.load_template(build_udp(frame_size=128), count=3)
        gen.start()
        sim.run()
        assert all(p.hash_value is not None for p in mon.packets)

    def test_save_pcap(self, tmp_path):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture()
        gen.load_template(build_udp(frame_size=200), count=7)
        gen.start()
        sim.run()
        path = tmp_path / "capture.pcap"
        assert mon.save_pcap(path) == 7
        from repro.net import read_pcap

        records = read_pcap(path)
        assert len(records) == 7
        assert all(len(r.data) == 196 for r in records)  # 200 - FCS
        timestamps = [r.timestamp_ps for r in records]
        assert timestamps == sorted(timestamps)

    def test_gps_lock_property(self):
        sim = Simulator()
        tester = loopback_tester(sim, freq_error_ppm=20.0)
        assert not tester.gps_locked  # no pulse seen yet
        sim.run(until=seconds(5))
        assert tester.gps_locked

    def test_generator_requires_loaded_source(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        with pytest.raises(GeneratorError):
            tester.generator(0).start()

    def test_stop_via_api(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp())  # unbounded
        gen.start()
        sim.run(until=us(50))
        assert gen.running
        gen.stop()
        assert not gen.running

    def test_monitor_clear(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture()
        gen.load_template(build_udp(frame_size=128), count=4)
        gen.start()
        sim.run()
        mon.clear()
        assert len(mon.packets) == 0

    def test_four_port_simultaneous_generation(self):
        sim = Simulator()
        tester = OSNT(sim)
        # Cable 0<->1 and 2<->3.
        connect(tester.port(0), tester.port(1))
        connect(tester.port(2), tester.port(3))
        for src, dst in ((0, 1), (1, 0), (2, 3), (3, 2)):
            tester.monitor(dst).start_capture()
            gen = tester.generator(src)
            gen.load_template(build_udp(frame_size=512), count=100).at_line_rate()
            gen.start()
        sim.run()
        for dst in range(4):
            assert tester.monitor(dst).rx_packets == 100


class TestDashboard:
    def test_status_panel_reflects_activity(self):
        from repro.osnt import render_status
        from repro.units import seconds

        sim = Simulator()
        tester = loopback_tester(sim)
        mon = tester.monitor(1)
        mon.start_capture()
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=256), count=40)
        gen.start()
        sim.run(until=seconds(5))
        panel = render_status(tester)
        assert "OSNT device" in panel
        assert "locked" in panel  # GPS converged after 5 s
        assert "p0" in panel and "p3" in panel
        assert "40" in panel  # tx/rx counters visible
        assert "host DMA: 40 delivered" in panel

    def test_gps_disabled_shown(self):
        from repro.osnt import render_status

        sim = Simulator()
        tester = loopback_tester(sim, gps_enabled=False)
        assert "free-running" in render_status(tester)

    def test_unwired_ports_down(self):
        from repro.osnt import render_status

        sim = Simulator()
        tester = loopback_tester(sim)  # only ports 0 and 1 cabled
        panel = render_status(tester)
        assert "down" in panel


class TestPcapngSave:
    def test_save_and_reload_pcapng(self, tmp_path):
        from repro.net import read_capture

        sim = Simulator()
        tester = loopback_tester(sim)
        gen, mon = tester.generator(0), tester.monitor(1)
        mon.start_capture()
        gen.load_template(build_udp(frame_size=300), count=9)
        gen.start()
        sim.run()
        path = tmp_path / "cap.pcapng"
        assert mon.save_pcapng(path) == 9
        records = read_capture(path)  # auto-detects pcapng
        assert len(records) == 9
        timestamps = [r.timestamp_ps for r in records]
        assert timestamps == sorted(timestamps)
        assert all(len(r.data) == 296 for r in records)


class TestRegisterDrivenControl:
    """Control the card purely through bus writes (driver-level usage)."""

    def test_generator_start_stop_via_registers(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        device = tester.device
        engine = device.generator(0)
        from repro.osnt.generator import TemplateSource

        engine.configure(TemplateSource(build_udp(frame_size=128)))
        base = device.generator_base(0)
        device.bus.write32(base + 0x0, 0x1)  # ctrl.start
        assert device.bus.read32(base + 0x20) == 1  # running
        sim.run(until=us(100))
        device.bus.write32(base + 0x0, 0x2)  # ctrl.stop
        assert device.bus.read32(base + 0x20) == 0
        sent = device.bus.read32(base + 0x10)
        assert sent > 0
        sim.run(until=us(500))
        assert device.bus.read32(base + 0x10) == sent  # really stopped

    def test_ts_registers_configure_stamper(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        device = tester.device
        base = device.generator_base(0)
        device.bus.write32(base + 0x4, 1)  # ts_enable
        device.bus.write32(base + 0x8, 100)  # ts_offset
        stamper = device.generator(0).timestamper
        assert stamper.enabled
        assert stamper.offset == 100

    def test_monitor_thin_register(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        device = tester.device
        base = device.monitor_base(1)
        device.bus.write32(base + 0x0, 1)  # enable
        device.bus.write32(base + 0x8, 4)  # thin 1-in-4
        from repro.osnt.generator import TemplateSource

        engine = device.generator(0)
        engine.configure(TemplateSource(build_udp(frame_size=128), count=20))
        engine.start()
        sim.run()
        assert device.bus.read32(base + 0x24) == 5  # captured_lo

    def test_snap_register_zero_disables_cutting(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        device = tester.device
        base = device.monitor_base(1)
        device.bus.write32(base + 0x4, 64)
        assert device.monitor(1).cutter.snaplen == 64
        device.bus.write32(base + 0x4, 0)
        assert device.monitor(1).cutter.snaplen is None


class TestContextManagers:
    """`with` protocol on OSNT, TrafficGenerator and TrafficMonitor."""

    def test_generator_starts_and_stops(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=256), count=25).set_load(0.5)
        with gen:
            assert gen.running
            sim.run()
        assert not gen.running
        assert gen.packets_sent == 25

    def test_start_returns_self_for_chaining(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        assert gen.load_template(build_udp(frame_size=64), count=1).start() is gen
        sim.run()

    def test_generator_enter_requires_loaded_source(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        with pytest.raises(GeneratorError):
            with tester.generator(0):
                pass

    def test_monitor_capture_window(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        mon = tester.monitor(1)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=128), count=10)
        with mon.start_capture(snaplen=64):
            assert mon.capturing
            gen.start()
            sim.run()
        assert not mon.capturing
        assert mon.captured_count == 10
        # Packets arriving after the window closes are not captured.
        gen2 = tester.generator(0)
        gen2.load_template(build_udp(frame_size=128), count=5)
        gen2.start()
        sim.run()
        assert mon.captured_count == 10

    def test_osnt_capture_context(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=512), count=8)
        with tester.capture(1, snaplen=64) as mon:
            gen.start()
            sim.run()
        assert not mon.capturing
        assert len(mon.packets) == 8
        assert all(p.capture_length == 64 for p in mon.packets)

    def test_capture_stops_on_exception(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        with pytest.raises(RuntimeError, match="boom"):
            with tester.capture(1) as mon:
                raise RuntimeError("boom")
        assert not mon.capturing

    def test_osnt_shutdown_quiesces_everything(self):
        sim = Simulator()
        with loopback_tester(sim) as tester:
            gen = tester.generator(0)
            gen.load_template(build_udp(frame_size=128)).set_load(0.1)
            gen.for_duration(ms(5))
            gen.start()
            tester.monitor(1).start_capture()
            sim.run(until=us(10))
            assert gen.running and tester.monitor(1).capturing
        assert not gen.running
        assert not tester.monitor(1).capturing

    def test_duration_and_rate_strings(self):
        # Satellite: one parsing path for "9.5Gbps" / "10us" strings.
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=512))
        gen.set_rate("9.5Gbps").for_duration("10us")
        with tester.capture(1) as mon:
            with gen:
                sim.run()
        # ~10us at 9.5 Gbps of 512B frames ≈ 23 packets.
        assert 20 <= len(mon.packets) <= 25
        with pytest.raises(ValueError):
            gen.set_rate("warp speed")
        with pytest.raises(ValueError):
            gen.for_duration("10 parsecs")

    def test_set_gap_accepts_strings(self):
        sim = Simulator()
        tester = loopback_tester(sim)
        gen = tester.generator(0)
        gen.load_template(build_udp(frame_size=64), count=3).set_gap("2us")
        with tester.capture(1) as mon:
            with gen:
                sim.run()
        gaps = [
            b.rx_timestamp - a.rx_timestamp
            for a, b in zip(mon.packets, mon.packets[1:])
        ]
        assert all(abs(gap - us(2)) < us(1) for gap in gaps)
