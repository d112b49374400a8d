"""Invariants behind the per-frame values computed once.

``Packet.frame_length`` is set when a Packet is built, so every rewrite
of ``packet.data`` in place must keep its length, and every rewrite that
changes it must build a new Packet. ``TxMac`` memoises its timing per
frame length, so re-rating a port after construction (as topology links
do) must drop the memo.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import EthernetPort, connect
from repro.hw.timestamp import TimestampUnit
from repro.net.builder import build_tcp, build_udp
from repro.net.packet import Packet
from repro.osnt.generator.tx_timestamp import TxTimestamper
from repro.osnt.software_baseline import SoftwareGenerator
from repro.sim import Simulator
from repro.units import ETH_FCS_BYTES, ETH_MIN_FRAME, ETH_PREAMBLE_BYTES, wire_time_ps


def _recomputed(packet: Packet) -> int:
    return max(len(packet.data) + ETH_FCS_BYTES, ETH_MIN_FRAME)


frames = st.one_of(
    st.integers(64, 1518).map(lambda size: build_udp(frame_size=size)),
    st.integers(64, 1518).map(lambda size: build_tcp(frame_size=size)),
)


@settings(max_examples=100, deadline=None)
@given(packet=frames, fix_udp_checksum=st.booleans(), offset=st.integers(14, 80))
def test_tx_timestamper_keeps_the_frame_length(packet, fix_udp_checksum, offset):
    sim = Simulator()
    sim.run(until=123_456)
    stamper = TxTimestamper(
        TimestampUnit(sim), offset=offset, fix_udp_checksum=fix_udp_checksum
    )
    length = len(packet.data)
    stamper(packet)
    assert len(packet.data) == length
    assert packet.frame_length == _recomputed(packet)
    # Frames too short for the stamp are left alone.
    assert (stamper.stamped, stamper.skipped_short) == (
        (1, 0) if offset + 8 <= length else (0, 1)
    )


@settings(max_examples=50, deadline=None)
@given(packet=frames)
def test_software_generator_stamp_keeps_the_frame_length(packet):
    sim = Simulator()
    sim.run(until=987_654)
    generator = SoftwareGenerator(sim, EthernetPort(sim, "sw"))
    generator._embed = True
    length = len(packet.data)
    generator._stamp(packet)
    assert len(packet.data) == length
    assert packet.frame_length == _recomputed(packet)
    assert packet.tx_timestamp == 987_654


@pytest.mark.parametrize("size", [14, 59, 60, 61, 200, 1514])
def test_copy_and_with_data_recompute_the_frame_length(size):
    packet = Packet(bytes(100))
    assert packet.frame_length == 104
    rewritten = packet.with_data(bytes(size))
    assert rewritten.frame_length == max(size + ETH_FCS_BYTES, ETH_MIN_FRAME)
    assert packet.frame_length == 104
    assert rewritten.copy().frame_length == rewritten.frame_length


def _delivery_ps(tx: EthernetPort, rx: EthernetPort, size: int) -> int:
    """Time from send to last-bit arrival of one idle-link frame."""
    sim = tx.sim
    arrivals = []
    rx.add_rx_sink(lambda packet: arrivals.append(sim.now))
    start = sim.now
    tx.send(build_udp(frame_size=size))
    sim.run()
    return arrivals[-1] - start


@pytest.mark.parametrize("size", [64, 512, 1518])
def test_port_re_rated_after_construction_serializes_at_the_new_rate(size):
    sim = Simulator()
    a, b = EthernetPort(sim, "a"), EthernetPort(sim, "b")
    link = connect(a, b)
    at_10g = _delivery_ps(a, b, size)  # fills the timing memo at 10G
    for port in (a, b):  # what Topology does for a rated link
        port.rate_bps = 40e9
        port.tx.rate_bps = 40e9
    at_40g = _delivery_ps(a, b, size)
    serialize = wire_time_ps(ETH_PREAMBLE_BYTES + size, 40e9)
    assert at_40g == serialize + link.propagation_ps
    assert at_10g == wire_time_ps(ETH_PREAMBLE_BYTES + size, 10e9) + link.propagation_ps

    fresh_sim = Simulator()
    c = EthernetPort(fresh_sim, "c", rate_bps=40e9)
    d = EthernetPort(fresh_sim, "d", rate_bps=40e9)
    connect(c, d)
    assert _delivery_ps(c, d, size) == at_40g
