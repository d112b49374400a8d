"""The integer header walker accepts and rejects exactly what ``decode`` does.

:func:`repro.net.parser.header_offsets` is the per-packet form of
:func:`repro.net.parser.decode`; here ``decode`` is the oracle. Built
frames of every supported stack are mutated byte-wise and truncated,
and the walker's offsets must equal those derived from the decoded
layers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TruncatedPacketError
from repro.net import (
    build_arp_request,
    build_icmp_echo,
    build_tcp,
    build_udp,
    build_udp6,
    decode,
    header_offsets,
)
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader, VlanTag
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, Ipv4Header
from repro.net.tcp import TcpHeader
from repro.net.udp import UdpHeader


def _ipv4_frame(l4: bytes, protocol: int, options: bytes = b"", vlans=()) -> bytes:
    ethertype = ETHERTYPE_IPV4
    tags = b""
    for vid in reversed(vlans):
        tags = VlanTag(vid=vid, inner_ethertype=ethertype).pack() + tags
        ethertype = 0x8100
    ip = Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=protocol, options=options)
    ethernet = EthernetHeader(dst="02:00:00:00:00:02", src="02:00:00:00:00:01", ethertype=ethertype)
    return ethernet.pack() + tags + ip.pack(len(l4)) + l4


FRAMES = {
    "udp": build_udp(frame_size=96).data,
    "udp-vlan": build_udp(frame_size=96, vlan=7).data,
    "udp-qinq": _ipv4_frame(UdpHeader(5000, 5001).pack(b"x" * 30), PROTO_UDP, vlans=(5, 9)),
    "udp-ip-options": _ipv4_frame(UdpHeader(53, 53).pack(b"y" * 20), PROTO_UDP, options=b"\x01" * 8),
    "tcp": build_tcp(frame_size=96).data,
    "tcp-vlan": build_tcp(frame_size=96, vlan=3).data,
    "tcp-options": _ipv4_frame(
        TcpHeader(80, 8080, options=b"\x01" * 12).pack(b"z" * 10), PROTO_TCP
    ),
    "icmp": build_icmp_echo(frame_size=80).data,
    "arp": build_arp_request().data,
    "udp6": build_udp6(frame_size=110).data,
    "unknown-ethertype": b"\x02" * 12 + b"\x88\xcc" + b"\x00" * 50,
    "ipv4-unknown-protocol": _ipv4_frame(b"\x00" * 30, 99),
}


def offsets_from_decode(data: bytes):
    """The walker's tuple, derived from :func:`decode`'s layers."""
    decoded = decode(data)
    l3_start = 14 + 4 * len(decoded.vlan_tags)
    if decoded.vlan_tags:
        ethertype = decoded.vlan_tags[-1].inner_ethertype
    else:
        ethertype = decoded.ethernet.ethertype
    l3 = l3_start if decoded.l3 is not None else None
    protocol = None
    l4 = None
    if decoded.ipv4 is not None:
        protocol = decoded.ipv4.protocol
        l4_start = l3_start + decoded.ipv4.header_length
    elif decoded.ipv6 is not None:
        protocol = decoded.ipv6.next_header
        l4_start = l3_start + 40
    if decoded.l4 is not None:
        l4 = l4_start
    return l3, ethertype, protocol, l4, decoded.payload_offset


def _l3_start(data: bytes) -> int:
    return 14 + 4 * len(decode(data).vlan_tags)


class TestWalkerMatchesDecode:
    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_built_frames(self, name):
        data = FRAMES[name]
        assert header_offsets(data) == offsets_from_decode(data)

    @pytest.mark.parametrize("name", sorted(FRAMES))
    def test_every_truncation(self, name):
        data = FRAMES[name]
        for size in range(14, len(data) + 1):
            assert header_offsets(data[:size]) == offsets_from_decode(data[:size]), size

    @pytest.mark.parametrize("first_byte", [0x40, 0x44, 0x45, 0x46, 0x4F, 0x55, 0x65, 0x05])
    @pytest.mark.parametrize("name", ["udp", "udp-vlan", "tcp", "udp6"])
    def test_bad_version_and_ihl(self, name, first_byte):
        data = bytearray(FRAMES[name])
        data[_l3_start(bytes(data))] = first_byte
        assert header_offsets(bytes(data)) == offsets_from_decode(bytes(data))

    @pytest.mark.parametrize("offset_byte", [0x00, 0x40, 0x50, 0x60, 0xF0])
    def test_tcp_data_offset(self, offset_byte):
        data = bytearray(FRAMES["tcp"])
        data[34 + 12] = offset_byte
        assert header_offsets(bytes(data)) == offsets_from_decode(bytes(data))

    def test_runt_frame_raises_like_decode(self):
        for size in range(14):
            with pytest.raises(TruncatedPacketError):
                decode(b"\x00" * size)
            with pytest.raises(TruncatedPacketError):
                header_offsets(b"\x00" * size)

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(FRAMES)),
        mutations=st.lists(
            st.tuples(
                # Mostly header bytes, where the walk decides.
                st.one_of(st.integers(0, 80), st.integers(0, 200)),
                st.integers(0, 255),
            ),
            max_size=6,
        ),
        cut=st.one_of(st.none(), st.integers(14, 200)),
    )
    def test_mutated_and_truncated(self, name, mutations, cut):
        data = bytearray(FRAMES[name])
        for position, value in mutations:
            data[position % len(data)] = value
        data = bytes(data[:cut] if cut is not None else data)
        assert header_offsets(data) == offsets_from_decode(data)
