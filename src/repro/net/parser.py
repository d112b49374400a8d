"""Decode a frame into its header stack.

:func:`decode` walks Ethernet → (VLAN) → L3 → L4 and returns a
:class:`DecodedPacket` with whichever layers were present. Unknown or
truncated inner layers stop the walk gracefully — the tester must cope
with arbitrary traffic — but a frame too short for Ethernet raises.

:func:`header_offsets` is the per-packet form of the same walk: it
returns integer offsets and builds no header objects or address strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..errors import PacketError, TruncatedPacketError
from .arp import ARP_LEN, ArpPacket
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    ETH_HEADER_LEN,
    VLAN_TAG_LEN,
    EthernetHeader,
    VlanTag,
)
from .icmp import IcmpHeader
from .ipv4 import IPV4_MIN_HEADER_LEN, PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Header
from .ipv6 import IPV6_HEADER_LEN, Ipv6Header
from .tcp import TCP_MIN_HEADER_LEN, TcpHeader
from .udp import UDP_HEADER_LEN, UdpHeader

L3Header = Union[Ipv4Header, Ipv6Header, ArpPacket]
L4Header = Union[TcpHeader, UdpHeader, IcmpHeader]
#: ``(l3, ethertype, protocol, l4, payload)``; see :func:`header_offsets`.
HeaderOffsets = Tuple[Optional[int], int, Optional[int], Optional[int], int]


@dataclass
class DecodedPacket:
    """Result of :func:`decode`: the recognised layers of one frame."""

    ethernet: EthernetHeader
    vlan_tags: List[VlanTag] = field(default_factory=list)
    ipv4: Optional[Ipv4Header] = None
    ipv6: Optional[Ipv6Header] = None
    arp: Optional[ArpPacket] = None
    tcp: Optional[TcpHeader] = None
    udp: Optional[UdpHeader] = None
    icmp: Optional[IcmpHeader] = None
    payload: bytes = b""
    #: Offset of ``payload`` within the original frame bytes.
    payload_offset: int = 0

    @property
    def l3(self) -> Optional[L3Header]:
        return self.ipv4 or self.ipv6 or self.arp

    @property
    def l4(self) -> Optional[L4Header]:
        return self.tcp or self.udp or self.icmp


def decode(data: bytes) -> DecodedPacket:
    """Parse as many layers of ``data`` as possible."""
    ethernet, offset = EthernetHeader.unpack(data)
    decoded = DecodedPacket(ethernet=ethernet)

    ethertype = ethernet.ethertype
    while ethertype == ETHERTYPE_VLAN:
        try:
            tag, offset = VlanTag.unpack(data, offset)
        except TruncatedPacketError:
            return _finish(decoded, data, offset)
        decoded.vlan_tags.append(tag)
        ethertype = tag.inner_ethertype

    try:
        if ethertype == ETHERTYPE_IPV4:
            decoded.ipv4, offset = Ipv4Header.unpack(data, offset)
            offset = _decode_l4(decoded, data, offset, decoded.ipv4.protocol)
        elif ethertype == ETHERTYPE_IPV6:
            decoded.ipv6, offset = Ipv6Header.unpack(data, offset)
            offset = _decode_l4(decoded, data, offset, decoded.ipv6.next_header)
        elif ethertype == ETHERTYPE_ARP:
            decoded.arp, offset = ArpPacket.unpack(data, offset)
    except (TruncatedPacketError, PacketError):
        pass  # leave inner layers unset; payload is what remains
    return _finish(decoded, data, offset)


def _decode_l4(decoded: DecodedPacket, data: bytes, offset: int, protocol: int) -> int:
    if protocol == PROTO_TCP:
        decoded.tcp, offset = TcpHeader.unpack(data, offset)
    elif protocol == PROTO_UDP:
        decoded.udp, offset = UdpHeader.unpack(data, offset)
    elif protocol == PROTO_ICMP:
        decoded.icmp, offset = IcmpHeader.unpack(data, offset)
    return offset


def _finish(decoded: DecodedPacket, data: bytes, offset: int) -> DecodedPacket:
    decoded.payload = data[offset:]
    decoded.payload_offset = offset
    return decoded


def header_offsets(data: bytes) -> HeaderOffsets:
    """Where the layers of ``data`` start, accepting what :func:`decode` does.

    Returns ``(l3, ethertype, protocol, l4, payload)``:

    * ``ethertype`` — the EtherType after the VLAN stack (``0x8100`` if
      a tag is truncated);
    * ``l3`` — offset of the IPv4, IPv6 or ARP header, ``None`` if
      :func:`decode` would leave its L3 layers unset;
    * ``protocol`` — IPv4 protocol or IPv6 next header, ``None`` unless
      an IP header was accepted;
    * ``l4`` — offset of the TCP, UDP or ICMP header, ``None`` if
      :func:`decode` would leave its L4 layers unset;
    * ``payload`` — :attr:`DecodedPacket.payload_offset`.

    A frame too short for Ethernet raises, as in :func:`decode`.
    """
    size = len(data)
    if size < ETH_HEADER_LEN:
        raise TruncatedPacketError(
            f"Ethernet header needs {ETH_HEADER_LEN} bytes, got {size}"
        )
    ethertype = (data[12] << 8) | data[13]
    l3 = ETH_HEADER_LEN
    while ethertype == ETHERTYPE_VLAN:
        if l3 + VLAN_TAG_LEN > size:
            return None, ethertype, None, None, l3
        ethertype = (data[l3 + 2] << 8) | data[l3 + 3]
        l3 += VLAN_TAG_LEN
    if ethertype == ETHERTYPE_IPV4:
        if l3 + IPV4_MIN_HEADER_LEN > size or data[l3] >> 4 != 4:
            return None, ethertype, None, None, l3
        l4 = l3 + (data[l3] & 0xF) * 4
        if l4 < l3 + IPV4_MIN_HEADER_LEN or l4 > size:
            return None, ethertype, None, None, l3
        protocol = data[l3 + 9]
    elif ethertype == ETHERTYPE_IPV6:
        if l3 + IPV6_HEADER_LEN > size or data[l3] >> 4 != 6:
            return None, ethertype, None, None, l3
        l4 = l3 + IPV6_HEADER_LEN
        protocol = data[l3 + 6]
    elif ethertype == ETHERTYPE_ARP:
        # Only Ethernet/IPv4 ARP: hardware type 1, protocol type 0x0800.
        if l3 + ARP_LEN > size or data[l3 : l3 + 4] != b"\x00\x01\x08\x00":
            return None, ethertype, None, None, l3
        return l3, ethertype, None, None, l3 + ARP_LEN
    else:
        return None, ethertype, None, None, l3
    if protocol == PROTO_TCP:
        if l4 + TCP_MIN_HEADER_LEN <= size:
            end = l4 + (data[l4 + 12] >> 4) * 4
            if l4 + TCP_MIN_HEADER_LEN <= end <= size:
                return l3, ethertype, protocol, l4, end
    elif protocol == PROTO_UDP or protocol == PROTO_ICMP:
        # UDP and ICMP headers are both 8 bytes.
        if l4 + UDP_HEADER_LEN <= size:
            return l3, ethertype, protocol, l4, l4 + UDP_HEADER_LEN
    return l3, ethertype, protocol, None, l4
