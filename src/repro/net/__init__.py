"""Packet library: protocol headers, builders, parsing, flows, PCAP."""

from .builder import (
    build_arp_request,
    build_udp6,
    build_icmp_echo,
    build_tcp,
    build_udp,
)
from .ethernet import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    ETHERTYPE_VLAN,
    EthernetHeader,
    VlanTag,
)
from .flows import FiveTuple, extract_five_tuple
from .icmp import IcmpHeader
from .ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Ipv4Header
from .ipv6 import Ipv6Header
from .packet import Packet
from .parser import DecodedPacket, decode, header_offsets
from .pcap import PcapReader, PcapRecord, PcapWriter, read_pcap, write_pcap
from .pcapng import PcapngReader, PcapngWriter, read_capture, read_pcapng, write_pcapng
from .tcp import TcpHeader
from .udp import UdpHeader

__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_IPV6",
    "ETHERTYPE_VLAN",
    "DecodedPacket",
    "EthernetHeader",
    "FiveTuple",
    "IcmpHeader",
    "Ipv4Header",
    "Ipv6Header",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PcapReader",
    "PcapRecord",
    "PcapWriter",
    "PcapngReader",
    "PcapngWriter",
    "TcpHeader",
    "UdpHeader",
    "VlanTag",
    "build_arp_request",
    "build_icmp_echo",
    "build_tcp",
    "build_udp",
    "build_udp6",
    "decode",
    "extract_five_tuple",
    "header_offsets",
    "read_capture",
    "read_pcap",
    "read_pcapng",
    "write_pcap",
    "write_pcapng",
]
