"""Per-packet field modifiers.

The OSNT generator can rewrite header fields as it replays a template —
sweeping addresses or ports to synthesise many flows from one stored
packet, or writing a sequence number for loss detection. Modifiers are
pure functions of (frame bytes, packet index) so a source can apply a
chain of them deterministically.
"""

from __future__ import annotations

from typing import Optional

from ...errors import GeneratorError
from ...net.checksum import internet_checksum
from ...net.ethernet import ETH_HEADER_LEN, ETHERTYPE_IPV4
from ...net.fields import ipv4_to_int, ipv4_to_str, u16, u32
from ...net.ipv4 import PROTO_UDP
from ...net.parser import header_offsets


def _ipv4_offset(data: bytes) -> Optional[int]:
    """Offset of the IPv4 header of a (tagged or untagged) frame, else ``None``."""
    l3, ethertype, protocol, __, __ = header_offsets(data)
    return l3 if ethertype == ETHERTYPE_IPV4 and protocol is not None else None


def fix_ipv4_checksum(data: bytes) -> bytes:
    """Recompute the IPv4 header checksum of an (untagged or tagged) frame."""
    ip_offset = _ipv4_offset(data)
    if ip_offset is None:
        return data
    header_len = (data[ip_offset] & 0xF) * 4
    header = bytearray(data[ip_offset : ip_offset + header_len])
    header[10:12] = b"\x00\x00"
    header[10:12] = u16(internet_checksum(bytes(header)))
    return data[:ip_offset] + bytes(header) + data[ip_offset + header_len :]


def zero_l4_checksum(data: bytes, payload_at: Optional[int] = None) -> bytes:
    """Clear the UDP checksum after a rewrite (legal for UDP/IPv4).

    With ``payload_at`` the checksum is cleared only if that offset lies
    in the UDP payload: a rewrite that hit the headers leaves nothing
    sensible to fix.

    TCP checksums cannot legally be zeroed; swept TCP templates keep a
    stale checksum exactly as the hardware would emit them.
    """
    __, ethertype, protocol, l4, payload = header_offsets(data)
    if ethertype != ETHERTYPE_IPV4 or protocol != PROTO_UDP or l4 is None:
        return data
    if payload_at is not None and payload_at < payload:
        return data
    checksum_at = l4 + 6  # last field of the UDP header
    return data[:checksum_at] + b"\x00\x00" + data[checksum_at + 2 :]


class FieldModifier:
    """Base class: transform frame bytes for packet number ``index``."""

    def apply(self, data: bytes, index: int) -> bytes:
        raise NotImplementedError


class Ipv4AddressSweep(FieldModifier):
    """Cycle an IPv4 address (src or dst) through ``count`` values."""

    def __init__(self, field: str, base_ip: str, count: int, stride: int = 1) -> None:
        if field not in ("src", "dst"):
            raise GeneratorError(f"field must be 'src' or 'dst', not {field!r}")
        if count < 1:
            raise GeneratorError("sweep count must be >= 1")
        self.field = field
        self.base = ipv4_to_int(base_ip)
        self.count = count
        self.stride = stride

    def address_for(self, index: int) -> str:
        return ipv4_to_str((self.base + (index % self.count) * self.stride) & 0xFFFFFFFF)

    def apply(self, data: bytes, index: int) -> bytes:
        ip_offset = _ipv4_offset(data)
        if ip_offset is None:
            return data
        field_offset = ip_offset + (12 if self.field == "src" else 16)
        value = (self.base + (index % self.count) * self.stride) & 0xFFFFFFFF
        data = data[:field_offset] + u32(value) + data[field_offset + 4 :]
        return zero_l4_checksum(fix_ipv4_checksum(data))


class UdpPortSweep(FieldModifier):
    """Cycle a UDP port (src or dst) through ``count`` values."""

    def __init__(self, field: str, base_port: int, count: int) -> None:
        if field not in ("src", "dst"):
            raise GeneratorError(f"field must be 'src' or 'dst', not {field!r}")
        if count < 1:
            raise GeneratorError("sweep count must be >= 1")
        self.field = field
        self.base_port = base_port
        self.count = count

    def apply(self, data: bytes, index: int) -> bytes:
        __, __, protocol, udp_offset, __ = header_offsets(data)
        if protocol != PROTO_UDP or udp_offset is None:
            return data
        field_offset = udp_offset + (0 if self.field == "src" else 2)
        port = (self.base_port + index % self.count) & 0xFFFF
        data = data[:field_offset] + u16(port) + data[field_offset + 2 :]
        return zero_l4_checksum(data)


class SequenceNumber(FieldModifier):
    """Write a 32-bit packet index at a payload offset (loss detection)."""

    def __init__(self, offset: int) -> None:
        if offset < 0:
            raise GeneratorError("sequence offset must be >= 0")
        self.offset = offset

    def apply(self, data: bytes, index: int) -> bytes:
        if self.offset + 4 > len(data):
            raise GeneratorError(
                f"sequence number at {self.offset} does not fit {len(data)}-byte frame"
            )
        return (
            data[: self.offset]
            + u32(index & 0xFFFFFFFF)
            + data[self.offset + 4 :]
        )


class VlanIdRewrite(FieldModifier):
    """Set the VLAN id of an already-tagged frame."""

    def __init__(self, vid: int) -> None:
        if not 0 <= vid <= 4095:
            raise GeneratorError(f"VLAN id {vid} out of range")
        self.vid = vid

    def apply(self, data: bytes, index: int) -> bytes:
        l3, __, __, __, payload = header_offsets(data)
        # Without an L3 header the walk stops at the payload offset.
        if (payload if l3 is None else l3) == ETH_HEADER_LEN:
            return data  # no VLAN tag before L3: untagged
        tci_offset = ETH_HEADER_LEN
        old_tci = int.from_bytes(data[tci_offset : tci_offset + 2], "big")
        new_tci = (old_tci & 0xF000) | self.vid
        return data[:tci_offset] + u16(new_tci) + data[tci_offset + 2 :]
