"""TX timestamp embedding.

The paper: "The traffic generator has an accurate timestamping mechanism,
located just before the transmit 10GbE MAC. ... When enabled, the
timestamp is embedded within the packet at a preconfigured location and
can be extracted at the receiver as required."

The embedded value is the 64-bit 32.32 fixed-point counter. Because the
hardware overwrites payload bytes *after* checksums were computed, it
also clears the UDP checksum (legal for UDP/IPv4) when the stamped bytes
fall inside a UDP datagram — mirroring what the OSNT software tools
arrange so stamped packets are not dropped as corrupt.
"""

from __future__ import annotations

from ...errors import GeneratorError
from ...hw.timestamp import TimestampUnit, ps_to_raw, raw_to_ps
from ...net.packet import Packet
from .field_modifiers import zero_l4_checksum

#: Default byte offset of the embedded stamp within the frame. OSNT's
#: tools default to the start of a minimal UDP payload:
#: 14 (eth) + 20 (ipv4) + 8 (udp).
DEFAULT_OFFSET = 42
STAMP_BYTES = 8


def embed_raw(data: bytes, offset: int, raw: int) -> bytes:
    """Write the 64-bit stamp big-endian at ``offset``; returns new bytes."""
    if offset < 0 or offset + STAMP_BYTES > len(data):
        raise GeneratorError(
            f"timestamp at offset {offset} does not fit a {len(data)}-byte frame"
        )
    return data[:offset] + raw.to_bytes(STAMP_BYTES, "big") + data[offset + STAMP_BYTES :]


def extract_raw(data: bytes, offset: int = DEFAULT_OFFSET) -> int:
    """Read the 64-bit embedded stamp at ``offset``."""
    if offset < 0 or offset + STAMP_BYTES > len(data):
        raise GeneratorError(
            f"no timestamp at offset {offset} in a {len(data)}-byte frame"
        )
    return int.from_bytes(data[offset : offset + STAMP_BYTES], "big")


def extract_ps(data: bytes, offset: int = DEFAULT_OFFSET) -> int:
    """Embedded stamp converted to device picoseconds."""
    return raw_to_ps(extract_raw(data, offset))


class TxTimestamper:
    """Hooks a TX MAC's start-of-frame and stamps departing packets."""

    def __init__(
        self,
        timestamp_unit: TimestampUnit,
        offset: int = DEFAULT_OFFSET,
        enabled: bool = True,
        fix_udp_checksum: bool = True,
    ) -> None:
        self.timestamp_unit = timestamp_unit
        self.offset = offset
        self.enabled = enabled
        self.fix_udp_checksum = fix_udp_checksum
        self.stamped = 0
        self.skipped_short = 0

    def __call__(self, packet: Packet) -> None:
        """Start-of-frame hook: stamp in place (packet bytes mutate)."""
        stamp_ps = self.timestamp_unit.now_ps()
        packet.tx_timestamp = stamp_ps
        if not self.enabled:
            return
        if self.offset + STAMP_BYTES > len(packet.data):
            self.skipped_short += 1
            return
        raw = ps_to_raw(stamp_ps)
        data = embed_raw(packet.data, self.offset, raw)
        if self.fix_udp_checksum:
            # Only a stamp inside the UDP payload invalidates the checksum.
            data = zero_l4_checksum(data, payload_at=self.offset)
        packet.data = data
        self.stamped += 1
        # Register the embedded raw value as the span correlation key —
        # the exact 64-bit pattern a capture pipeline will re-extract,
        # so matching across the DUT is exact, not ps-rounded.
        sim = self.timestamp_unit.sim
        spans = sim.spans
        if spans is not None:
            spans.note_tx_stamp(sim.now, packet, raw)
