"""Capture-path load reducers: packet cutting, thinning and hashing.

These are the hardware features that make the loss-limited DMA path
workable at multi-10G capture rates: cutting truncates each packet to a
snap length, thinning forwards only a subset of packets, and the hash
unit fingerprints full packets so cut or thinned captures can still be
correlated across observation points.
"""

from __future__ import annotations

import random
from typing import Optional

from ...errors import CaptureError
from ...net.checksum import crc32_hash, fletcher32
from ...net.fields import u32
from ...net.packet import Packet


class PacketCutter:
    """Truncate captured packets to ``snaplen`` (0/None disables)."""

    def __init__(self, snaplen: Optional[int] = None) -> None:
        self.configure(snaplen)
        self.cut = 0

    def configure(self, snaplen: Optional[int]) -> None:
        if snaplen is not None and snaplen < 14:
            raise CaptureError("snap length must keep at least the Ethernet header")
        self.snaplen = snaplen

    def apply(self, packet: Packet) -> None:
        if self.snaplen is None or len(packet.data) <= self.snaplen:
            packet.capture_length = len(packet.data)
            return
        packet.capture_length = self.snaplen
        self.cut += 1


class Thinner:
    """Forward a subset of packets.

    Two modes, matching the hardware options:

    * deterministic ``1-in-N``: packet indices 0, N, 2N, ... pass;
    * probabilistic: each packet passes with probability ``p`` (seeded).
    """

    def __init__(
        self,
        keep_one_in: int = 1,
        probability: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if keep_one_in < 1:
            raise CaptureError("keep_one_in must be >= 1")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise CaptureError("probability must be within [0, 1]")
        self.keep_one_in = keep_one_in
        self.probability = probability
        self._rng = rng or random.Random(0)
        self._index = 0
        self.kept = 0
        self.thinned = 0

    def decide(self) -> bool:
        if self.probability is not None:
            keep = self._rng.random() < self.probability
        else:
            keep = self._index % self.keep_one_in == 0
        self._index += 1
        if keep:
            self.kept += 1
        else:
            self.thinned += 1
        return keep

    def reset(self) -> None:
        self._index = 0


class HashUnit:
    """Fingerprint packets before cutting/thinning discard bytes.

    ``algorithm`` is ``"crc32"`` or ``"fletcher32"``; the digest covers
    the first ``cover_bytes`` of the frame (None = all bytes) and is
    attached to the packet metadata (in hardware it rides the capture
    header into the host).
    """

    def __init__(self, algorithm: str = "crc32", cover_bytes: Optional[int] = None) -> None:
        if algorithm not in ("crc32", "fletcher32"):
            raise CaptureError(f"unknown hash algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.cover_bytes = cover_bytes
        self.hashed = 0

    def digest(self, data: bytes) -> bytes:
        covered = data if self.cover_bytes is None else data[: self.cover_bytes]
        if self.algorithm == "crc32":
            return crc32_hash(covered)
        return u32(fletcher32(covered))

    def apply(self, packet: Packet) -> None:
        packet.hash_value = self.digest(packet.data)
        self.hashed += 1
