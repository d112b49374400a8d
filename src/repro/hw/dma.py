"""PCIe DMA engine: the loss-limited path from the card into the host.

The paper describes the monitor as having "a loss-limited path that gets
(a subset of) captured packets into the host". The limiter is physical:
a descriptor ring of finite depth drained at finite PCIe bandwidth, with
a fixed per-packet cost (descriptor + the capture metadata header that
carries the 64-bit timestamp). When packets arrive faster than the ring
drains, the hardware tail-drops and counts — capture loss is explicit
and measurable (experiment E6), never silent.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..errors import ConfigError
from ..net.packet import Packet
from ..sim import Simulator
from ..units import GBPS, wire_time_ps

#: OSNT prepends a metadata word (timestamp, port, caplen) to each
#: captured packet; descriptors add further per-packet PCIe overhead.
DEFAULT_PER_PACKET_OVERHEAD = 64
#: Effective host throughput of the NetFPGA-10G's first-generation PCIe
#: core — well below 4x10G, which is exactly why cutting/thinning exist.
DEFAULT_BANDWIDTH_BPS = 8 * GBPS
DEFAULT_RING_SLOTS = 1024


class DmaStats:
    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_bytes = 0
        self.dropped = 0
        #: Transfer bytes (caplen + per-packet overhead) lost to ring-full
        #: tail drops, so capture loss (E6) is measurable in bytes, not
        #: just packets, on the same scale as ``delivered_bytes``.
        self.dropped_bytes = 0
        self.peak_ring_occupancy = 0


class DmaEngine:
    """Bounded-bandwidth, bounded-ring DMA from card to host."""

    def __init__(
        self,
        sim: Simulator,
        name: str = "dma",
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        ring_slots: int = DEFAULT_RING_SLOTS,
        per_packet_overhead: int = DEFAULT_PER_PACKET_OVERHEAD,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigError(f"{name}: bandwidth must be positive")
        if ring_slots <= 0:
            raise ConfigError(f"{name}: ring must have at least one slot")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.ring_slots = ring_slots
        self.per_packet_overhead = per_packet_overhead
        self.stats = DmaStats()
        #: Host-side callback, invoked when a packet's transfer completes.
        self.on_host_deliver: Optional[Callable[[Packet], None]] = None
        self._ring: Deque[Packet] = deque()
        self._busy = False
        #: Fault hooks (:mod:`repro.faults`): drain pauses until this
        #: instant, and an optional clamp on the usable ring depth.
        self._stalled_until = 0
        self._slot_clamp: Optional[int] = None
        self._waves_cache = None

    def _wave_ring(self, waves):
        """The ring-depth waveform under the armed recorder."""
        cache = self._waves_cache
        if cache is None or cache[0] is not waves:
            cache = self._waves_cache = (
                waves,
                waves.series(f"{self.name}.ring_depth", unit="slots").record,
            )
        return cache[1]

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish the DMA's counters and ring state as pull gauges."""
        stats = self.stats
        registry.gauge(f"{prefix}.delivered", lambda: stats.delivered)
        registry.gauge(f"{prefix}.delivered_bytes", lambda: stats.delivered_bytes)
        registry.gauge(f"{prefix}.dropped", lambda: stats.dropped)
        registry.gauge(f"{prefix}.dropped_bytes", lambda: stats.dropped_bytes)
        registry.gauge(f"{prefix}.peak_ring_occupancy", lambda: stats.peak_ring_occupancy)
        registry.gauge(f"{prefix}.ring_occupancy", lambda: len(self._ring))
        registry.gauge(f"{prefix}.ring_slots", lambda: self.ring_slots)

    def stall_for(self, duration_ps: int) -> None:
        """Pause draining for ``duration_ps`` (fault injection).

        A transfer already in flight completes; the *next* transfer
        start is gated. Overlapping stalls extend, never shorten, the
        pause. The ring keeps accepting packets meanwhile, so a long
        enough stall surfaces as counted tail drops — loss stays
        explicit, exactly like genuine host backpressure.
        """
        if duration_ps < 0:
            raise ConfigError(f"{self.name}: stall duration must be >= 0")
        resume = self.sim.now + duration_ps
        if resume > self._stalled_until:
            self._stalled_until = resume

    def set_slot_clamp(self, slots: Optional[int]) -> None:
        """Clamp the usable ring depth (``None`` removes the clamp)."""
        if slots is not None and slots < 1:
            raise ConfigError(f"{self.name}: clamp must leave at least one slot")
        self._slot_clamp = slots

    @property
    def effective_ring_slots(self) -> int:
        if self._slot_clamp is None:
            return self.ring_slots
        return min(self.ring_slots, self._slot_clamp)

    def enqueue(self, packet: Packet) -> bool:
        """Hand a captured packet to the DMA; False if the ring is full."""
        clamp = self._slot_clamp
        limit = self.ring_slots if clamp is None else (
            clamp if clamp < self.ring_slots else self.ring_slots
        )
        if len(self._ring) >= limit:
            nbytes = self._transfer_bytes(packet)
            self.stats.dropped += 1
            self.stats.dropped_bytes += nbytes
            tracer = self.sim._tracer
            if tracer is not None:
                tracer.instant(
                    self.sim.now, "packet", "drop",
                    {"dma": self.name, "reason": "ring_full", "bytes": nbytes},
                )
            spans = self.sim.spans
            if spans is not None:
                spans.close(
                    self.sim.now, packet, "dma_drop",
                    detail={"dma": self.name, "reason": "ring_full"},
                )
            return False
        self._ring.append(packet)
        if len(self._ring) > self.stats.peak_ring_occupancy:
            self.stats.peak_ring_occupancy = len(self._ring)
        waves = self.sim.waves
        if waves is not None:
            cache = self._waves_cache
            if cache is None or cache[0] is not waves:
                self._wave_ring(waves)
                cache = self._waves_cache
            cache[1](self.sim.now, len(self._ring))
        if not self._busy:
            self._start_next()
        return True

    def _transfer_bytes(self, packet: Packet) -> int:
        captured = (
            packet.capture_length
            if packet.capture_length is not None
            else len(packet.data)
        )
        return captured + self.per_packet_overhead

    def _start_next(self) -> None:
        if not self._ring:
            self._busy = False
            return
        self._busy = True
        if self.sim.now < self._stalled_until:
            self.sim.call_at(self._stalled_until, self._start_next)
            return
        packet = self._ring[0]
        transfer_ps = wire_time_ps(self._transfer_bytes(packet), self.bandwidth_bps)
        self.sim.call_after(transfer_ps, self._complete)

    def _complete(self) -> None:
        packet = self._ring.popleft()
        nbytes = self._transfer_bytes(packet)
        self.stats.delivered += 1
        self.stats.delivered_bytes += nbytes
        waves = self.sim.waves
        if waves is not None:
            cache = self._waves_cache
            if cache is None or cache[0] is not waves:
                self._wave_ring(waves)
                cache = self._waves_cache
            cache[1](self.sim.now, len(self._ring))
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.instant(
                self.sim.now, "packet", "host",
                {"dma": self.name, "bytes": nbytes},
            )
        spans = self.sim.spans
        if spans is not None:
            spans.close(
                self.sim.now, packet, "delivered",
                name="host", detail={"dma": self.name, "bytes": nbytes},
            )
        if self.on_host_deliver is not None:
            self.on_host_deliver(packet)
        self._start_next()

    @property
    def ring_occupancy(self) -> int:
        return len(self._ring)
