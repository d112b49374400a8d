"""A minimal TCP-ish transport over :class:`~repro.devices.SimpleHost`.

The paper's tester only ever *measures* open-loop packet streams; the
mechanisms worth evaluating beyond 10 Gbps (loss protection, shallow
buffers, control-plane churn) matter because real traffic is
closed-loop — it reacts to loss and delay. :class:`FlowEndpoint`
attaches that reaction to a host NIC:

* a sender (:class:`FlowSender`) with slow start + AIMD congestion
  control, fast retransmit on 3 duplicate ACKs with NewReno
  partial-ACK hole repair, and an RTO with exponential backoff and
  go-back-N recovery;
* per-flow RTT estimation per RFC 6298 (SRTT/RTTVAR, Karn's rule: no
  samples from retransmitted segments);
* a receiver (:class:`FlowReceiver`) with cumulative ACKs and an
  out-of-order reassembly buffer, ACKing every data segment so
  duplicate ACKs carry loss information.

The model is deliberately smaller than TCP: no handshake or FIN
exchange (flows are declared, not negotiated), no SACK, no delayed
ACKs, byte sequence numbers starting at zero. Everything is
deterministic — the transport draws no random numbers, so two runs
with the same topology and fault seed produce bit-identical
:class:`FlowCompletion` records at any worker count.

Scale note: simulated RTTs are microseconds (not the milliseconds the
RFC constants assume), so the timer defaults in :class:`FlowConfig`
are scaled down ~1000× — an RTO floor of 1 ms against ~10 µs RTTs
keeps the classic datacenter ratio (RTO_min ≈ 100× RTT) that makes
timeout recovery catastrophically slower than fast retransmit.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..errors import FlowError
from ..net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from ..net.fields import ipv4_to_bytes
from ..net.ipv4 import Ipv4Header, PROTO_TCP
from ..net.packet import Packet
from ..net.tcp import FLAG_ACK, FLAG_PSH, TCP_MIN_HEADER_LEN
from ..units import ms, us

if TYPE_CHECKING:
    from ..devices.host import SimpleHost

#: First ephemeral source port handed out by an endpoint.
EPHEMERAL_PORT_BASE = 49152
#: First service port handed out for receivers.
SERVICE_PORT_BASE = 5001

#: ``(src_port, dst_port, seq, ack)``: the first 12 bytes of a TCP header.
_TCP_PORTS_SEQ_ACK = struct.Struct("!HHII")
#: The option-less TCP header :meth:`repro.net.tcp.TcpHeader.pack` writes:
#: ports, seq, ack, data offset, flags, window, checksum, urgent pointer.
_TCP_HEADER = struct.Struct("!HHIIBBHHH")
_TCP_DATA_OFFSET = (TCP_MIN_HEADER_LEN // 4) << 4
_TCP_WINDOW = 65535


@dataclass
class FlowConfig:
    """Transport tuning knobs (defaults scaled to µs-class RTTs)."""

    mss: int = 1460
    initial_cwnd: float = 4.0
    dup_ack_threshold: int = 3
    ack_delay_ps: int = us(1)
    initial_rto_ps: int = ms(3)
    rto_min_ps: int = ms(1)
    rto_max_ps: int = ms(100)
    #: Consecutive RTO expiries before the flow gives up (records an
    #: incomplete :class:`FlowCompletion` instead of keeping an
    #: open-ended ``sim.run()`` alive forever).
    max_consecutive_timeouts: int = 8

    def __post_init__(self) -> None:
        if self.mss <= 0:
            raise FlowError(f"mss must be positive, got {self.mss}")
        if self.initial_cwnd < 1.0:
            raise FlowError("initial_cwnd must be >= 1 segment")
        if self.dup_ack_threshold < 1:
            raise FlowError("dup_ack_threshold must be >= 1")
        if not 0 < self.rto_min_ps <= self.rto_max_ps:
            raise FlowError("need 0 < rto_min_ps <= rto_max_ps")
        if self.max_consecutive_timeouts < 1:
            raise FlowError("max_consecutive_timeouts must be >= 1")


@dataclass
class FlowCompletion:
    """The outcome of one flow, recorded exactly once at completion
    (or at give-up, with ``completed=False``)."""

    flow_id: str
    src: str
    dst: str
    size_bytes: int
    start_ps: int
    end_ps: int
    completed: bool
    fct_ps: int
    segments_sent: int
    payload_bytes_sent: int
    bytes_acked: int
    retransmits: int
    fast_retransmits: int
    timeouts: int
    min_rtt_ps: Optional[int]
    srtt_ps: Optional[int]

    @property
    def goodput_bps(self) -> float:
        """Application bytes delivered per second of flow lifetime."""
        if self.fct_ps <= 0:
            return 0.0
        return self.bytes_acked * 8 / (self.fct_ps * 1e-12)


def completions_digest(records: List[FlowCompletion]) -> str:
    """SHA-256 over the full per-flow outcome table (order-sensitive).

    The determinism tests compare this across worker counts, resumes
    and observability arming — any behavioural divergence in the
    transport or the impairment timeline changes it.
    """
    canonical = json.dumps(
        [asdict(record) for record in records], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class FlowEndpoint:
    """The transport attachment point on one :class:`SimpleHost`.

    Demultiplexes inbound TCP segments to per-flow handlers by
    ``(remote ip, remote port, local port)``. Create one per host, then
    open flows with :meth:`flow_to`; detach with :meth:`detach` when a
    testbed is reused for open-loop traffic.

    Segments never pass through header objects: inbound fields are read
    at the offsets the host's NIC found, and outbound frames are a
    memoised Ethernet + IPv4 header (one per peer and segment length)
    followed by one packed TCP header.
    """

    def __init__(self, host: "SimpleHost") -> None:
        self.host = host
        self.sim = host.sim
        self._ip = ipv4_to_bytes(host.ip)
        #: (remote ip bytes, remote port, local port) -> sender/receiver
        self._handlers: Dict[Tuple[bytes, int, int], object] = {}
        #: (peer, TCP segment length) -> Ethernet + IPv4 header bytes
        self._headers: Dict[Tuple["FlowEndpoint", int], bytes] = {}
        self._next_src_port = EPHEMERAL_PORT_BASE
        self._next_dst_port = SERVICE_PORT_BASE
        #: TCP segments addressed to this host that matched no flow.
        self.stray_segments = 0
        #: TCP segments seen but not addressed to this host (flooding).
        self.ignored_segments = 0
        #: Completed/aborted flow records, in completion order.
        self.completions: List[FlowCompletion] = []
        self._attached = False
        host.attach_transport(self)
        self._attached = True

    def detach(self) -> None:
        """Release the host NIC (idempotent)."""
        if self._attached:
            self.host.detach_transport(self)
            self._attached = False

    def flow_to(
        self,
        peer: "FlowEndpoint",
        size_bytes: int,
        start_ps: int = 0,
        config: Optional[FlowConfig] = None,
    ) -> "Flow":
        """Open a one-directional flow of ``size_bytes`` to ``peer``.

        The flow starts sending at ``start_ps`` (or now, whichever is
        later). Port numbers are allocated deterministically from each
        endpoint's counters, so flow identity depends only on creation
        order.
        """
        if not self._attached or not peer._attached:
            raise FlowError("both endpoints must be attached to open a flow")
        if peer is self:
            raise FlowError("cannot open a flow to the same endpoint")
        if size_bytes <= 0:
            raise FlowError(f"flow size must be positive, got {size_bytes}")
        config = config or FlowConfig()
        src_port = self._next_src_port
        self._next_src_port += 1
        dst_port = peer._next_dst_port
        peer._next_dst_port += 1
        flow = Flow(self, peer, size_bytes, start_ps, src_port, dst_port, config)
        # Inbound demux keys are (ipv4.src, tcp.src_port, tcp.dst_port)
        # of arriving frames: ACKs for the sender, data for the receiver.
        self._handlers[(peer._ip, dst_port, src_port)] = flow.sender
        peer._handlers[(self._ip, src_port, dst_port)] = flow.receiver
        return flow

    def _on_frame(self, data: bytes, l3: int, l4: int, payload: int) -> None:
        """An IPv4/TCP frame whose IPv4, TCP and payload start at ``l3``,
        ``l4`` and ``payload`` (as :func:`repro.net.parser.header_offsets`
        finds them)."""
        if data[l3 + 16 : l3 + 20] != self._ip:
            self.ignored_segments += 1  # flooded copy for someone else
            return
        src_port, dst_port, seq, ack = _TCP_PORTS_SEQ_ACK.unpack_from(data, l4)
        handler = self._handlers.get((data[l3 + 12 : l3 + 16], src_port, dst_port))
        if handler is None:
            self.stray_segments += 1
            return
        handler._on_segment(seq, ack, len(data) - payload)

    def _record(self, completion: FlowCompletion) -> None:
        self.completions.append(completion)

    def _send_segment(
        self,
        peer: "FlowEndpoint",
        src_port: int,
        dst_port: int,
        seq: int,
        ack: int,
        flags: int,
        payload: bytes,
    ) -> bool:
        # The TCP checksum is skipped on purpose, as TcpHeader.pack does
        # without addresses: the simulated wire never flips payload
        # bits — faults drop whole frames — and flows send millions of
        # segments.
        length = TCP_MIN_HEADER_LEN + len(payload)
        head = self._headers.get((peer, length))
        if head is None:
            ip = Ipv4Header(src=self.host.ip, dst=peer.host.ip, protocol=PROTO_TCP)
            eth = EthernetHeader(dst=peer.host.mac, src=self.host.mac, ethertype=ETHERTYPE_IPV4)
            head = self._headers[(peer, length)] = eth.pack() + ip.pack(length)
        tcp = _TCP_HEADER.pack(
            src_port, dst_port, seq, ack, _TCP_DATA_OFFSET, flags & 0x3F, _TCP_WINDOW, 0, 0
        )
        return self.host.port.send(Packet(head + tcp + payload))


class Flow:
    """One declared transfer: a sender/receiver pair plus its record."""

    def __init__(
        self,
        src: FlowEndpoint,
        dst: FlowEndpoint,
        size_bytes: int,
        start_ps: int,
        src_port: int,
        dst_port: int,
        config: FlowConfig,
    ) -> None:
        self.flow_id = f"{src.host.name}->{dst.host.name}:{src_port}"
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.config = config
        self.receiver = FlowReceiver(self, dst, src_port, dst_port)
        self.sender = FlowSender(self, src, dst, size_bytes, start_ps, src_port, dst_port)

    @property
    def record(self) -> Optional[FlowCompletion]:
        """The flow's outcome (None while still running)."""
        return self.sender.record

    @property
    def completed(self) -> bool:
        return self.sender.record is not None and self.sender.record.completed


class FlowSender:
    """Sender-side congestion control, retransmission and RTT state."""

    def __init__(
        self,
        flow: Flow,
        endpoint: FlowEndpoint,
        peer: FlowEndpoint,
        size_bytes: int,
        start_ps: int,
        src_port: int,
        dst_port: int,
    ) -> None:
        self.flow = flow
        self.endpoint = endpoint
        self.peer = peer
        self.sim = endpoint.sim
        self.size = size_bytes
        self.src_port = src_port
        self.dst_port = dst_port
        cfg = flow.config
        self.cfg = cfg

        self.snd_una = 0  # lowest unacknowledged byte
        self.snd_nxt = 0  # next new byte to send
        self.cwnd = cfg.initial_cwnd  # in segments (float: AIMD fractions)
        self.ssthresh = float("inf")
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0  # NewReno: snd_nxt at loss detection
        #: start offset → (send time, was retransmitted) for in-flight
        #: segments; cleared wholesale on timeout (go-back-N).
        self._sent: Dict[int, Tuple[int, bool]] = {}
        #: Exclusive high-water mark of transmitted bytes. Any send
        #: below it is a retransmission even when it arrives via the
        #: normal window-fill path (go-back-N after an RTO) — it must
        #: be counted and is RTT-ambiguous under Karn's rule.
        self._max_sent = 0

        self.srtt_ps: Optional[int] = None
        self.rttvar_ps = 0
        self.min_rtt_ps: Optional[int] = None
        self.rto_ps = cfg.initial_rto_ps
        self._timer = None
        self._consecutive_timeouts = 0

        self.segments_sent = 0
        self.payload_bytes_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.record: Optional[FlowCompletion] = None
        self.start_actual_ps: Optional[int] = None
        self._waves_cache = None

        # Foreground on purpose: a pending RTO must keep an open-ended
        # sim.run() alive, otherwise in-flight flows would be abandoned.
        self.sim.call_at(max(start_ps, self.sim.now), self._start)

    # -- transmission --------------------------------------------------------

    def _start(self) -> None:
        self.start_actual_ps = self.sim.now
        self._fill_window()
        self._rearm_timer()
        self._wave_probe()

    def _wave_probe(self) -> None:
        """Record cwnd and flight size when a waveform recorder is armed."""
        waves = self.sim.waves
        if waves is None:
            return
        cache = self._waves_cache
        if cache is None or cache[0] is not waves:
            flow_id = self.flow.flow_id
            cache = self._waves_cache = (
                waves,
                waves.series(f"flow.{flow_id}.cwnd", unit="segments"),
                waves.series(f"flow.{flow_id}.flight_bytes", unit="bytes"),
            )
        now = self.sim.now
        cache[1].record(now, self.cwnd)
        cache[2].record(now, self.snd_nxt - self.snd_una)

    def _fill_window(self) -> None:
        window_bytes = int(self.cwnd) * self.cfg.mss
        while (
            self.snd_nxt < self.size
            and self.snd_nxt - self.snd_una < window_bytes
        ):
            length = min(self.cfg.mss, self.size - self.snd_nxt)
            self._transmit(self.snd_nxt, length, retransmit=False)
            self.snd_nxt += length

    def _transmit(self, offset: int, length: int, retransmit: bool) -> None:
        self.endpoint._send_segment(
            self.peer,
            self.src_port,
            self.dst_port,
            seq=offset,
            ack=0,
            flags=FLAG_ACK | FLAG_PSH,
            payload=b"\x00" * length,
        )
        self.segments_sent += 1
        self.payload_bytes_sent += length
        is_retx = retransmit or offset < self._max_sent
        if is_retx:
            self.retransmits += 1
        self._sent[offset] = (self.sim.now, is_retx)
        self._max_sent = max(self._max_sent, offset + length)

    def _segment_length(self, offset: int) -> int:
        return min(self.cfg.mss, self.size - offset)

    # -- ACK processing ------------------------------------------------------

    def _on_segment(self, seq: int, ack: int, payload_len: int) -> None:
        if self.record is not None:
            return  # late ACK after completion/abort
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dup_ack()
        if self.record is None:
            self._wave_probe()

    def _on_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self._take_rtt_sample(ack)
        self.snd_una = ack
        self.dup_acks = 0
        self._consecutive_timeouts = 0
        if self.in_recovery:
            if ack >= self.recover:
                self.in_recovery = False
                self.cwnd = max(self.ssthresh, 1.0)
            else:
                # NewReno partial ACK: the next hole starts exactly at
                # ``ack`` — repair it now, deflate by what was acked.
                self._transmit(ack, self._segment_length(ack), retransmit=True)
                self.cwnd = max(self.cwnd - newly_acked / self.cfg.mss + 1.0, 1.0)
        else:
            acked_segments = newly_acked / self.cfg.mss
            if self.cwnd < self.ssthresh:
                self.cwnd += acked_segments  # slow start
            else:
                self.cwnd += acked_segments / self.cwnd  # AIMD increase
        if self.snd_una >= self.size:
            self._complete(completed=True)
            return
        self._rearm_timer()
        self._fill_window()

    def _on_dup_ack(self) -> None:
        self.dup_acks += 1
        if self.in_recovery:
            self.cwnd += 1.0  # window inflation per extra dup ACK
            self._fill_window()
            return
        if self.dup_acks == self.cfg.dup_ack_threshold:
            self.ssthresh = max(self.cwnd / 2.0, 2.0)
            self._transmit(
                self.snd_una, self._segment_length(self.snd_una), retransmit=True
            )
            self.fast_retransmits += 1
            self.in_recovery = True
            self.recover = self.snd_nxt
            self.cwnd = self.ssthresh + self.cfg.dup_ack_threshold
            self._rearm_timer()

    def _take_rtt_sample(self, ack: int) -> None:
        sample: Optional[Tuple[int, int]] = None  # (rtt, segment offset)
        for offset in [o for o in self._sent if o < ack]:
            sent_at, was_retx = self._sent.pop(offset)
            if not was_retx:  # Karn: retransmitted segments are ambiguous
                rtt = self.sim.now - sent_at
                if sample is None or offset > sample[1]:
                    sample = (rtt, offset)
        if sample is None:
            return
        rtt = sample[0]
        if self.min_rtt_ps is None or rtt < self.min_rtt_ps:
            self.min_rtt_ps = rtt
        if self.srtt_ps is None:
            self.srtt_ps = rtt
            self.rttvar_ps = rtt // 2
        else:
            self.rttvar_ps = (3 * self.rttvar_ps + abs(self.srtt_ps - rtt)) // 4
            self.srtt_ps = (7 * self.srtt_ps + rtt) // 8
        self.rto_ps = min(
            max(self.srtt_ps + 4 * self.rttvar_ps, self.cfg.rto_min_ps),
            self.cfg.rto_max_ps,
        )

    # -- retransmission timer ------------------------------------------------

    def _rearm_timer(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
        self._timer = self.sim.call_after(self.rto_ps, self._on_timeout)

    def _on_timeout(self) -> None:
        self._timer = None
        if self.record is not None:
            return
        self.timeouts += 1
        self._consecutive_timeouts += 1
        if self._consecutive_timeouts > self.cfg.max_consecutive_timeouts:
            self._complete(completed=False)
            return
        # Go-back-N: collapse the window, back the timer off, resend
        # from the hole. Everything in flight becomes ambiguous (Karn).
        inflight_segments = max(
            (self.snd_nxt - self.snd_una) / self.cfg.mss, 1.0
        )
        self.ssthresh = max(inflight_segments / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dup_acks = 0
        self.snd_nxt = self.snd_una
        self._sent.clear()
        self.rto_ps = min(self.rto_ps * 2, self.cfg.rto_max_ps)
        length = self._segment_length(self.snd_una)
        self._transmit(self.snd_una, length, retransmit=True)
        self.snd_nxt = self.snd_una + length
        self._rearm_timer()
        self._wave_probe()

    # -- completion ----------------------------------------------------------

    def _complete(self, completed: bool) -> None:
        if self.record is not None:
            return
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        start = self.start_actual_ps if self.start_actual_ps is not None else self.sim.now
        self.record = FlowCompletion(
            flow_id=self.flow.flow_id,
            src=self.endpoint.host.name,
            dst=self.peer.host.name,
            size_bytes=self.size,
            start_ps=start,
            end_ps=self.sim.now,
            completed=completed,
            fct_ps=self.sim.now - start,
            segments_sent=self.segments_sent,
            payload_bytes_sent=self.payload_bytes_sent,
            bytes_acked=self.snd_una,
            retransmits=self.retransmits,
            fast_retransmits=self.fast_retransmits,
            timeouts=self.timeouts,
            min_rtt_ps=self.min_rtt_ps,
            srtt_ps=self.srtt_ps,
        )
        self.endpoint._record(self.record)


class FlowReceiver:
    """Receiver-side reassembly and cumulative ACK generation."""

    def __init__(
        self, flow: Flow, endpoint: FlowEndpoint, src_port: int, dst_port: int
    ) -> None:
        self.flow = flow
        self.endpoint = endpoint
        self.sim = endpoint.sim
        # Frames from the sender carry (src_port, dst_port); our ACKs
        # travel the reverse 4-tuple.
        self.sender_port = src_port
        self.local_port = dst_port
        self.rcv_nxt = 0
        #: Out-of-order segments: start offset → length (MSS-aligned,
        #: so equal offsets always describe the same bytes).
        self._out_of_order: Dict[int, int] = {}
        self.delivered_bytes = 0
        self.duplicate_bytes = 0
        self.acks_sent = 0

    def _on_segment(self, seq: int, ack: int, payload_len: int) -> None:
        offset = seq
        length = payload_len
        if length == 0:
            return  # no pure-ACK traffic flows sender-ward; ignore
        if offset + length <= self.rcv_nxt:
            self.duplicate_bytes += length
        else:
            if offset < self.rcv_nxt:  # partial overlap with delivered data
                overlap = self.rcv_nxt - offset
                self.duplicate_bytes += overlap
                offset += overlap
                length -= overlap
            known = self._out_of_order.get(offset)
            if known is not None:
                self.duplicate_bytes += min(known, length)
            if known is None or length > known:
                self._out_of_order[offset] = length
            while self.rcv_nxt in self._out_of_order:
                advance = self._out_of_order.pop(self.rcv_nxt)
                self.rcv_nxt += advance
                self.delivered_bytes += advance
        # One ACK per data segment (even duplicates), after the stack
        # turnaround delay — duplicate ACKs are the loss signal. The
        # ACK value is snapshotted *now*: on a fast link several
        # segments arrive within one ack delay, and reading rcv_nxt at
        # send time would emit equal ACKs for in-order data — spurious
        # duplicate ACKs the sender would treat as loss.
        self.sim.call_after(self.flow.config.ack_delay_ps, self._send_ack, self.rcv_nxt)

    def _send_ack(self, ack: int) -> None:
        self.endpoint._send_segment(
            self.flow.src,
            src_port=self.local_port,
            dst_port=self.sender_port,
            seq=0,
            ack=ack,
            flags=FLAG_ACK,
            payload=b"",
        )
        self.acks_sent += 1


__all__ = [
    "EPHEMERAL_PORT_BASE",
    "SERVICE_PORT_BASE",
    "Flow",
    "FlowCompletion",
    "FlowConfig",
    "FlowEndpoint",
    "FlowReceiver",
    "FlowSender",
    "completions_digest",
]
