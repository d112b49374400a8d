"""OFLOPS-turbo measurement channels.

The framework's defining feature (per the paper) is that one measurement
module "can access information from multiple measurement channels (data
and control plane and SNMP)". Each channel wraps a raw facility with the
bookkeeping a module needs:

* :class:`ControlChannelHandle` — typed OpenFlow send helpers, xid
  allocation, reply correlation and per-message-type timelines;
* :class:`DataChannelHandle` — OSNT generation + capture with hardware
  timestamps;
* :class:`SnmpChannelHandle` — periodic counter polling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..devices.snmp_agent import (
    OID_IF_IN_UCAST,
    OID_IF_OUT_UCAST,
    SnmpAgent,
)
from ..net.packet import Packet
from ..openflow import constants as ofp
from ..openflow.actions import Action
from ..openflow.connection import ControlEndpoint
from ..openflow.match import Match
from ..openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMsg,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Message,
    PacketIn,
    StatsReply,
    StatsRequest,
)
from ..osnt.api import TrafficGenerator, TrafficMonitor
from ..sim import Simulator


@dataclass
class TimedMessage:
    """A control-plane message with its arrival time."""

    time_ps: int
    message: Message


#: Decoders that build a ChannelEvent payload dict per message class.
_EVENT_PAYLOADS = {
    PacketIn: lambda m: {
        "buffer_id": m.buffer_id,
        "total_len": m.total_len,
        "in_port": m.in_port,
        "reason": m.reason,
        "data_len": len(m.data),
    },
    ErrorMsg: lambda m: {
        "err_type": m.err_type,
        "err_code": m.err_code,
        "data_len": len(m.data),
    },
    FlowRemoved: lambda m: {
        "reason": m.reason,
        "priority": m.priority,
        "packet_count": m.packet_count,
        "byte_count": m.byte_count,
        "duration_sec": m.duration_sec,
    },
    EchoReply: lambda m: {"payload_len": len(m.payload)},
    StatsReply: lambda m: {
        "stats_type": m.stats_type,
        "flags": m.flags,
        "body_len": len(m.reply_body),
    },
    FeaturesReply: lambda m: {
        "datapath_id": m.datapath_id,
        "n_buffers": m.n_buffers,
        "n_tables": m.n_tables,
        "capabilities": m.capabilities,
    },
}


def _event_kind(message: Message) -> str:
    """Stable snake_case kind name: ``PacketIn`` → ``packet_in``."""
    name = type(message).__name__
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("_")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


@dataclass
class ChannelEvent:
    """Typed view of one received control-plane message.

    This is the supported way for measurement modules to inspect the
    control timeline: a stable ``kind`` string (``"packet_in"``,
    ``"error_msg"``, ``"flow_removed"``, ...), the arrival time, the
    message ``xid`` and a decoded ``payload`` dict of the fields a
    module actually reads. The raw :class:`~repro.openflow.messages.Message`
    stays reachable via :attr:`message` for anything exotic.
    """

    timestamp_ps: int
    kind: str
    xid: int
    payload: Dict[str, Any]
    message: Message

    @classmethod
    def from_timed(cls, timed: TimedMessage) -> "ChannelEvent":
        message = timed.message
        decode = _EVENT_PAYLOADS.get(type(message))
        payload = decode(message) if decode is not None else {}
        return cls(
            timestamp_ps=timed.time_ps,
            kind=_event_kind(message),
            xid=message.xid,
            payload=payload,
            message=message,
        )


class ControlChannelHandle:
    """The controller side of the OpenFlow session, instrumented."""

    def __init__(self, sim: Simulator, endpoint: ControlEndpoint) -> None:
        self.sim = sim
        self.endpoint = endpoint
        endpoint.on_message = self._on_message
        self._next_xid = 1
        self.received: List[TimedMessage] = []
        self.send_times: Dict[int, int] = {}
        self.reply_times: Dict[int, int] = {}
        self._listeners: List[Callable[[Message], None]] = []
        #: Barrier resends performed by :meth:`sync_barrier` across this
        #: handle's lifetime (0 on a healthy channel).
        self.retry_count = 0

    def add_listener(self, listener: Callable[[Message], None]) -> None:
        self._listeners.append(listener)

    def _on_message(self, message: Message) -> None:
        self.received.append(TimedMessage(self.sim.now, message))
        if isinstance(message, (BarrierReply, EchoReply, StatsReply, FeaturesReply)):
            self.reply_times.setdefault(message.xid, self.sim.now)
        for listener in self._listeners:
            listener(message)

    def _send(self, message: Message) -> int:
        if message.xid == 0:
            message.xid = self._next_xid
            self._next_xid += 1
        self.send_times[message.xid] = self.sim.now
        self.endpoint.send(message)
        return message.xid

    # -- typed send helpers --------------------------------------------------

    def add_flow(
        self,
        match: Match,
        actions: Sequence[Action],
        priority: int = 0x8000,
        idle_timeout: int = 0,
        hard_timeout: int = 0,
        flags: int = 0,
    ) -> int:
        return self._send(
            FlowMod(
                match=match,
                actions=list(actions),
                priority=priority,
                idle_timeout=idle_timeout,
                hard_timeout=hard_timeout,
                flags=flags,
            )
        )

    def modify_flow(
        self, match: Match, actions: Sequence[Action], priority: int = 0x8000,
        strict: bool = True,
    ) -> int:
        command = ofp.OFPFC_MODIFY_STRICT if strict else ofp.OFPFC_MODIFY
        return self._send(
            FlowMod(match=match, actions=list(actions), priority=priority, command=command)
        )

    def delete_flow(self, match: Match, priority: int = 0, strict: bool = False) -> int:
        command = ofp.OFPFC_DELETE_STRICT if strict else ofp.OFPFC_DELETE
        return self._send(FlowMod(match=match, priority=priority, command=command))

    def barrier(self) -> int:
        return self._send(BarrierRequest())

    def echo(self, payload: bytes = b"") -> int:
        return self._send(EchoRequest(payload=payload))

    def request_features(self) -> int:
        return self._send(FeaturesRequest())

    def request_stats(self, stats_type: int, body: bytes = b"") -> int:
        return self._send(StatsRequest(stats_type=stats_type, request_body=body))

    def sync_barrier(
        self,
        run_for: Callable[[int], None],
        timeout_ps: int,
        retries: int = 0,
    ) -> Optional[int]:
        """Send a barrier and wait for its reply, with bounded resends.

        ``run_for(duration_ps)`` advances the simulation (modules pass
        ``ctx.run_for``). One barrier is sent and the sim runs for
        ``timeout_ps``; if the reply never lands (e.g. the request died
        on a flapped channel) up to ``retries`` fresh barriers follow,
        each with its own timeout. Returns the RTT (ps) of the first
        answered barrier, or ``None`` if every attempt timed out —
        callers degrade explicitly instead of crashing. Resends are
        counted in :attr:`retry_count`. On a healthy channel this is
        exactly one send plus one ``run_for``, so the no-fault event
        timeline is unchanged.
        """
        xid = self.barrier()
        run_for(timeout_ps)
        rtt = self.rtt_of(xid)
        for _ in range(retries):
            if rtt is not None:
                break
            self.retry_count += 1
            xid = self.barrier()
            run_for(timeout_ps)
            rtt = self.rtt_of(xid)
        return rtt

    # -- measurement accessors -------------------------------------------------

    def rtt_of(self, xid: int) -> Optional[int]:
        """Round-trip time of a request, if its reply has arrived."""
        if xid not in self.send_times or xid not in self.reply_times:
            return None
        return self.reply_times[xid] - self.send_times[xid]

    def events(self, kind: Optional[str] = None) -> List[ChannelEvent]:
        """The received timeline as typed :class:`ChannelEvent` views,
        optionally filtered by kind (``"packet_in"``, ``"error_msg"``,
        ``"flow_removed"``, ...)."""
        events = [ChannelEvent.from_timed(t) for t in self.received]
        if kind is None:
            return events
        return [e for e in events if e.kind == kind]

    def packet_in_events(self) -> List[ChannelEvent]:
        return self.events("packet_in")

    def error_events(self) -> List[ChannelEvent]:
        return self.events("error_msg")

    def flow_removed_events(self) -> List[ChannelEvent]:
        return self.events("flow_removed")


class DataChannelHandle:
    """OSNT generation + capture bound to the testbed's data ports."""

    def __init__(
        self,
        sim: Simulator,
        generator: TrafficGenerator,
        monitors: Dict[str, TrafficMonitor],
    ) -> None:
        self.sim = sim
        self.generator = generator
        self.monitors = monitors

    def monitor(self, name: str = "egress") -> TrafficMonitor:
        return self.monitors[name]

    def start_capture(self, **kwargs) -> None:
        for monitor in self.monitors.values():
            monitor.start_capture(**kwargs)

    def captured(self, name: str = "egress") -> List[Packet]:
        return self.monitors[name].packets


@dataclass
class SnmpSample:
    time_ps: int
    values: Dict[str, object] = field(default_factory=dict)


class SnmpChannelHandle:
    """Periodic counter polling of the DUT's SNMP agent."""

    def __init__(self, sim: Simulator, agent: SnmpAgent) -> None:
        self.sim = sim
        self.agent = agent
        self.samples: List[SnmpSample] = []
        self._polling = False

    def poll_port_counters(self, of_port: int, callback=None) -> None:
        """One async sample of a port's in/out packet counters."""
        oids = [f"{OID_IF_IN_UCAST}.{of_port}", f"{OID_IF_OUT_UCAST}.{of_port}"]

        def collect(values: Dict[str, object]) -> None:
            sample = SnmpSample(time_ps=self.sim.now, values=values)
            self.samples.append(sample)
            if callback is not None:
                callback(sample)

        self.agent.get_many(oids, collect)

    def start_polling(self, of_port: int, interval_ps: int) -> None:
        """Poll a port's counters on a fixed period (daemon events)."""
        self._polling = True

        def tick() -> None:
            if not self._polling:
                return
            self.poll_port_counters(of_port)
            self.sim.call_after(interval_ps, tick, daemon=True)

        self.sim.call_after(interval_ps, tick, daemon=True)

    def stop_polling(self) -> None:
        self._polling = False
