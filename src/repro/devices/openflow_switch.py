"""An OpenFlow 1.0 switch model — the Part-II DUT.

The model separates the three delays whose interplay OFLOPS-turbo was
built to measure:

* **firmware delay** — the switch-local software (management CPU) cost
  of handling each control message, processed serially;
* **table write delay** — the per-rule cost of committing a flow-mod to
  the hardware table; writes are serialised behind the firmware and a
  rule only affects forwarding once its write *completes*;
* **barrier mode** — ``"spec"`` switches answer a barrier only after all
  prior writes have committed; ``"eager"`` switches answer as soon as
  the firmware has *parsed* prior messages. Eager is how real switches
  misbehave, and is exactly the control-vs-data-plane gap experiment E4
  exposes.

The datapath is store-and-forward with a lookup delay, flow-table
matching, action execution (header rewrites + outputs) and packet-in on
miss.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Literal, Optional, get_args

from ..errors import ConfigError
from ..hw.port import EthernetPort
from ..net.packet import Packet
from ..openflow import constants as ofp
from ..openflow.actions import apply_rewrites
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
    Hello,
    Message,
    PacketIn,
    PacketOut,
    PhyPort,
    StatsReply,
    StatsRequest,
)
from ..sim import Signal, Simulator
from ..units import TEN_GBPS, ns, seconds, us
from .flow_table import FlowEntry, FlowTable, OverlapError, TableFullError

#: The barrier semantics a switch implements (see the module docstring).
BarrierMode = Literal["spec", "eager"]

#: Sentinel distinguishing "no memo entry" from a remembered miss (None).
_DP_UNKNOWN = object()


@dataclass
class _PacketInJob:
    """Internal firmware work item: encapsulate a missed packet."""

    packet: Packet
    in_port: int
    xid: int = 0  # shape-compatible with control messages


@dataclass
class SwitchProfile:
    """Timing/behaviour knobs of one switch implementation."""

    firmware_delay_ps: int = us(30)
    table_write_ps: int = us(5)
    barrier_mode: BarrierMode = "spec"
    datapath_lookup_ps: int = ns(600)
    packet_in_delay_ps: int = us(20)
    miss_send_len: int = 128
    table_capacity: int = 4096
    buffer_bytes_per_port: int = 128 * 1024
    #: Maximum packet-in jobs waiting on the management CPU; further
    #: misses are dropped (counted), the way a real switch sheds a
    #: packet-in storm. None = unbounded (legacy behaviour).
    packet_in_queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.barrier_mode not in get_args(BarrierMode):
            raise ConfigError(f"barrier_mode must be 'spec' or 'eager'")
        for value in (
            self.firmware_delay_ps,
            self.table_write_ps,
            self.datapath_lookup_ps,
            self.packet_in_delay_ps,
        ):
            if value < 0:
                raise ConfigError("delays must be non-negative")


#: Named profiles spanning the switch classes OFLOPS-turbo compared:
#: a software switch (fast CPU, instant table), hardware switches with
#: fast/slow management CPUs, and a hardware switch whose barrier lies.
PROFILES = {
    "soft-switch": SwitchProfile(
        firmware_delay_ps=2_000_000,  # 2 µs per message
        table_write_ps=1_000_000,  # table is just memory
        barrier_mode="spec",
        datapath_lookup_ps=2_000_000,  # software datapath is the slow part
        packet_in_delay_ps=5_000_000,
    ),
    "hw-fast-cpu": SwitchProfile(
        firmware_delay_ps=10_000_000,
        table_write_ps=100_000_000,  # 100 µs TCAM writes dominate
        barrier_mode="spec",
    ),
    "hw-slow-cpu": SwitchProfile(
        firmware_delay_ps=150_000_000,  # 150 µs/message management CPU
        table_write_ps=50_000_000,
        barrier_mode="spec",
    ),
    "hw-eager": SwitchProfile(
        firmware_delay_ps=10_000_000,
        table_write_ps=100_000_000,
        barrier_mode="eager",
    ),
}


class OpenFlowSwitch:
    """OpenFlow 1.0 switch with an explicit control-plane pipeline."""

    def __init__(
        self,
        sim: Simulator,
        control: ControlEndpoint,
        name: str = "ofsw",
        num_ports: int = 4,
        datapath_id: int = 0x0000_00A0_B0C0_D0E0,
        port_rate_bps: float = TEN_GBPS,
        profile: Optional[SwitchProfile] = None,
    ) -> None:
        if num_ports < 1:
            raise ConfigError("switch needs at least one port")
        self.sim = sim
        self.name = name
        self.control = control
        self.datapath_id = datapath_id
        self.profile = profile or SwitchProfile()
        self.table = FlowTable(capacity=self.profile.table_capacity)
        control.on_message = self._on_control_message

        self.ports: List[EthernetPort] = []
        for index in range(num_ports):
            port = EthernetPort(
                sim,
                f"{name}.p{index}",
                rate_bps=port_rate_bps,
                tx_fifo_bytes=self.profile.buffer_bytes_per_port,
            )
            port.add_rx_sink(self._make_rx_handler(index + 1))  # OF ports are 1-based
            self.ports.append(port)

        # Firmware: serial message queue.
        self._firmware_queue: Deque[Message] = deque()
        self._firmware_busy = False
        # Hardware table-write engine: serial behind the firmware.
        self._write_clear_time = 0
        self._outstanding_writes = 0
        self._writes_idle = Signal(f"{name}.writes-idle")
        # Counters.
        self.packet_ins_sent = 0
        self.packet_ins_dropped = 0
        self.flow_mods_handled = 0
        self.barriers_handled = 0
        self.datapath_hits = 0
        self.datapath_misses = 0
        self.egress_drops = 0
        #: Deepest the firmware queue has ever been (incl. in-service).
        self.firmware_queue_peak = 0
        self._pending_packet_ins = 0
        # Datapath lookup memo: (in_port, frame bytes) -> (entry, rewritten
        # data, out_ports), or None for a remembered miss. Matching is a
        # pure function of the table's entries, so the memo is valid for
        # exactly one table version; any add/modify/delete/expire bumps
        # ``table.version`` and invalidates it wholesale.
        self._dp_cache = {}
        self._dp_cache_version = -1
        self._waves_cache = None
        # Timeout expiry scan (daemon, once a simulated second).
        self._schedule_expiry_scan()
        # A switch opens the handshake with HELLO.
        control.send(Hello())

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------

    def _wave_queues(self, waves):
        """(firmware-queue, packet-in-queue) waveforms for this switch."""
        cache = self._waves_cache
        if cache is None or cache[0] is not waves:
            cache = self._waves_cache = (
                waves,
                waves.series(f"{self.name}.firmware_queue", unit="msgs"),
                waves.series(f"{self.name}.packet_in_queue", unit="jobs"),
            )
        return cache

    def _on_control_message(self, message: Message) -> None:
        self._firmware_queue.append(message)
        depth = len(self._firmware_queue) + (1 if self._firmware_busy else 0)
        if depth > self.firmware_queue_peak:
            self.firmware_queue_peak = depth
        waves = self.sim.waves
        if waves is not None:
            self._wave_queues(waves)[1].record(self.sim.now, depth)
        if not self._firmware_busy:
            self._firmware_next()

    def _firmware_next(self) -> None:
        if not self._firmware_queue:
            self._firmware_busy = False
            waves = self.sim.waves
            if waves is not None:
                self._wave_queues(waves)[1].record(self.sim.now, 0)
            return
        self._firmware_busy = True
        message = self._firmware_queue.popleft()
        waves = self.sim.waves
        if waves is not None:
            self._wave_queues(waves)[1].record(
                self.sim.now, len(self._firmware_queue) + 1
            )
        self.sim.call_after(
            self.profile.firmware_delay_ps, self._firmware_handle, message
        )

    def _firmware_handle(self, message: Message) -> None:
        if isinstance(message, _PacketInJob):
            # Miss encapsulation happens on the same management CPU as
            # message handling — packet-in storms therefore delay
            # concurrent flow_mods (the OFLOPS interaction effect).
            self._pending_packet_ins -= 1
            waves = self.sim.waves
            if waves is not None:
                self._wave_queues(waves)[2].record(
                    self.sim.now, self._pending_packet_ins
                )
            self._send_packet_in(message.packet, message.in_port)
        elif isinstance(message, Hello):
            pass
        elif isinstance(message, EchoRequest):
            self.control.send(EchoReply(xid=message.xid, payload=message.payload))
        elif isinstance(message, FeaturesRequest):
            self.control.send(self._features_reply(message.xid))
        elif isinstance(message, FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, BarrierRequest):
            self._handle_barrier(message)
        elif isinstance(message, PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, StatsRequest):
            self._handle_stats(message)
        else:
            self.control.send(
                ErrorMsg(
                    xid=message.xid,
                    err_type=ofp.OFPET_BAD_REQUEST,
                    err_code=0,
                )
            )
        self._firmware_next()

    def _features_reply(self, xid: int) -> FeaturesReply:
        ports = [
            PhyPort(port_no=index + 1, name=f"{self.name}-eth{index + 1}")
            for index in range(len(self.ports))
        ]
        return FeaturesReply(
            xid=xid,
            datapath_id=self.datapath_id,
            n_tables=1,
            ports=ports,
        )

    # -- flow mods and the write engine ----------------------------------

    def _handle_flow_mod(self, message: FlowMod) -> None:
        """Queue the table mutation on the hardware write engine."""
        self.flow_mods_handled += 1
        start = max(self.sim.now, self._write_clear_time)
        done = start + self.profile.table_write_ps
        self._write_clear_time = done
        self._outstanding_writes += 1
        self.sim.call_at(done, self._commit_flow_mod, message)

    def _commit_flow_mod(self, message: FlowMod) -> None:
        try:
            self._apply_flow_mod(message)
        except (TableFullError, OverlapError):
            self.control.send(
                ErrorMsg(
                    xid=message.xid,
                    err_type=ofp.OFPET_FLOW_MOD_FAILED,
                    err_code=ofp.OFPFMFC_ALL_TABLES_FULL,
                )
            )
        self._outstanding_writes -= 1
        if self._outstanding_writes == 0:
            self._writes_idle.fire()

    def _apply_flow_mod(self, message: FlowMod) -> None:
        command = message.command
        if command == ofp.OFPFC_ADD:
            entry = self._entry_from(message)
            self.table.add(
                entry, check_overlap=bool(message.flags & ofp.OFPFF_CHECK_OVERLAP)
            )
        elif command in (ofp.OFPFC_MODIFY, ofp.OFPFC_MODIFY_STRICT):
            strict = command == ofp.OFPFC_MODIFY_STRICT
            changed = self.table.modify(
                message.match, message.priority, message.actions, strict
            )
            if changed == 0:
                self.table.add(self._entry_from(message))
        elif command in (ofp.OFPFC_DELETE, ofp.OFPFC_DELETE_STRICT):
            strict = command == ofp.OFPFC_DELETE_STRICT
            removed = self.table.delete(
                message.match, message.priority, message.out_port, strict
            )
            for entry in removed:
                if entry.flags & ofp.OFPFF_SEND_FLOW_REM:
                    self._send_flow_removed(entry, ofp.OFPRR_DELETE)
        else:
            self.control.send(
                ErrorMsg(xid=message.xid, err_type=ofp.OFPET_BAD_REQUEST, err_code=0)
            )

    def _entry_from(self, message: FlowMod) -> FlowEntry:
        return FlowEntry(
            match=message.match,
            priority=message.priority,
            actions=list(message.actions),
            cookie=message.cookie,
            idle_timeout=message.idle_timeout,
            hard_timeout=message.hard_timeout,
            flags=message.flags,
            installed_at_ps=self.sim.now,
            last_used_ps=self.sim.now,
        )

    def _handle_barrier(self, message: BarrierRequest) -> None:
        self.barriers_handled += 1
        if self.profile.barrier_mode == "eager" or self._outstanding_writes == 0:
            self.control.send(BarrierReply(xid=message.xid))
        else:
            self.sim.call_after(
                max(0, self._write_clear_time - self.sim.now),
                self.control.send,
                BarrierReply(xid=message.xid),
            )

    def _handle_packet_out(self, message: PacketOut) -> None:
        if not message.data:
            return
        data, out_ports = apply_rewrites(message.data, message.actions)
        in_port = message.in_port if message.in_port < ofp.OFPP_MAX else 0
        for port in out_ports:
            self._output(data, port, in_port, from_table=False)

    # -- stats ---------------------------------------------------------------

    def _handle_stats(self, message: StatsRequest) -> None:
        if message.stats_type == ofp.OFPST_DESC:
            body = _pad_str("repro", 256) + _pad_str("sim-netfpga", 256) + _pad_str(
                "osnt-repro-1.0", 256
            ) + _pad_str("0000", 32) + _pad_str(self.name, 256)
        elif message.stats_type == ofp.OFPST_FLOW:
            body = b"".join(self._flow_stats_entry(e) for e in self.table.entries)
        elif message.stats_type == ofp.OFPST_AGGREGATE:
            packets = sum(e.packet_count for e in self.table.entries)
            nbytes = sum(e.byte_count for e in self.table.entries)
            body = struct.pack("!QQI4x", packets, nbytes, len(self.table))
        elif message.stats_type == ofp.OFPST_PORT:
            body = b"".join(
                self._port_stats_entry(index + 1, port)
                for index, port in enumerate(self.ports)
            )
        else:
            self.control.send(
                ErrorMsg(xid=message.xid, err_type=ofp.OFPET_BAD_REQUEST, err_code=0)
            )
            return
        self.control.send(
            StatsReply(xid=message.xid, stats_type=message.stats_type, reply_body=body)
        )

    def _flow_stats_entry(self, entry: FlowEntry) -> bytes:
        from ..openflow.actions import pack_actions

        actions = pack_actions(entry.actions)
        duration_ps = self.sim.now - entry.installed_at_ps
        length = 88 + len(actions)
        return (
            struct.pack("!HBx", length, 0)
            + entry.match.pack()
            + struct.pack(
                "!IIHHH6xQQQ",
                duration_ps // 10**12,
                (duration_ps % 10**12) // 1000,
                entry.priority,
                entry.idle_timeout,
                entry.hard_timeout,
                entry.cookie,
                entry.packet_count,
                entry.byte_count,
            )
            + actions
        )

    def _port_stats_entry(self, port_no: int, port: EthernetPort) -> bytes:
        return struct.pack(
            "!H6xQQQQQQQQQQQQ",
            port_no,
            port.rx.stats.packets,
            port.tx.stats.packets,
            port.rx.stats.bytes,
            port.tx.stats.bytes,
            0,
            port.tx.fifo.dropped,
            port.rx.stats.errors,
            port.tx.stats.errors,
            0,
            0,
            0,
            0,
        )

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def _make_rx_handler(self, of_port: int):
        def handler(packet: Packet) -> None:
            self.sim.call_after(
                self.profile.datapath_lookup_ps, self._datapath, packet, of_port
            )

        return handler

    _DP_CACHE_MAX = 4096

    def _datapath(self, packet: Packet, in_port: int) -> None:
        table = self.table
        if self._dp_cache_version != table.version:
            self._dp_cache.clear()
            self._dp_cache_version = table.version
        cache = self._dp_cache
        memo_key = (in_port, packet.data)
        cached = cache.get(memo_key, _DP_UNKNOWN)
        if cached is _DP_UNKNOWN:
            key = Match.from_packet(packet.data, in_port)
            entry = table.lookup(key, self.sim.now, packet.frame_length)
            if entry is None:
                if len(cache) >= self._DP_CACHE_MAX:
                    cache.clear()
                cache[memo_key] = None
                self.datapath_misses += 1
                self.sim.call_after(
                    self.profile.packet_in_delay_ps,
                    self._queue_packet_in,
                    packet,
                    in_port,
                )
                return
            data, out_ports = apply_rewrites(packet.data, entry.actions)
            if len(cache) >= self._DP_CACHE_MAX:
                cache.clear()
            cache[memo_key] = (entry, data, out_ports)
        elif cached is None:
            # Remembered miss: replay the table counters the full lookup
            # would have produced, then take the packet-in path.
            table.lookups += 1
            table.misses += 1
            self.datapath_misses += 1
            self.sim.call_after(
                self.profile.packet_in_delay_ps, self._queue_packet_in, packet, in_port
            )
            return
        else:
            entry, data, out_ports = cached
            table.lookups += 1
            table.hits += 1
            entry.note_hit(self.sim.now, packet.frame_length)
        self.datapath_hits += 1
        for port in out_ports:
            self._output(data, port, in_port, from_table=True)

    def _queue_packet_in(self, packet: Packet, in_port: int) -> None:
        """Hand the miss to the firmware queue for encapsulation."""
        limit = self.profile.packet_in_queue_limit
        if limit is not None and self._pending_packet_ins >= limit:
            self.packet_ins_dropped += 1
            return
        self._pending_packet_ins += 1
        waves = self.sim.waves
        if waves is not None:
            self._wave_queues(waves)[2].record(self.sim.now, self._pending_packet_ins)
        self._on_control_message(_PacketInJob(packet=packet, in_port=in_port))

    def _send_packet_in(self, packet: Packet, in_port: int) -> None:
        self.packet_ins_sent += 1
        data = packet.data[: self.profile.miss_send_len]
        self.control.send(
            PacketIn(
                buffer_id=ofp.OFP_NO_BUFFER,
                total_len=len(packet.data),
                in_port=in_port,
                reason=ofp.OFPR_NO_MATCH,
                data=data,
            )
        )

    def _output(self, data: bytes, out_port: int, in_port: int, from_table: bool) -> None:
        if out_port in (ofp.OFPP_ALL, ofp.OFPP_FLOOD):
            for index in range(len(self.ports)):
                if index + 1 != in_port:
                    self._emit(data, index + 1)
        elif out_port == ofp.OFPP_IN_PORT:
            self._emit(data, in_port)
        elif out_port == ofp.OFPP_CONTROLLER:
            self.packet_ins_sent += 1
            self.control.send(
                PacketIn(
                    total_len=len(data),
                    in_port=in_port,
                    reason=ofp.OFPR_ACTION,
                    data=data[: self.profile.miss_send_len],
                )
            )
        elif out_port == ofp.OFPP_TABLE and not from_table:
            self._datapath(Packet(data), in_port)
        elif 1 <= out_port <= len(self.ports):
            self._emit(data, out_port)
        # Other reserved ports (NORMAL, LOCAL, NONE) drop silently here.

    def _emit(self, data: bytes, of_port: int) -> None:
        if not self.ports[of_port - 1].send(Packet(data)):
            self.egress_drops += 1

    def port(self, index: int) -> EthernetPort:
        """Zero-based accessor (OF numbering is 1-based internally)."""
        return self.ports[index]

    # -- timeouts ------------------------------------------------------------

    def _schedule_expiry_scan(self) -> None:
        self.sim.call_after(seconds(1), self._expiry_scan, daemon=True)

    def _expiry_scan(self) -> None:
        for entry, reason in self.table.expire(self.sim.now):
            if entry.flags & ofp.OFPFF_SEND_FLOW_REM:
                self._send_flow_removed(entry, reason)
        self._schedule_expiry_scan()

    def _send_flow_removed(self, entry: FlowEntry, reason: int) -> None:
        duration_ps = self.sim.now - entry.installed_at_ps
        self.control.send(
            FlowRemoved(
                match=entry.match,
                cookie=entry.cookie,
                priority=entry.priority,
                reason=reason,
                duration_sec=duration_ps // 10**12,
                duration_nsec=(duration_ps % 10**12) // 1000,
                idle_timeout=entry.idle_timeout,
                packet_count=entry.packet_count,
                byte_count=entry.byte_count,
            )
        )


def _pad_str(text: str, width: int) -> bytes:
    encoded = text.encode()[: width - 1]
    return encoded + b"\x00" * (width - len(encoded))
