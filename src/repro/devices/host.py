"""A simple end host: answers ARP and ICMP echo, counts everything else.

Used by examples to build realistic topologies (hosts behind a switch)
and by tests as a traffic sink that actually behaves like an IP node.
"""

from __future__ import annotations

from typing import List

from ..hw.port import EthernetPort
from ..net.arp import OP_REPLY, OP_REQUEST, ArpPacket
from ..net.builder import _frame  # module-internal helper reused deliberately
from ..net.ethernet import ETHERTYPE_ARP, ETHERTYPE_IPV4
from ..net.icmp import IcmpHeader, TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST
from ..net.ipv4 import Ipv4Header, PROTO_ICMP, PROTO_TCP
from ..net.packet import Packet
from ..net.parser import decode, header_offsets
from ..sim import Simulator
from ..units import TEN_GBPS, us


class SimpleHost:
    """One NIC, one IP; replies to ARP who-has and ICMP echo."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: str,
        ip: str,
        rate_bps: float = TEN_GBPS,
        reply_delay_ps: int = us(5),  # kernel stack turnaround
    ) -> None:
        self.sim = sim
        self.name = name
        self.mac = mac
        self.ip = ip
        self.reply_delay_ps = reply_delay_ps
        self.port = EthernetPort(sim, f"{name}.eth0", rate_bps=rate_bps)
        self.port.add_rx_sink(self._on_frame)
        self.received: List[Packet] = []
        self.arp_replies = 0
        self.echo_replies = 0
        #: Attached :class:`repro.flows.FlowEndpoint`, or None. TCP
        #: frames are demultiplexed to it instead of ``received``.
        self._transport = None

    def _on_frame(self, packet: Packet) -> None:
        transport = self._transport
        if transport is not None:
            # TCP segments are the closed-loop hot path: classify by
            # offset and hand the endpoint the raw bytes. Everything
            # else is rare and builds replies from the decoded headers.
            data = packet.data
            l3, ethertype, protocol, l4, payload = header_offsets(data)
            if protocol == PROTO_TCP and l4 is not None:
                if ethertype == ETHERTYPE_IPV4:
                    transport._on_frame(data, l3, l4, payload)
                else:
                    transport.ignored_segments += 1  # IPv6: not to this host
                return
        decoded = decode(packet.data)
        if decoded.arp is not None and decoded.arp.operation == OP_REQUEST:
            if decoded.arp.target_ip == self.ip:
                self.sim.call_after(self.reply_delay_ps, self._send_arp_reply, decoded)
            return
        if (
            decoded.icmp is not None
            and decoded.icmp.type == TYPE_ECHO_REQUEST
            and decoded.ipv4 is not None
            and decoded.ipv4.dst == self.ip
        ):
            self.sim.call_after(
                self.reply_delay_ps, self._send_echo_reply, decoded, packet.data
            )
            return
        self.received.append(packet)

    def attach_transport(self, transport) -> None:
        """Claim the NIC for a closed-loop flow transport.

        Registering bumps the simulator's closed-loop source count,
        which makes the burst-datapath eligibility audit fall back to
        the per-packet path (closed-loop traffic reacts to every
        delivery; batched window advancement would reorder causality).
        """
        from ..errors import FlowError

        if self._transport is not None:
            raise FlowError(f"host {self.name!r} already has a transport attached")
        self._transport = transport
        self.sim._closed_loop_sources = (
            getattr(self.sim, "_closed_loop_sources", 0) + 1
        )

    def detach_transport(self, transport) -> None:
        """Release the NIC (exact transport object required)."""
        from ..errors import FlowError

        if self._transport is not transport:
            raise FlowError(f"host {self.name!r}: that transport is not attached")
        self._transport = None
        self.sim._closed_loop_sources -= 1

    def _send_arp_reply(self, request) -> None:
        reply = ArpPacket(
            operation=OP_REPLY,
            sender_mac=self.mac,
            sender_ip=self.ip,
            target_mac=request.arp.sender_mac,
            target_ip=request.arp.sender_ip,
        )
        frame = _frame(self.mac, request.arp.sender_mac, ETHERTYPE_ARP, reply.pack(), None)
        self.port.send(frame)
        self.arp_replies += 1

    def _send_echo_reply(self, request, original: bytes) -> None:
        echo = IcmpHeader(
            type=TYPE_ECHO_REPLY,
            identifier=request.icmp.identifier,
            sequence=request.icmp.sequence,
        )
        payload = original[request.payload_offset :]
        message = echo.pack(payload)
        ip = Ipv4Header(src=self.ip, dst=request.ipv4.src, protocol=PROTO_ICMP)
        network = ip.pack(len(message)) + message
        frame = _frame(self.mac, request.ethernet.src, ETHERTYPE_IPV4, network, None)
        self.port.send(frame)
        self.echo_replies += 1

    def send(self, packet: Packet) -> bool:
        return self.port.send(packet)
