"""Wire equivalence of the transport's decode-free segment path.

:class:`repro.flows.FlowEndpoint` sends segments from a memoised
Ethernet + IPv4 header template plus one packed TCP header, and
:class:`repro.devices.SimpleHost` hands it inbound TCP frames by offset.
These properties pin both against the header objects they replace:

* every template-built frame is byte-identical to one built with
  ``_frame(Ipv4Header(...).pack(n) + TcpHeader(...).pack(payload))``;
* a host fed any mix of frames ends in the same state as a host whose
  receive path decodes every frame (the reference below, which is the
  decode-based classification the offset path replaced).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import SimpleHost
from repro.flows import FlowEndpoint
from repro.flows.transport import EPHEMERAL_PORT_BASE, SERVICE_PORT_BASE
from repro.net.arp import OP_REQUEST
from repro.net.builder import _frame, build_arp_request, build_icmp_echo, build_udp
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.net.fields import ipv4_to_bytes
from repro.net.icmp import TYPE_ECHO_REQUEST
from repro.net.ipv4 import PROTO_TCP, Ipv4Header
from repro.net.ipv6 import Ipv6Header
from repro.net.packet import Packet
from repro.net.parser import decode
from repro.net.tcp import TcpHeader
from repro.sim import Simulator
from repro.units import ms, us

#: (mac, ipv4, ipv6) of the two hosts and of a third, absent one.
ADDRS = [
    ("02:00:00:00:00:01", "10.0.0.1", "2001:db8::1"),
    ("02:00:00:00:00:02", "10.0.0.2", "2001:db8::2"),
    ("02:00:00:00:00:03", "10.0.0.3", "2001:db8::3"),
]
MSS = 1460
FLOW_BYTES = 12 * MSS


def _world(with_flow: bool = True):
    """Two transport-attached hosts, one flow h1 -> h2, frames recorded."""
    sim = Simulator()
    hosts = [SimpleHost(sim, f"h{i + 1}", mac, ip) for i, (mac, ip, _) in enumerate(ADDRS[:2])]
    endpoints = [FlowEndpoint(host) for host in hosts]
    flow = endpoints[0].flow_to(endpoints[1], size_bytes=FLOW_BYTES) if with_flow else None
    sent = []
    for host in hosts:
        host.port.tx.on_start_of_frame = (
            lambda packet, name=host.name: sent.append((name, packet.data))
        )
    return sim, hosts, endpoints, flow, sent


def _decoding_on_frame(host: SimpleHost, packet: Packet) -> None:
    """Reference receive path: classify and demultiplex decoded headers."""
    decoded = decode(packet.data)
    if decoded.arp is not None and decoded.arp.operation == OP_REQUEST:
        if decoded.arp.target_ip == host.ip:
            host.sim.call_after(host.reply_delay_ps, host._send_arp_reply, decoded)
        return
    if (
        decoded.icmp is not None
        and decoded.icmp.type == TYPE_ECHO_REQUEST
        and decoded.ipv4 is not None
        and decoded.ipv4.dst == host.ip
    ):
        host.sim.call_after(
            host.reply_delay_ps, host._send_echo_reply, decoded, packet.data
        )
        return
    endpoint = host._transport
    if decoded.tcp is not None and endpoint is not None:
        if decoded.ipv4 is None or decoded.ipv4.dst != host.ip:
            endpoint.ignored_segments += 1
            return
        tcp = decoded.tcp
        key = (ipv4_to_bytes(decoded.ipv4.src), tcp.src_port, tcp.dst_port)
        handler = endpoint._handlers.get(key)
        if handler is None:
            endpoint.stray_segments += 1
            return
        handler._on_segment(tcp.seq, tcp.ack, len(decoded.payload))
        return
    host.received.append(packet)


SENDER_STATE = (
    "snd_una", "snd_nxt", "cwnd", "ssthresh", "dup_acks", "in_recovery",
    "recover", "_sent", "_max_sent", "srtt_ps", "rttvar_ps", "min_rtt_ps",
    "rto_ps", "segments_sent", "payload_bytes_sent", "retransmits",
    "fast_retransmits", "timeouts", "record",
)
RECEIVER_STATE = (
    "rcv_nxt", "_out_of_order", "delivered_bytes", "duplicate_bytes", "acks_sent",
)


def _state(world):
    sim, hosts, endpoints, flow, sent = world
    return {
        "now": sim.now,
        "events": sim.events_processed,
        "sent": list(sent),
        "hosts": [
            ([p.data for p in h.received], h.arp_replies, h.echo_replies)
            for h in hosts
        ],
        "endpoints": [
            (e.ignored_segments, e.stray_segments, e.completions) for e in endpoints
        ],
        "sender": {key: getattr(flow.sender, key) for key in SENDER_STATE},
        "receiver": {key: getattr(flow.receiver, key) for key in RECEIVER_STATE},
    }


# -- frame strategies ----------------------------------------------------------

addrs = st.sampled_from(ADDRS)
ports = st.one_of(
    st.sampled_from([EPHEMERAL_PORT_BASE, SERVICE_PORT_BASE]), st.integers(0, 0xFFFF)
)
seqs = st.one_of(st.integers(0, 14).map(lambda k: k * MSS), st.integers(0, 2**32 - 1))


@st.composite
def tcp_frames(draw):
    """``(receiving host, frame)``; half of them on the flow's 4-tuple."""
    shape = draw(st.sampled_from(["data", "ack", "any"]))
    if shape == "data":
        target, src, dst = 1, ADDRS[0], ADDRS[1]
        src_port, dst_port = EPHEMERAL_PORT_BASE, SERVICE_PORT_BASE
    elif shape == "ack":
        target, src, dst = 0, ADDRS[1], ADDRS[0]
        src_port, dst_port = SERVICE_PORT_BASE, EPHEMERAL_PORT_BASE
    else:
        target, src, dst = draw(st.sampled_from([0, 1])), draw(addrs), draw(addrs)
        src_port, dst_port = draw(ports), draw(ports)
    tcp = TcpHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=draw(seqs),
        ack=draw(seqs),
        flags=draw(st.integers(0, 0x3F)),
        options=draw(st.sampled_from([b"", b"\x01" * 4, b"\x01" * 12])),
    )
    payload = bytes(draw(st.sampled_from([0, 1, 140, MSS])))
    segment = tcp.pack(payload)
    kind = draw(st.sampled_from(["ipv4", "ipv4", "vlan", "ipv6", "truncated"]))
    if kind == "ipv6":
        ip6 = Ipv6Header(src=src[2], dst=dst[2], next_header=PROTO_TCP)
        network = ip6.pack(len(segment)) + segment
        return target, _frame(src[0], dst[0], ETHERTYPE_IPV6, network, None).data
    ip = Ipv4Header(src=src[1], dst=dst[1], protocol=PROTO_TCP)
    vlan = draw(st.integers(1, 4094)) if kind == "vlan" else None
    data = _frame(src[0], dst[0], ETHERTYPE_IPV4, ip.pack(len(segment)) + segment, vlan).data
    if kind == "truncated":  # cut inside the IPv4 or TCP header
        data = data[: draw(st.integers(14, len(data) - len(payload) - 1))]
    return target, data


@st.composite
def other_frames(draw):
    """``(receiving host, frame)`` for ARP who-has, ICMP echo and UDP."""
    target, src, dst = draw(st.sampled_from([0, 1])), draw(addrs), draw(addrs)
    kind = draw(st.sampled_from(["arp", "icmp", "udp"]))
    if kind == "arp":
        packet = build_arp_request(sender_mac=src[0], sender_ip=src[1], target_ip=dst[1])
    elif kind == "icmp":
        packet = build_icmp_echo(
            src_mac=src[0], dst_mac=dst[0], src_ip=src[1], dst_ip=dst[1],
            sequence=draw(st.integers(0, 0xFFFF)),
        )
    else:
        packet = build_udp(
            frame_size=draw(st.integers(64, 256)), src_mac=src[0], dst_mac=dst[0],
            src_ip=src[1], dst_ip=dst[1], dst_port=draw(ports),
        )
    return target, packet.data


frames = st.lists(st.one_of(tcp_frames(), other_frames()), max_size=25)


# -- properties -----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    src_port=st.integers(0, 0xFFFF),
    dst_port=st.integers(0, 0xFFFF),
    seq=st.integers(0, 2**32 - 1),
    ack=st.integers(0, 2**32 - 1),
    flags=st.integers(0, 0x3F),
    payload_len=st.integers(0, MSS),
    direction=st.sampled_from([0, 1]),
)
def test_template_segments_match_header_objects(
    src_port, dst_port, seq, ack, flags, payload_len, direction
):
    world = _world(with_flow=False)
    endpoints, sent = world[2], world[4]
    local, peer = endpoints[direction], endpoints[1 - direction]
    payload = bytes(range(256)) * (payload_len // 256) + bytes(payload_len % 256)
    segment = TcpHeader(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack, flags=flags
    ).pack(payload)
    ip = Ipv4Header(src=local.host.ip, dst=peer.host.ip, protocol=PROTO_TCP)
    expected = _frame(
        local.host.mac, peer.host.mac, ETHERTYPE_IPV4, ip.pack(len(segment)) + segment, None
    )
    for _ in range(2):  # the second send is served from the template memo
        local._send_segment(peer, src_port, dst_port, seq, ack, flags, payload)
        world[0].run()
        assert sent[-1] == (local.host.name, expected.data)
    assert len(local._headers) == 1


@settings(max_examples=300, deadline=None)
@given(feed=frames, steps=st.lists(st.integers(0, 3_000_000), min_size=25, max_size=25))
def test_offset_receive_matches_decoding_receive(feed, steps):
    fast, reference = _world(), _world()
    for sim in (fast[0], reference[0]):
        sim.run(until=us(2))  # the sender has put its first window out
    for (target, data), step in zip(feed, steps):
        fast[1][target]._on_frame(Packet(data))
        _decoding_on_frame(reference[1][target], Packet(data))
        for world in (fast, reference):
            world[0].run(until=world[0].now + step)
        assert _state(fast) == _state(reference)
    for world in (fast, reference):
        world[0].run(until=world[0].now + ms(20))
    assert _state(fast) == _state(reference)


def test_frames_the_fast_path_must_classify():
    """Each listed frame kind ends where the decode-based host puts it."""
    (mac1, ip1, v6_1), (mac2, ip2, v6_2), (mac3, ip3, _) = ADDRS
    ack = TcpHeader(src_port=SERVICE_PORT_BASE, dst_port=EPHEMERAL_PORT_BASE, ack=MSS)
    data = TcpHeader(src_port=EPHEMERAL_PORT_BASE, dst_port=SERVICE_PORT_BASE, seq=0)

    def ipv4_tcp(src, dst, tcp, payload=b"", vlan=None, dst_mac=mac2):
        segment = tcp.pack(payload)
        ip = Ipv4Header(src=src, dst=dst, protocol=PROTO_TCP)
        return _frame(mac1, dst_mac, ETHERTYPE_IPV4, ip.pack(len(segment)) + segment, vlan).data

    segment = data.pack(bytes(MSS))
    ip6 = Ipv6Header(src=v6_1, dst=v6_2, next_header=PROTO_TCP)
    # frame kind -> (receiving host, where it must land)
    cases = {
        "data": (1, ipv4_tcp(ip1, ip2, data, bytes(MSS)), "delivered"),
        "vlan": (1, ipv4_tcp(ip1, ip2, data, bytes(MSS), vlan=7), "delivered"),
        "ack": (0, ipv4_tcp(ip2, ip1, ack), "acked"),
        "ipv6": (
            1,
            _frame(mac1, mac2, ETHERTYPE_IPV6, ip6.pack(len(segment)) + segment, None).data,
            "ignored",
        ),
        "truncated": (1, ipv4_tcp(ip1, ip2, data)[: 14 + 20 + 10], "received"),
        "other host": (1, ipv4_tcp(ip1, ip3, data, dst_mac=mac3), "ignored"),
        "stray": (1, ipv4_tcp(ip3, ip2, data), "stray"),
        "arp": (1, build_arp_request(sender_mac=mac1, sender_ip=ip1, target_ip=ip2).data, "arp"),
        "icmp": (
            1,
            build_icmp_echo(src_mac=mac1, dst_mac=mac2, src_ip=ip1, dst_ip=ip2).data,
            "echo",
        ),
        "udp": (1, build_udp(src_mac=mac1, dst_mac=mac2, src_ip=ip1, dst_ip=ip2).data, "received"),
    }
    for name, (target, frame, landed) in cases.items():
        fast, reference = _world(), _world()
        for sim in (fast[0], reference[0]):
            sim.run(until=us(2))
        fast[1][target]._on_frame(Packet(frame))
        _decoding_on_frame(reference[1][target], Packet(frame))
        for world in (fast, reference):
            world[0].run(until=ms(1))
        assert _state(fast) == _state(reference), name
        host, endpoint, flow = fast[1][target], fast[2][target], fast[3]
        outcomes = {
            "delivered": flow.receiver.delivered_bytes == MSS,
            "acked": flow.sender.snd_una == MSS,
            "ignored": endpoint.ignored_segments == 1,
            "stray": endpoint.stray_segments == 1,
            "received": len(host.received) == 1,
            "arp": host.arp_replies == 1,
            "echo": host.echo_replies == 1,
        }
        assert [key for key, hit in outcomes.items() if hit] == [landed], name
