"""Tests for the IPv4 router DUT: FIB, forwarding, TTL, ICMP errors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import Fib, Route, Router
from repro.errors import ConfigError
from repro.hw import EthernetPort, connect
from repro.net import build_arp_request, build_udp, decode
from repro.net.checksum import internet_checksum
from repro.sim import Simulator
from repro.units import ns

NEXT_HOP = "02:aa:00:00:00:01"


def route(prefix_cidr, out_port=1, mac=NEXT_HOP):
    prefix, __, length = prefix_cidr.partition("/")
    return Route(prefix=prefix, prefix_len=int(length), out_port=out_port, next_hop_mac=mac)


class TestFib:
    def test_exact_match(self):
        fib = Fib()
        fib.add(route("10.1.2.3/32", out_port=2))
        best, __ = fib.lookup("10.1.2.3")
        assert best.out_port == 2
        assert fib.lookup("10.1.2.4")[0] is None

    def test_longest_prefix_wins(self):
        fib = Fib()
        fib.add(route("10.0.0.0/8", out_port=1))
        fib.add(route("10.1.0.0/16", out_port=2))
        fib.add(route("10.1.2.0/24", out_port=3))
        assert fib.lookup("10.1.2.9")[0].out_port == 3
        assert fib.lookup("10.1.9.9")[0].out_port == 2
        assert fib.lookup("10.9.9.9")[0].out_port == 1

    def test_default_route(self):
        fib = Fib()
        fib.add(route("0.0.0.0/0", out_port=9))
        assert fib.lookup("203.0.113.7")[0].out_port == 9

    def test_remove(self):
        fib = Fib()
        fib.add(route("10.0.0.0/8", out_port=1))
        assert fib.remove("10.0.0.0", 8)
        assert fib.size == 0
        assert fib.lookup("10.0.0.1")[0] is None
        assert not fib.remove("10.0.0.0", 8)  # already gone
        assert not fib.remove("192.168.0.0", 16)  # never existed

    def test_replace_same_prefix(self):
        fib = Fib()
        fib.add(route("10.0.0.0/8", out_port=1))
        fib.add(route("10.0.0.0/8", out_port=5))
        assert fib.size == 1
        assert fib.lookup("10.0.0.1")[0].out_port == 5

    def test_lookup_depth_reflects_prefix(self):
        fib = Fib()
        fib.add(route("10.0.0.0/8"))
        fib.add(route("10.1.2.0/24"))
        __, shallow = fib.lookup("10.200.0.1")  # falls off after /8 region
        __, deep = fib.lookup("10.1.2.3")
        assert deep > shallow

    def test_bad_prefix_len(self):
        with pytest.raises(ConfigError):
            Route(prefix="10.0.0.0", prefix_len=33, out_port=0, next_hop_mac=NEXT_HOP)

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=32))
    def test_prefix_always_matches_own_network(self, address, prefix_len):
        from repro.net.fields import ipv4_to_str

        mask = ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len else 0
        network = ipv4_to_str(address & mask)
        fib = Fib()
        fib.add(Route(prefix=network, prefix_len=prefix_len, out_port=1, next_hop_mac=NEXT_HOP))
        best, __ = fib.lookup(ipv4_to_str(address))
        assert best is not None


def router_rig(sim, **kwargs):
    kwargs.setdefault("num_ports", 3)
    router = Router(sim, **kwargs)
    endpoints = []
    for index in range(len(router.ports)):
        endpoint = EthernetPort(sim, f"e{index}")
        connect(endpoint, router.port(index), propagation_ps=0)
        endpoints.append(endpoint)
    return router, endpoints


class TestRouterForwarding:
    def test_forwards_with_mac_rewrite_and_ttl(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("192.168.0.0/16", out_port=1, next_hop_mac=NEXT_HOP)
        out = []
        endpoints[1].add_rx_sink(out.append)
        endpoints[0].send(build_udp(frame_size=200, dst_ip="192.168.7.7", ttl=64))
        sim.run()
        assert router.forwarded == 1
        decoded = decode(out[0].data)
        assert decoded.ethernet.dst == NEXT_HOP
        assert decoded.ethernet.src == router.interface_macs[1]
        assert decoded.ipv4.ttl == 63

    def test_checksum_still_valid_after_ttl_decrement(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("0.0.0.0/0", out_port=2, next_hop_mac=NEXT_HOP)
        out = []
        endpoints[2].add_rx_sink(out.append)
        endpoints[0].send(build_udp(frame_size=120, dst_ip="8.8.8.8", ttl=17))
        sim.run()
        data = out[0].data
        assert internet_checksum(data[14:34]) == 0  # incremental update correct
        assert decode(data).ipv4.ttl == 16

    def test_no_route_drops(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("10.0.0.0/8", out_port=1, next_hop_mac=NEXT_HOP)
        endpoints[0].send(build_udp(frame_size=100, dst_ip="172.16.0.1"))
        sim.run()
        assert router.no_route == 1
        assert router.forwarded == 0

    def test_non_ip_dropped(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        endpoints[0].send(build_arp_request())
        sim.run()
        assert router.non_ip_dropped == 1

    def test_ttl_one_expires_with_icmp(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("0.0.0.0/0", out_port=1, next_hop_mac=NEXT_HOP)
        back = []
        endpoints[0].add_rx_sink(back.append)
        endpoints[0].send(
            build_udp(frame_size=100, src_ip="10.0.0.5", dst_ip="8.8.8.8", ttl=1)
        )
        sim.run()
        assert router.ttl_expired == 1
        assert router.forwarded == 0
        decoded = decode(back[0].data)
        assert decoded.icmp is not None
        assert decoded.icmp.type == 11  # time exceeded
        assert decoded.ipv4.dst == "10.0.0.5"
        # The ICMP message checksums correctly.
        assert internet_checksum(back[0].data[34:]) == 0

    def test_ttl_exceeded_can_be_disabled(self):
        sim = Simulator()
        router, endpoints = router_rig(sim, send_ttl_exceeded=False)
        router.add_route("0.0.0.0/0", out_port=1, next_hop_mac=NEXT_HOP)
        back = []
        endpoints[0].add_rx_sink(back.append)
        endpoints[0].send(build_udp(frame_size=100, dst_ip="8.8.8.8", ttl=0))
        sim.run()
        assert router.ttl_expired == 1
        assert back == []

    def test_lookup_latency_scales_with_prefix_depth(self):
        def latency_for(prefix_cidr, dst):
            sim = Simulator()
            router, endpoints = router_rig(
                sim, base_latency_ps=ns(900), per_trie_level_ps=ns(12)
            )
            router.add_route(prefix_cidr, out_port=1, next_hop_mac=NEXT_HOP)
            departures, arrivals = [], []
            endpoints[0].tx.on_start_of_frame = lambda p: departures.append(sim.now)
            endpoints[1].add_rx_sink(lambda p: arrivals.append(sim.now))
            endpoints[0].send(build_udp(frame_size=100, dst_ip=dst))
            sim.run()
            return arrivals[0] - departures[0]

        shallow = latency_for("10.0.0.0/8", "10.0.0.1")
        deep = latency_for("10.0.0.0/30", "10.0.0.1")
        assert deep == shallow + 22 * ns(12)  # 22 more trie levels walked

    def test_validation(self):
        with pytest.raises(ConfigError):
            Router(Simulator(), num_ports=0)


class TestRouterVlan:
    """A tagged frame is routed at its real IPv4 offset, not at byte 14."""

    def test_tagged_frame_ttl_identification_and_checksum(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("192.168.0.0/16", out_port=1, next_hop_mac=NEXT_HOP)
        out = []
        endpoints[1].add_rx_sink(out.append)
        sent = build_udp(frame_size=200, dst_ip="192.168.7.7", ttl=64, vlan=7)
        before = decode(sent.data).ipv4
        endpoints[0].send(sent)
        sim.run()
        assert router.forwarded == 1
        decoded = decode(out[0].data)
        assert [tag.vid for tag in decoded.vlan_tags] == [7]
        assert decoded.ipv4.ttl == 63
        assert decoded.ipv4.identification == before.identification
        assert decoded.ipv4.verify_checksum(out[0].data, 18)

    def test_tagged_frame_icmp_quote(self):
        sim = Simulator()
        router, endpoints = router_rig(sim)
        router.add_route("0.0.0.0/0", out_port=1, next_hop_mac=NEXT_HOP)
        back = []
        endpoints[0].add_rx_sink(back.append)
        sent = build_udp(frame_size=100, src_ip="10.0.0.5", dst_ip="8.8.8.8", ttl=1, vlan=7)
        endpoints[0].send(sent)
        sim.run()
        assert router.ttl_expired == 1
        reply = decode(back[0].data)
        assert reply.icmp.type == 11
        assert reply.ipv4.dst == "10.0.0.5"
        assert reply.ethernet.dst == decode(sent.data).ethernet.src
        # Quote: the offending IPv4 header and the first 8 bytes after it.
        assert reply.payload == sent.data[18 : 18 + 20 + 8]
        assert internet_checksum(back[0].data[34:]) == 0
