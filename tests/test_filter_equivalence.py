"""The compiled filter bank decides exactly as the 5-tuple reference does.

``FilterBank.decide`` compiles its rules to integer compares on header
offsets. The oracle here is the reference path: decode the frame to a
5-tuple and take the first rule whose :meth:`FilterRule.matches` is
true. Verdicts and the ``matched``/``passed``/``filtered`` counters
must agree over random rules and traffic, including IPv6 frames
against IPv4 prefixes, zero-length prefixes and non-IP frames.
"""

from hypothesis import given, settings, strategies as st

from repro.net import (
    build_arp_request,
    build_icmp_echo,
    build_tcp,
    build_udp,
    build_udp6,
    extract_five_tuple,
)
from repro.osnt.monitor import FilterBank, FilterRule

ADDRESSES = ["10.0.0.1", "10.0.0.2", "10.0.7.9", "192.168.1.1", "0.0.0.0", "255.255.255.255"]
PORTS = [0, 53, 80, 5000, 5001]

addresses = st.sampled_from(ADDRESSES)
ports = st.sampled_from(PORTS)


@st.composite
def rules(draw):
    return FilterRule(
        src_ip=draw(st.one_of(st.none(), addresses)),
        src_prefix_len=draw(st.sampled_from([0, 1, 8, 16, 24, 31, 32])),
        dst_ip=draw(st.one_of(st.none(), addresses)),
        dst_prefix_len=draw(st.integers(0, 32)),
        protocol=draw(st.one_of(st.none(), st.sampled_from([1, 6, 17, 58]))),
        src_port=draw(st.one_of(st.none(), ports)),
        dst_port=draw(st.one_of(st.none(), ports)),
        action_pass=draw(st.booleans()),
    )


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(["udp", "tcp", "icmp", "udp6", "arp", "vlan", "cut"]))
    src, dst = draw(addresses), draw(addresses)
    sport, dport = draw(ports), draw(ports)
    if kind == "udp":
        return build_udp(frame_size=96, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport).data
    if kind == "tcp":
        return build_tcp(frame_size=96, src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport).data
    if kind == "icmp":
        return build_icmp_echo(frame_size=80, src_ip=src, dst_ip=dst).data
    if kind == "udp6":
        return build_udp6(frame_size=110, src_port=sport, dst_port=dport).data
    if kind == "arp":
        return build_arp_request().data
    if kind == "vlan":
        return build_udp(frame_size=96, src_ip=src, dst_ip=dst, dst_port=dport, vlan=7).data
    # An IP frame cut inside its headers: a truncated L4 has no ports.
    data = build_tcp(frame_size=96, src_ip=src, dst_ip=dst, dst_port=dport).data
    return data[: draw(st.integers(14, 60))]


def reference(rule_list, default_pass, traffic):
    verdicts, matched, passed, filtered = [], 0, 0, 0
    for data in traffic:
        tup = extract_five_tuple(data)
        for rule in rule_list:
            if rule.matches(tup):
                matched += 1
                verdict = rule.action_pass
                break
        else:
            verdict = default_pass
        passed += verdict
        filtered += not verdict
        verdicts.append(verdict)
    return verdicts, (matched, passed, filtered)


class TestCompiledBankMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        rule_list=st.lists(rules(), max_size=6),
        default_pass=st.booleans(),
        traffic=st.lists(frames(), min_size=1, max_size=12),
    )
    def test_verdicts_and_counters(self, rule_list, default_pass, traffic):
        bank = FilterBank(default_pass=default_pass)
        for rule in rule_list:
            bank.add_rule(rule)
        verdicts = [bank.decide(data) for data in traffic]
        assert (verdicts, (bank.matched, bank.passed, bank.filtered)) == reference(
            rule_list, default_pass, traffic
        )

    def test_ipv6_against_ip_rules(self):
        data = build_udp6(frame_size=110, dst_port=5001).data
        for rule, expected in [
            (FilterRule(dst_ip="10.0.0.0", dst_prefix_len=8), False),
            (FilterRule(dst_ip="10.0.0.0", dst_prefix_len=0), True),
            (FilterRule(protocol=17, dst_port=5001), True),
        ]:
            bank = FilterBank(default_pass=False)  # verdict == match
            bank.add_rule(rule)
            assert bank.decide(data) is expected
            assert rule.matches(extract_five_tuple(data)) is expected

    def test_non_ip_only_matches_all_wildcard(self):
        data = build_arp_request().data
        bank = FilterBank(default_pass=True)
        bank.add_rule(FilterRule(src_ip="0.0.0.0", src_prefix_len=0, action_pass=False))
        bank.add_rule(FilterRule(action_pass=False))
        assert bank.decide(data) is False
        assert bank.matched == 1
