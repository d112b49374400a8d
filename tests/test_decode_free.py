"""Gate: the per-packet data path never decodes frames to objects or strings.

Header fields on the hot path are read at integer offsets from
:func:`repro.net.parser.header_offsets`; :func:`~repro.net.parser.decode`
and the address formatters are for reports, tools and the control
plane. One short point of each open-loop data-plane scenario, and of
each closed-loop TCP flow scenario, runs under :mod:`cProfile`, and the
call counts must be zero. Call counts are deterministic, so this gate
cannot flake the way a wall-clock bound can.
"""

import cProfile
import pstats

import pytest

from repro.hw import EthernetPort
from repro.net import fields, parser
from repro.net.ipv4 import Ipv4Header
from repro.net.tcp import TcpHeader
from repro.runner import get_scenario

POINTS = {
    "legacy_latency": {"frame_size": 64, "load": 0.5, "duration": "20us"},
    "imix_latency": {"load": 0.5, "duration": "20us"},
    "capture_path": {"load": 0.9, "variant": {"name": "full"}, "duration": "20us"},
    "timestamp_placement": {"load": 0.9, "duration": "20us"},
    "rfc2544": {"frame_size": 64, "duration": "20us"},
    "router_latency": {"prefix_len": 24, "duration": "20us"},
}

FORBIDDEN = (parser.decode, fields.mac_to_str, fields.ipv4_to_str)


#: Closed-loop points: TCP segments between transport-attached hosts.
FLOW_POINTS = {
    "fct_vs_loss": {"n_flows": 4, "flow_bytes": 60_000},
    "throughput_under_bursty_corruption": {"n_flows": 2, "flow_bytes": 120_000},
    "effective_loss_vs_speed": {"n_flows": 4, "flow_bytes": 30_000},
}

#: Distinct (peer, segment length) header templates a flow point may
#: build: full-size data, the last short data segment, and the ACK.
MAX_HEADER_TEMPLATES = 4


def _calls(stats: pstats.Stats, function) -> int:
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats.get(key, (0, 0))[1]


def _profile(scenario: str, params: dict) -> pstats.Stats:
    profile = cProfile.Profile()
    profile.enable()
    try:
        get_scenario(scenario)(dict(params), 0)
    finally:
        profile.disable()
    return pstats.Stats(profile)


@pytest.mark.parametrize("scenario", sorted(POINTS))
def test_no_decode_on_the_per_packet_path(scenario):
    stats = _profile(scenario, POINTS[scenario])
    assert {fn.__name__: _calls(stats, fn) for fn in FORBIDDEN} == {
        fn.__name__: 0 for fn in FORBIDDEN
    }
    # The profile did see the point's traffic.
    assert _calls(stats, EthernetPort.send) > 10


@pytest.mark.parametrize("scenario", sorted(FLOW_POINTS))
def test_tcp_segments_neither_decoded_nor_built_from_header_objects(scenario):
    """Hosts read segments by offset and send them from header templates:
    header packing is per (peer, length), not per segment, so its count
    stays put while the segment count grows fourfold."""
    counted = (Ipv4Header.pack, TcpHeader.pack, EthernetPort.send)
    runs = []
    for scale in (1, 4):
        params = dict(FLOW_POINTS[scenario])
        params["flow_bytes"] *= scale
        stats = _profile(scenario, params)
        assert {fn.__name__: _calls(stats, fn) for fn in FORBIDDEN} == {
            fn.__name__: 0 for fn in FORBIDDEN
        }
        runs.append([_calls(stats, fn) for fn in counted])
    (ip_packs, tcp_packs, sends), (ip_packs_4x, tcp_packs_4x, sends_4x) = runs
    assert 0 < ip_packs == ip_packs_4x <= MAX_HEADER_TEMPLATES
    assert tcp_packs == tcp_packs_4x == 0
    assert 100 < sends and 3 * sends < sends_4x
