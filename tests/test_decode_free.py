"""Gate: the per-packet data path never decodes frames to objects or strings.

Header fields on the hot path are read at integer offsets from
:func:`repro.net.parser.header_offsets`; :func:`~repro.net.parser.decode`
and the address formatters are for reports, tools and the control
plane. One short point of each open-loop data-plane scenario runs under
:mod:`cProfile`, and the call counts must be zero. Call counts are
deterministic, so this gate cannot flake the way a wall-clock bound can.
"""

import cProfile
import pstats

import pytest

from repro.hw import EthernetPort
from repro.net import fields, parser
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


def _calls(stats: pstats.Stats, function) -> int:
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats.get(key, (0, 0))[1]


@pytest.mark.parametrize("scenario", sorted(POINTS))
def test_no_decode_on_the_per_packet_path(scenario):
    profile = cProfile.Profile()
    profile.enable()
    try:
        get_scenario(scenario)(dict(POINTS[scenario]), 0)
    finally:
        profile.disable()
    stats = pstats.Stats(profile)
    assert {fn.__name__: _calls(stats, fn) for fn in FORBIDDEN} == {
        fn.__name__: 0 for fn in FORBIDDEN
    }
    # The profile did see the point's traffic.
    assert _calls(stats, EthernetPort.send) > 10
