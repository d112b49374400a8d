"""Golden result digests for every built-in measurement scenario.

One short point per paper, fault, flow and attack scenario, run inline
through the spec API at a pinned seed. Each digest is
``sha256(canonical_json(report.results()))``: any change to a
scenario's parameter binding, unit coercion, seed derivation or result
folding shows up here as a changed digest, even where the scenario's
own tests only check shapes and bounds.

The params use the spec names and unit strings a JSON spec would, so
the digests also pin how strings like ``"50us"`` are coerced.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.runner import ExperimentSpec, canonical_json, list_scenarios, run_spec

SEED = 3

#: scenario -> (params of the one point, sha256 of its results).
GOLDEN = {
    "line_rate": (
        {"frame_size": 64, "duration": "50us", "ports": 4},
        "2be471f66087c53208aed8fd37ca913fe7bb9eed1b54207c6b64ceb9bec1a0a5",
    ),
    "idt_precision": (
        {"kind": "software", "target_gap_ps": "20us", "packet_count": 50},
        "78013eaa9c6970d91664bdb227bddfc9be135f19e3e0d15ddf0ffc86c570f1ca",
    ),
    "clock_error": (
        {"mode": "gps-disciplined", "horizon_s": 3},
        "497247837230138f61eaae1625d69980290c0a703dfaad30908aa300705a67f6",
    ),
    "legacy_latency": (
        {"frame_size": 64, "load": 0.95, "duration": "50us", "telemetry": True},
        "26cf49f9c4102855e0bd08b21945f5995cbdb5db9827197a60e8c31239f26f16",
    ),
    "capture_path": (
        {
            "load": 0.9,
            "variant": {"name": "cut+thin", "snaplen": 64, "keep_one_in": 8},
            "duration": "50us",
            "dma_bandwidth_bps": "2Gbps",
        },
        "3b709faa4ca83b3080c9d076301b33c3e9b45bd81b6c06ae7d63e3fa249ccf69",
    ),
    "timestamp_placement": (
        {"load": 0.8, "duration": "50us"},
        "8f462a5e7b895589314e2349ee5fe10fc3c1825416bb28223773824329e63a89",
    ),
    "router_latency": (
        {"prefix_len": 24, "fib_fill": 50, "duration": "50us"},
        "780eff885d2da53ecec14be8e0c34f812a4acbf1d10ff115d5e0795cce33e003",
    ),
    "imix_latency": (
        {"load": 0.5, "duration": "50us"},
        "ccff7a1a930a7a6f8e1797e85643ab559123b0a468dc7bf423dc2565d0d8e596",
    ),
    "flowmod_latency": (
        {"n_rules": 4, "barrier_mode": "eager", "firmware_delay": "20us"},
        "2fa98782e33a495af9e371371189f295b376178ab6576c0ada2492453bf57b2d",
    ),
    "forwarding_consistency": (
        {"n_rules": 4, "table_write": "20us"},
        "d3b900a155cc51510c681a5823e78293cd590f745a474aa0265cae9b6a0df0b7",
    ),
    "rfc2544": (
        {"frame_size": 64, "duration": "50us", "resolution": 0.05},
        "3067a302d4bebac3ed7187cd228b961fca6c563f6fdcff8300a46bce2ec71983",
    ),
    "oflops": (
        {"module": "packet_in_latency"},
        "caee167e1848bade8f59689248b9dd3081b402708d4a778bbfb987d10d2577d8",
    ),
    "syn_flood_flowmod": (
        {"n_flows": 16, "n_rules": 4, "duration": "1ms", "warmup": "200us"},
        "337f2e76b1efb41acbb589629cab31f7a255c58ee391c602595c4320ce4520a1",
    ),
    "incast_burst": (
        {
            "senders": 3,
            "duration": "200us",
            "traffic": {
                "model": "periodic",
                "params": {"on": "20us", "off": "40us", "peak": "5Gbps"},
            },
            "phase_step": "20us",
        },
        "36ac7a50053da31aa91acf3816e4fdd45d26aec8a8f5092fc17ac7409e4f9a91",
    ),
    "lossy_link_latency": (
        {"loss_rate": 0.05, "burst": 2.0, "load": 0.2, "duration": "200us"},
        "b26f4fe0860dcc53bd1a37a6e3b36e3a81dd242a7b36191d63580aa07c4804f9",
    ),
    "gps_holdover_drift": (
        {"holdover_start_s": 1, "holdover_len_s": 1, "horizon_s": 3},
        "7f0dd1e6835c223143623aa9821dda58528c62cfed3b78204f27e5e8898c9624",
    ),
    "flowmod_under_flap": (
        {"n_rules": 4},
        "37468b53e4b26e5989dd46642c0649e964d26081e54d70b3c52732ef7787192e",
    ),
    "fct_vs_loss": (
        {
            "corrupt_rate": 0.05,
            "protected": False,
            "n_flows": 4,
            "flow_bytes": 20000,
            "spacing": "20us",
        },
        "d483f71aafa618d8ba714be6699df1a7292d70bd6c00ae8a953f072ceabb7a39",
    ),
    "effective_loss_vs_speed": (
        {"link_rate": "25Gbps", "n_flows": 4, "flow_bytes": 10000},
        "7296a88ac0a43efa2552515f789f732aab6acb1e679e8707eb656541e764d48a",
    ),
    "throughput_under_bursty_corruption": (
        {"n_flows": 4, "flow_bytes": 20000},
        "15b75d4f34be2f6d91cd26b0a3330cd5adecea9f90235471ee610ef934ec5a80",
    ),
}


def _digest(scenario: str, params: dict) -> str:
    spec = ExperimentSpec(
        name=f"golden-{scenario}",
        scenario=scenario,
        params=params,
        seed=SEED,
        timeout_s=None,
        retries=0,
    )
    report = run_spec(spec, workers=0).require_ok()
    return hashlib.sha256(canonical_json(report.results()).encode()).hexdigest()


def test_every_measurement_scenario_is_pinned():
    operational = {"echo", "sleep", "flaky_marker"}
    assert set(GOLDEN) == set(list_scenarios()) - operational


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_scenario_result_digest_is_pinned(scenario):
    params, expected = GOLDEN[scenario]
    assert _digest(scenario, params) == expected
