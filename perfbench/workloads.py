"""The benchmark's workloads, declared as the runner's own ExperimentSpecs.

Every point is an :class:`repro.runner.ExperimentSpec` whose root seed is
the run's ``--seed``, so each point seed is derived from it by the
runner's own derivation and the program sees only the generated inputs.

* ``forwarding_open_loop`` — the paper's Part I data-plane experiments,
  open loop in simulated time (generators send on a schedule whatever
  the device does). Every frame takes the per-packet path.
* ``control_closed_loop`` — callers that wait for replies: OpenFlow
  barriers, OFLOPS modules and TCP flows. The only workload that uses
  the OpenFlow codec, firmware queue, flow table, transport, faults and
  armed observability.
* ``sweep_cold_warm`` — uniform ``line_rate`` shards through the forked
  worker pool and a fresh result store: a cold pass that computes and
  stores, then warm passes served from the store. The burst lane is
  closed-form, so the per-packet path does almost no work here.

Most durations are shorter than the paper benchmarks' so that one pass
over a workload takes one to two and a half seconds and a run holds many
passes. The forwarding and control points stay long enough that over 90%
of their pass runs inside ``Simulator.run`` rather than in testbed build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro.runner import ExperimentSpec

#: The seed the golden digests are pinned at.
DEFAULT_SEED = 0

Point = Tuple[str, str, Dict[str, Any]]

_CAPTURE_VARIANTS = [
    {"name": "full"},
    {"name": "cut-64", "snaplen": 64},
    {"name": "thin-1in8", "keep_one_in": 8},
    {"name": "cut+thin", "snaplen": 64, "keep_one_in": 8},
]

_FORWARDING: List[Point] = (
    [
        (
            f"e3.legacy_latency.{size}B.load{load}",
            "legacy_latency",
            {"frame_size": size, "load": load, "duration": duration},
        )
        # Longer for larger frames, so each point carries enough frames
        # that its testbed build stays a few percent of it.
        for size, duration in ((64, "125us"), (512, "500us"), (1518, "1ms"))
        for load in (0.5, 0.95)
    ]
    + [("e3b.imix_latency", "imix_latency", {"load": 0.5, "duration": "250us"})]
    + [
        (
            f"e6.capture_path.{variant['name']}",
            "capture_path",
            {"load": 0.9, "variant": variant, "duration": "250us"},
        )
        for variant in _CAPTURE_VARIANTS
    ]
    + [
        (
            "e7.timestamp_placement",
            "timestamp_placement",
            {"load": 0.9, "duration": "250us"},
        ),
        ("e8.rfc2544.64B", "rfc2544", {"frame_size": 64, "duration": "100us"}),
    ]
    + [
        (
            f"e9.router_latency./{prefix}",
            "router_latency",
            # The default 1 ms: each point first fills a 1000-route FIB.
            {"prefix_len": prefix, "duration": "1ms"},
        )
        for prefix in (8, 24, 32)
    ]
)

_CONTROL: List[Point] = [
    ("e4.flowmod_latency.spec", "flowmod_latency", {"barrier_mode": "spec", "n_rules": 8}),
    ("e4.flowmod_latency.eager", "flowmod_latency", {"barrier_mode": "eager", "n_rules": 8}),
    ("e5.forwarding_consistency", "forwarding_consistency", {"n_rules": 8}),
] + [
    (f"oflops.{module}", "oflops", {"module": module})
    for module in (
        "packet_in_latency",
        "flow_expiry",
        "port_stats_accuracy",
        "control_interaction",
        "throughput",
    )
] + [
    (
        "a1.syn_flood_flowmod.observed",
        "syn_flood_flowmod",
        {"duration": "1ms", "observe": True, "waveforms": True},
    ),
    ("l1.fct_vs_loss.protected", "fct_vs_loss", {"protected": True, "n_flows": 16}),
    (
        "l1.fct_vs_loss.unprotected.observed",
        "fct_vs_loss",
        {"protected": False, "n_flows": 16, "observe": True},
    ),
    ("l3.throughput_under_bursty_corruption", "throughput_under_bursty_corruption", {}),
]


def _point_specs(points: List[Point], seed: int) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(
            name=label, scenario=scenario, params=params, seed=seed, timeout_s=None
        )
        for label, scenario, params in points
    ]


def _kind_specs(points: List[Point], seed: int) -> List[ExperimentSpec]:
    """One spec per scenario kind (an ``oflops`` module is a kind)."""
    kinds: Dict[Tuple[str, str], ExperimentSpec] = {}
    for spec in _point_specs(points, seed):
        kinds.setdefault((spec.scenario, spec.params.get("module", "")), spec)
    return list(kinds.values())


def _sweep_specs(repeats: int, seed: int) -> List[ExperimentSpec]:
    return [
        ExperimentSpec(
            name="sweep.line_rate",
            scenario="line_rate",
            params={"duration": "1ms"},
            axes={"frame_size": [64, 128, 256, 512, 1024, 1518], "ports": [1, 4]},
            repeats=repeats,
            seed=seed,
            timeout_s=120.0,
        )
    ]


@dataclass(frozen=True)
class Workload:
    """One named workload: its specs, and how the runner executes them."""

    name: str
    #: ``SweepRunner`` workers: 0 runs shards inline in the measured
    #: process, >= 1 forks a worker per shard attempt. Only the forked
    #: workload's shards are all of one kind.
    workers: int
    #: ``specs(seed)``: the specs of one pass, every shard seed derived
    #: from ``seed``.
    specs: Callable[[int], List[ExperimentSpec]]
    #: ``warmup_specs(seed)``: one untimed spec per scenario kind, run
    #: before measuring.
    warmup_specs: Callable[[int], List[ExperimentSpec]]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "forwarding_open_loop",
            workers=0,
            specs=partial(_point_specs, _FORWARDING),
            warmup_specs=partial(_kind_specs, _FORWARDING),
        ),
        Workload(
            "control_closed_loop",
            workers=0,
            specs=partial(_point_specs, _CONTROL),
            warmup_specs=partial(_kind_specs, _CONTROL),
        ),
        Workload(
            "sweep_cold_warm",
            workers=os.cpu_count() or 1,
            specs=partial(_sweep_specs, 2),
            warmup_specs=partial(_sweep_specs, 1),
        ),
    )
}
