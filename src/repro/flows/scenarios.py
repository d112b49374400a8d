"""Closed-loop flow scenarios: FCT under corruption loss.

Three measurement points, each registered as a sweepable scenario in
:data:`repro.runner.registry.BUILTINS`:

* ``fct_vs_loss`` — the LinkGuardian headline experiment: a batch of
  flows across a corrupting link, with and without link-local
  protection. Protection recovers near-lossless FCT; the unprotected
  link's tail collapses into RTO territory.
* ``effective_loss_vs_speed`` — the loss rate the *transport* sees at
  different link speeds, protected vs raw.
* ``throughput_under_bursty_corruption`` — aggregate goodput when the
  corruption arrives in geometric bursts (the hard case for loss
  protection: consecutive local retransmits).

All three build their host–switch–host testbed through the declarative
:class:`repro.topology.Topology` builder, and compose with
:mod:`repro.faults` via an optional ``impairments`` list applied to the
clean (h1-side) link. Results carry a ``flow_digest`` — a SHA-256 over
the full per-flow outcome table — which the determinism tests compare
across worker counts, resume, and with observability armed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..analysis.fct import fct_report
from ..sim import Simulator
from ..topology import Topology
from ..units import TEN_GBPS, Duration, Rate, rate_bps, us
from .protection import LinkGuardian
from .transport import Flow, FlowConfig, FlowEndpoint, completions_digest


def _arm_obs(sim: Simulator, observe: bool) -> None:
    """Optionally arm packet-lifecycle spans (repro.obs composition).

    Spans are a pure observation point: arming them must not perturb a
    single timestamp, so every scenario result stays byte-identical
    with ``observe`` on or off — the determinism tests assert exactly
    that.
    """
    if observe:
        from ..obs import SpanRecorder

        SpanRecorder().arm(sim)


def _pair_topology(link_rate, switch_seed: int) -> Topology:
    """h1 —(clean)— s1 —(dirty)— h2, both cables at ``link_rate``."""
    return (
        Topology(name="flow-pair")
        .host("h1", rate=link_rate)
        .host("h2", rate=link_rate)
        .node("s1", "legacy_switch", ports=2, rate=link_rate, seed=switch_seed)
        .link("h1", "s1:0", rate=link_rate)
        .link("s1:1", "h2", rate=link_rate)
    )


def _run_flows(
    sim: Simulator,
    src: FlowEndpoint,
    dst: FlowEndpoint,
    n_flows: int,
    flow_bytes: int,
    spacing_ps: int,
    config: FlowConfig,
) -> List[Flow]:
    flows = [
        src.flow_to(dst, size_bytes=flow_bytes, start_ps=i * spacing_ps, config=config)
        for i in range(n_flows)
    ]
    sim.run()
    return flows


def _apply_impairments(sim, impairments, link, seed: int):
    """Optional repro.faults composition on the clean link."""
    if not impairments:
        return None
    from ..faults.injector import FaultInjector
    from ..faults.spec import ImpairmentSpec

    injector = FaultInjector(sim, ImpairmentSpec.from_any(impairments), seed=seed)
    injector.bind(link=link).arm()
    return injector


def fct_vs_loss_point(
    *,
    corrupt_rate: float = 1e-3,
    protected: bool = False,
    n_flows: int = 64,
    flow_bytes: int = 60_000,
    link_rate: Rate = TEN_GBPS,
    burst: float = 1.0,
    spacing: Duration = us(50),
    seed: int = 0,
    switch_seed: int = 1,
    direction: Optional[str] = "a_to_b",
    impairments: Any = None,
    observe: bool = False,
) -> Dict[str, Any]:
    """L1: flow completion times over a corrupting link.

    The guardian (LinkGuardian-style link-local protection when
    ``protected``) rides the s1→h2 cable, corrupting the data direction
    (``direction="a_to_b"``, like LinkGuardian's single-direction
    experiments; pass None to corrupt ACKs too). The corruption pattern
    is drawn identically whether ``protected`` is on or off — same seed
    → same corrupted frames, only their fate differs.
    """
    sim = Simulator()
    _arm_obs(sim, observe)
    built = _pair_topology(link_rate, switch_seed).build(sim)
    guardian = LinkGuardian(
        corrupt_rate=corrupt_rate,
        protected=protected,
        burst=burst,
        seed=seed,
        direction=direction,
    ).attach(built.link_between("s1", "h2"))
    injector = _apply_impairments(
        sim, impairments, built.link_between("h1", "s1"), seed
    )
    src, dst = FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))
    flows = _run_flows(sim, src, dst, n_flows, flow_bytes, spacing, FlowConfig())
    records = [flow.record for flow in flows]
    result = {
        "corrupt_rate": corrupt_rate,
        "protected": protected,
        "burst": burst,
        **fct_report(records),
        "link": guardian.counters(),
        "link_effective_loss_rate": guardian.effective_loss_rate,
        "flow_digest": completions_digest(records),
    }
    if injector is not None:
        result["fault_timeline_digest"] = injector.timeline_digest()
    return result


def effective_loss_vs_speed_point(
    *,
    link_rate: Rate = TEN_GBPS,
    corrupt_rate: float = 1e-3,
    protected: bool = True,
    n_flows: int = 16,
    flow_bytes: int = 30_000,
    spacing: Duration = us(50),
    seed: int = 0,
    switch_seed: int = 1,
    observe: bool = False,
) -> Dict[str, Any]:
    """L2: transport-visible loss rate at a given link speed.

    The corruption probability is per frame, so the *per-second*
    corruption rate scales with link speed — LinkGuardian's argument
    for why corruption loss gets worse beyond 10 Gbps. Reported per
    speed: the link's residual loss after protection and the effective
    loss rate the transport measured (retransmits / segments).
    """
    sim = Simulator()
    _arm_obs(sim, observe)
    built = _pair_topology(link_rate, switch_seed).build(sim)
    guardian = LinkGuardian(
        corrupt_rate=corrupt_rate, protected=protected, seed=seed
    ).attach(built.link_between("s1", "h2"))
    src, dst = FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))
    flows = _run_flows(sim, src, dst, n_flows, flow_bytes, spacing, FlowConfig())
    records = [flow.record for flow in flows]
    report = fct_report(records)
    return {
        "link_rate_bps": rate_bps(link_rate),
        "corrupt_rate": corrupt_rate,
        "protected": protected,
        **report,
        "link": guardian.counters(),
        "link_effective_loss_rate": guardian.effective_loss_rate,
        "flow_digest": completions_digest(records),
    }


def throughput_under_bursty_corruption_point(
    *,
    corrupt_rate: float = 5e-3,
    burst: float = 4.0,
    protected: bool = True,
    n_flows: int = 8,
    flow_bytes: int = 120_000,
    link_rate: Rate = TEN_GBPS,
    spacing: Duration = us(20),
    seed: int = 0,
    switch_seed: int = 1,
    observe: bool = False,
) -> Dict[str, Any]:
    """L3: aggregate goodput when corruption arrives in geometric bursts.

    Bursts are the stress case for link-local retransmission: each
    corrupted frame needs its own recovery rounds, and back-to-back
    corruptions stack holdback delay. Compare the same ``corrupt_rate``
    at ``burst=1`` (i.i.d.) vs larger means.
    """
    sim = Simulator()
    _arm_obs(sim, observe)
    built = _pair_topology(link_rate, switch_seed).build(sim)
    guardian = LinkGuardian(
        corrupt_rate=corrupt_rate, protected=protected, burst=burst, seed=seed
    ).attach(built.link_between("s1", "h2"))
    src, dst = FlowEndpoint(built.node("h1")), FlowEndpoint(built.node("h2"))
    flows = _run_flows(sim, src, dst, n_flows, flow_bytes, spacing, FlowConfig())
    records = [flow.record for flow in flows]
    report = fct_report(records)
    aggregate_bits = sum(r.bytes_acked for r in records) * 8
    span_ps = max((r.end_ps for r in records), default=0) - min(
        (r.start_ps for r in records), default=0
    )
    return {
        "corrupt_rate": corrupt_rate,
        "burst": burst,
        "protected": protected,
        **report,
        "aggregate_goodput_gbps": (
            aggregate_bits / (span_ps * 1e-12) / 1e9 if span_ps > 0 else 0.0
        ),
        "link": guardian.counters(),
        "flow_digest": completions_digest(records),
    }


__all__ = [
    "effective_loss_vs_speed_point",
    "fct_vs_loss_point",
    "throughput_under_bursty_corruption_point",
]
