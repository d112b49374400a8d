"""Reusable measurement scenarios — the code behind experiments E1–E9.

Each experiment is one **point function** (``*_point``): build one
fresh topology, run one measurement, return a plain dataclass row
(plus an extras dict, e.g. a telemetry snapshot when requested).
Point functions take keyword-only parameters named like the spec
params; :data:`repro.runner.registry.BUILTINS` registers them as named
scenarios, which is what makes them sweepable, shardable and resumable
through :class:`~repro.runner.ExperimentSpec` (see ``docs/RUNNER.md``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Literal, Optional, Tuple

from ..analysis.latency import latency_from_capture
from ..analysis.stats import SummaryStats, gap_jitter_std
from ..devices.legacy_switch import LegacySwitch
from ..devices.openflow_switch import BarrierMode, SwitchProfile
from ..hw.port import connect
from ..openflow import constants as ofp
from ..openflow.match import Match
from ..openflow.actions import OutputAction
from ..openflow.messages import BarrierReply, BarrierRequest, FlowMod
from ..osnt.api import OSNT
from ..osnt.generator.schedule import ConstantBitRate, ConstantGap
from ..osnt.software_baseline import SoftwareGenerator
from ..sim import RandomStreams, Simulator
from ..units import (
    TEN_GBPS,
    Duration,
    Rate,
    line_rate_goodput_bps,
    line_rate_pps,
    ms,
    seconds,
    us,
)
from .topology import legacy_testbed, openflow_testbed
from .workloads import fixed_size_source, port_sweep_source, udp_template

#: Extras returned by every point function (telemetry snapshots etc.).
Extras = Dict[str, Any]


def _maybe_snapshot(tester: OSNT, telemetry: bool) -> Extras:
    return {"telemetry": tester.snapshot()} if telemetry else {}


# ---------------------------------------------------------------------------
# E1 — line rate vs packet size
# ---------------------------------------------------------------------------


@dataclass
class LineRateRow:
    frame_size: int
    ports: int
    achieved_pps: float
    theoretical_pps: float
    achieved_goodput_bps: float
    theoretical_goodput_bps: float

    @property
    def efficiency(self) -> float:
        return self.achieved_pps / self.theoretical_pps


def line_rate_point(
    *,
    frame_size: int,
    duration: Duration = ms(1),
    ports: int = 1,
    seed: int = 0,
    telemetry: bool = False,
) -> Tuple[LineRateRow, Extras]:
    """One E1 point: line-rate generation for one frame size.

    ``ports=4`` exercises all four card ports simultaneously (two
    loopback pairs, both directions), demonstrating the paper's "full
    line-rate ... across the four card ports".
    """
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), tester.port(1))
    connect(tester.port(2), tester.port(3))
    if telemetry:
        tester.start_telemetry()
    active = [0] if ports == 1 else list(range(ports))
    generators = []
    for port_index in active:
        generator = tester.generator(port_index)
        generator.load_template(udp_template(frame_size)).at_line_rate()
        generator.for_duration(duration)
        generator.start()
        generators.append(generator)
    sim.run()
    row = LineRateRow(
        frame_size=frame_size,
        ports=len(active),
        achieved_pps=sum(g.stats.achieved_pps() for g in generators),
        theoretical_pps=line_rate_pps(frame_size) * len(active),
        achieved_goodput_bps=sum(g.stats.achieved_bps() for g in generators),
        theoretical_goodput_bps=line_rate_goodput_bps(frame_size) * len(active),
    )
    return row, _maybe_snapshot(tester, telemetry)


# ---------------------------------------------------------------------------
# E2 — timing precision: hardware vs software, GPS discipline
# ---------------------------------------------------------------------------


@dataclass
class PrecisionRow:
    generator: str  # "osnt" or "software"
    target_gap_ns: float
    mean_gap_ns: float
    gap_std_ns: float
    worst_error_ns: float


def idt_precision_point(
    *,
    kind: Literal["osnt", "software"],
    target_gap_ps: Duration,
    packet_count: int = 500,
    frame_size: int = 128,
    seed: int = 0,
) -> Tuple[PrecisionRow, Extras]:
    """E2: wire-level inter-departure precision for one generator kind.

    ``kind`` is ``"osnt"`` (the hardware model) or ``"software"`` (the
    host-stack baseline)."""
    sim = Simulator()
    tester = OSNT(sim)
    connect(tester.port(0), tester.port(1))
    departures: List[int] = []
    source = fixed_size_source(frame_size, count=packet_count)
    schedule = ConstantGap(target_gap_ps)
    if kind == "osnt":
        generator = tester.generator(0)
        tester.device.ports[0].tx.on_start_of_frame = (
            lambda p: departures.append(sim.now)
        )
        generator._engine.configure(source, schedule=schedule, count=packet_count)
        generator._engine.start()
    elif kind == "software":
        # A separate port pair driven by the host-stack model.
        from ..hw.port import EthernetPort

        a = EthernetPort(sim, "sw-a")
        b = EthernetPort(sim, "sw-b")
        connect(a, b)
        swgen = SoftwareGenerator(sim, a, rng=RandomStreams(seed).stream("swgen"))
        a.tx.on_start_of_frame = lambda p: departures.append(sim.now)
        swgen.configure(source, schedule, count=packet_count)
        swgen.start()
    else:
        from ..errors import ConfigError

        raise ConfigError(f"unknown generator kind {kind!r} (osnt|software)")
    sim.run()
    gaps = [b_ - a_ for a_, b_ in zip(departures, departures[1:])]
    mean = sum(gaps) / len(gaps)
    row = PrecisionRow(
        generator=kind,
        target_gap_ns=target_gap_ps / 1e3,
        mean_gap_ns=mean / 1e3,
        gap_std_ns=gap_jitter_std(departures) / 1e3,
        worst_error_ns=max(abs(g - target_gap_ps) for g in gaps) / 1e3,
    )
    return row, {}


@dataclass
class ClockErrorRow:
    mode: str  # "free-running" or "gps-disciplined"
    after_seconds: int
    abs_error_ns: float


def clock_error_point(
    *,
    mode: Literal["free-running", "gps-disciplined"],
    freq_error_ppm: float = 30.0,
    walk_ppb: float = 20.0,
    horizon_s: int = 10,
    seed: int = 0,
) -> Tuple[List[ClockErrorRow], Extras]:
    """One E2b point: clock error over time for one discipline mode."""
    gps_enabled = mode == "gps-disciplined"
    sim = Simulator()
    tester = OSNT(
        sim,
        root_seed=seed,
        freq_error_ppm=freq_error_ppm,
        oscillator_walk_ppb=walk_ppb,
        gps_enabled=gps_enabled,
    )
    rows = []
    for second in range(1, horizon_s + 1):
        # Sample mid-interval: at the pulse instant a disciplined
        # clock reads zero by construction, which would overstate it.
        sim.run(until=seconds(second) + seconds(1) // 2)
        rows.append(
            ClockErrorRow(
                mode=mode,
                after_seconds=second,
                abs_error_ns=abs(tester.device.oscillator.error_ps()) / 1e3,
            )
        )
    return rows, {}


# ---------------------------------------------------------------------------
# E3 — legacy switch latency vs load (demo Part I)
# ---------------------------------------------------------------------------


@dataclass
class LatencyRow:
    frame_size: int
    load: float
    packets: int
    mean_us: float
    p50_us: float
    p99_us: float
    max_us: float
    jitter_us: float
    switch_drops: int


def legacy_latency_point(
    *,
    frame_size: int,
    load: float,
    duration: Duration = ms(2),
    probe_load: float = 0.05,
    switch_kwargs: Optional[dict] = None,
    seed: int = 0,
    switch_seed: int = 1,
    telemetry: bool = False,
) -> Tuple[LatencyRow, Extras]:
    """One E3 point: probe latency through the switch at one load.

    Timestamped probes flow OSNT port 0 → switch → OSNT port 1 at a
    fixed low rate; background traffic from OSNT port 2 shares the same
    egress at ``load - probe_load``, so sweeping ``load`` sweeps the
    egress-queue occupancy the probes experience. At loads near/above
    1.0 the queue saturates: latency plateaus at the buffer depth and
    the switch drops — exactly the shape a hardware DUT shows.
    """
    sim = Simulator()
    switch = LegacySwitch(
        sim, rng=RandomStreams(switch_seed).stream("sw"), **(switch_kwargs or {})
    )
    bed = legacy_testbed(sim, switch=switch, wire_cross_ports=True, root_seed=seed)
    bed.teach_mac_table("02:00:00:00:00:02")
    if telemetry:
        bed.tester.start_telemetry()
    bed.monitor.start_capture()
    background_load = max(0.0, load - probe_load)
    if background_load > 0:
        # Poisson arrivals: real aggregates are bursty, and the
        # classic latency-vs-load queueing curve needs burstiness
        # (deterministic CBR only queues at saturation).
        background = bed.tester.generator(2)
        background.load_template(
            udp_template(frame_size, src_mac="02:00:00:00:00:03")
        )
        from ..units import frame_wire_bytes, wire_time_ps

        wire_ps = wire_time_ps(frame_wire_bytes(frame_size), TEN_GBPS)
        background.poisson(wire_ps / min(background_load, 1.0))
        background.for_duration(duration)
        background.start()
    bed.generator.load_template(udp_template(frame_size))
    bed.generator.set_load(min(load, probe_load))
    bed.generator.embed_timestamps().for_duration(duration)
    bed.generator.start()
    sim.run()
    result = latency_from_capture(bed.monitor.packets)
    summary = result.summary
    row = LatencyRow(
        frame_size=frame_size,
        load=load,
        packets=summary.count,
        mean_us=summary.mean / 1e6,
        p50_us=summary.p50 / 1e6,
        p99_us=summary.p99 / 1e6,
        max_us=summary.maximum / 1e6,
        jitter_us=result.jitter_rfc3550_ps / 1e6,
        switch_drops=switch.egress_drops,
    )
    return row, _maybe_snapshot(bed.tester, telemetry)


# ---------------------------------------------------------------------------
# E4 — flow_mod install latency, control vs data plane (demo Part II)
# ---------------------------------------------------------------------------


@dataclass
class FlowModResult:
    barrier_mode: str
    n_rules: int
    #: Time from the first flow_mod leaving the controller to the
    #: barrier reply arriving back (the control plane's claim).
    control_latency_ps: int
    #: Per-rule data-plane activation latency (first forwarded probe).
    rule_activation_ps: List[int] = field(default_factory=list)
    #: True when the run hit its deadline with rules unactivated or the
    #: barrier unanswered (fault-injection runs); healthy runs report
    #: False and :func:`flowmod_latency_point` omits the field.
    degraded: bool = False
    #: Setup-barrier resends that were needed (flapped control channel).
    control_retries: int = 0

    @property
    def data_plane_complete_ps(self) -> int:
        return max(self.rule_activation_ps) if self.rule_activation_ps else 0

    @property
    def control_says_done_before_data_ps(self) -> int:
        """Positive when the barrier claimed completion early."""
        return self.data_plane_complete_ps - self.control_latency_ps


def flowmod_latency_point(
    *,
    n_rules: int = 32,
    barrier_mode: BarrierMode = "spec",
    firmware_delay: Duration = us(10),
    table_write: Duration = us(100),
    probe_gap: Duration = us(2),
    base_port: int = 6000,
    impairments: Any = None,
    seed: int = 0,
    deadline: Optional[Duration] = None,
    barrier_retries: int = 3,
) -> Dict[str, Any]:
    """E4: flow_mod install latency, control vs data plane.

    A catch-all drop rule keeps probe misses off the control channel;
    probes cycle ``n_rules`` UDP destination ports; each new rule's
    activation is the RX timestamp of the first probe it forwards. The
    result is the :class:`FlowModResult` row plus its derived
    ``data_plane_complete_ps`` and ``control_says_done_before_data_ps``.

    ``impairments`` accepts anything
    :meth:`repro.faults.ImpairmentSpec.from_any` does; under active
    faults the run degrades instead of crashing: setup barriers are
    resent up to ``barrier_retries`` times, and a ``deadline`` hit
    (default 2 s after the update burst) reports ``degraded=True``
    with whatever activated. Without impairments the measurement (and
    its event timeline) is exactly the historical one, and a healthy
    run omits ``degraded``/``control_retries`` from its result.
    """
    from ..faults import FaultInjector, ImpairmentSpec

    sim = Simulator()
    profile = SwitchProfile(
        barrier_mode=barrier_mode,
        firmware_delay_ps=firmware_delay,
        table_write_ps=table_write,
    )
    bed = openflow_testbed(sim, profile=profile)
    spec = ImpairmentSpec.from_any(impairments)
    faulted = not spec.empty
    if faulted:
        device = bed.tester.device
        FaultInjector(sim, spec, seed=seed).bind(
            link=bed.links[0],
            link_egress=bed.links[1],
            dma=device.dma,
            clock=device,
            control=bed.channel,
        ).arm()
    barrier_times: Dict[int, int] = {}

    def on_control(message):
        if isinstance(message, BarrierReply):
            barrier_times[message.xid] = sim.now

    bed.controller.on_message = on_control

    # Catch-all drop (no actions), low priority.
    bed.controller.send(FlowMod(match=Match(), priority=1, actions=[]))
    bed.controller.send(BarrierRequest(xid=1))
    sim.run(until=ms(5))
    control_retries = 0
    if faulted:
        # Bounded resends: the barrier (or its reply) may have died on
        # a flapped channel. Healthy runs never enter this loop.
        setup_xid = 1
        while setup_xid not in barrier_times and control_retries < barrier_retries:
            control_retries += 1
            setup_xid = 100 + control_retries
            bed.controller.send(BarrierRequest(xid=setup_xid))
            sim.run(until=sim.now + ms(5))
    else:
        assert 1 in barrier_times, "setup barrier lost"

    # Continuous probes across the rule ports.
    bed.monitor.start_capture()
    bed.generator._engine.configure(
        port_sweep_source(128, n_rules, base_port=base_port),
        schedule=ConstantGap(probe_gap),
        embed_timestamps=False,
    )
    bed.generator._engine.start()

    # The measured update burst.
    t0 = sim.now
    for index in range(n_rules):
        bed.controller.send(
            FlowMod(
                match=Match.exact(
                    dl_type=0x0800, nw_proto=17, tp_dst=base_port + index
                ),
                priority=100,
                actions=[OutputAction(bed.egress_of_port)],
            )
        )
    bed.controller.send(BarrierRequest(xid=2))

    activation: Dict[int, int] = {}

    def on_capture(packet):
        from ..net.parser import decode

        decoded = decode(packet.data)
        if decoded.udp is None:
            return
        rule = decoded.udp.dst_port - base_port
        if 0 <= rule < n_rules and rule not in activation:
            activation[rule] = packet.rx_timestamp

    bed.monitor.on_packet(on_capture)

    # Run until every rule has forwarded and the barrier came back.
    stop_at = t0 + (seconds(2) if deadline is None else deadline)
    while sim.now < stop_at and (len(activation) < n_rules or 2 not in barrier_times):
        sim.run(until=min(sim.now + ms(1), stop_at))
    bed.generator._engine.stop()
    sim.run(until=sim.now + us(100))

    result = FlowModResult(
        barrier_mode=barrier_mode,
        n_rules=n_rules,
        control_latency_ps=barrier_times.get(2, stop_at) - t0,
        rule_activation_ps=[
            activation[index] - t0 for index in sorted(activation)
        ],
        degraded=len(activation) < n_rules or 2 not in barrier_times,
        control_retries=control_retries,
    )
    out = dataclasses.asdict(result)
    out["data_plane_complete_ps"] = result.data_plane_complete_ps
    out["control_says_done_before_data_ps"] = result.control_says_done_before_data_ps
    if not impairments and not result.degraded and not result.control_retries:
        del out["degraded"], out["control_retries"]
    return out


# ---------------------------------------------------------------------------
# E5 — forwarding consistency during large table updates
# ---------------------------------------------------------------------------


@dataclass
class ConsistencyResult:
    barrier_mode: str
    n_rules: int
    #: Probes that arrived at the OLD destination after the barrier
    #: reply claimed the update was complete.
    stale_after_barrier: int
    #: Probes at the old destination after the update burst was sent.
    stale_during_update: int
    #: Update transition span (first to last rule flip), data-plane view.
    transition_span_ps: int
    barrier_latency_ps: int


def forwarding_consistency_point(
    *,
    n_rules: int = 32,
    barrier_mode: BarrierMode = "eager",
    firmware_delay: Duration = us(30),
    table_write: Duration = us(50),
    probe_gap: Duration = us(2),
    base_port: int = 7000,
) -> ConsistencyResult:
    """E5: forwarding consistency during a large table update.

    Rules initially steer ``n_rules`` flows to OF port 2 (old). The
    burst rewrites them all to OF port 3 (new). A "stale" probe is one
    the switch still delivers to the old port — counted against both the
    update start and the barrier reply.
    """
    sim = Simulator()
    profile = SwitchProfile(
        barrier_mode=barrier_mode,
        firmware_delay_ps=firmware_delay,
        table_write_ps=table_write,
    )
    bed = openflow_testbed(sim, profile=profile, wire_cross_ports=True)
    old_port, new_port = 2, 3
    barrier_times: Dict[int, int] = {}
    bed.controller.on_message = lambda m: (
        barrier_times.__setitem__(m.xid, sim.now)
        if isinstance(m, BarrierReply)
        else None
    )

    for index in range(n_rules):
        bed.controller.send(
            FlowMod(
                match=Match.exact(
                    dl_type=0x0800, nw_proto=17, tp_dst=base_port + index
                ),
                priority=100,
                actions=[OutputAction(old_port)],
            )
        )
    bed.controller.send(BarrierRequest(xid=1))
    sim.run(until=ms(10))
    assert 1 in barrier_times, "setup barrier lost"

    old_monitor = bed.tester.monitor(1)
    new_monitor = bed.tester.monitor(2)
    old_monitor.start_capture()
    new_monitor.start_capture()
    bed.generator._engine.configure(
        port_sweep_source(128, n_rules, base_port=base_port),
        schedule=ConstantGap(probe_gap),
    )
    bed.generator._engine.start()
    sim.run(until=sim.now + ms(1))  # steady state via old port

    t_update = sim.now
    for index in range(n_rules):
        bed.controller.send(
            FlowMod(
                match=Match.exact(
                    dl_type=0x0800, nw_proto=17, tp_dst=base_port + index
                ),
                priority=100,
                command=ofp.OFPFC_MODIFY_STRICT,
                actions=[OutputAction(new_port)],
            )
        )
    bed.controller.send(BarrierRequest(xid=2))

    deadline = t_update + seconds(2)
    while sim.now < deadline and 2 not in barrier_times:
        sim.run(until=min(sim.now + ms(1), deadline))
    # Let the transition finish: run until probes stop reaching old port.
    sim.run(until=sim.now + ms(5))
    bed.generator._engine.stop()
    sim.run(until=sim.now + us(100))

    barrier_at = barrier_times.get(2, deadline)
    old_rx = [p.rx_timestamp for p in old_monitor.packets if p.rx_timestamp >= t_update]
    new_rx = [p.rx_timestamp for p in new_monitor.packets]
    last_old = max(old_rx) if old_rx else t_update
    first_new = min(new_rx) if new_rx else last_old
    return ConsistencyResult(
        barrier_mode=barrier_mode,
        n_rules=n_rules,
        stale_after_barrier=sum(1 for t in old_rx if t > barrier_at),
        stale_during_update=len(old_rx),
        transition_span_ps=max(0, last_old - first_new),
        barrier_latency_ps=barrier_at - t_update,
    )


# ---------------------------------------------------------------------------
# E6 — loss-limited capture path
# ---------------------------------------------------------------------------


@dataclass
class CaptureRow:
    offered_load: float
    variant: str
    offered_packets: int
    captured: int
    dropped: int

    @property
    def capture_fraction(self) -> float:
        total = self.captured + self.dropped
        return self.captured / total if total else 0.0


#: The capture reducer variants E6 compares, as spec-friendly dicts.
CAPTURE_VARIANTS: List[Dict[str, Any]] = [
    {"name": "full"},
    {"name": "cut-64", "snaplen": 64},
    {"name": "thin-1in8", "keep_one_in": 8},
    {"name": "cut+thin", "snaplen": 64, "keep_one_in": 8},
]


def capture_path_point(
    *,
    load: float,
    variant: Optional[Dict[str, Any]] = None,
    frame_size: int = 512,
    duration: Duration = ms(2),
    dma_bandwidth_bps: Rate = 2e9,
    seed: int = 0,
) -> Tuple[CaptureRow, Extras]:
    """E6: capture completeness for one load and one reducer variant.

    ``variant`` is ``{"name": ..., "snaplen": ..., "keep_one_in": ...,
    "hash_packets": ...}`` (see :data:`CAPTURE_VARIANTS`)."""
    variant = dict(variant or {"name": "full"})
    variant_name = variant.pop("name", "custom")
    unknown = set(variant) - {"snaplen", "keep_one_in", "hash_packets"}
    if unknown:
        from ..errors import ConfigError

        keys = ", ".join(sorted(unknown))
        raise ConfigError(f"unknown capture variant key(s): {keys}")
    sim = Simulator()
    tester = OSNT(sim, root_seed=seed, dma_bandwidth_bps=dma_bandwidth_bps)
    connect(tester.port(0), tester.port(1))
    monitor = tester.monitor(1)
    monitor.start_capture(**variant)
    generator = tester.generator(0)
    generator.load_template(udp_template(frame_size))
    generator.set_load(load).for_duration(duration)
    generator.start()
    sim.run()
    pipeline = tester.device.monitor(1)
    row = CaptureRow(
        offered_load=load,
        variant=variant_name,
        offered_packets=generator.packets_sent,
        captured=pipeline.captured,
        dropped=pipeline.dma_drops_at_port,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E7 — timestamp placement: MAC-adjacent vs host-side
# ---------------------------------------------------------------------------


@dataclass
class PlacementRow:
    load: float
    hw_mean_us: float
    hw_std_us: float
    host_mean_us: float
    host_std_us: float

    @property
    def host_error_inflation(self) -> float:
        """How many times wider host-side measurement spread is."""
        return self.host_std_us / self.hw_std_us if self.hw_std_us else float("inf")


def timestamp_placement_point(
    *,
    load: float,
    frame_size: int = 512,
    duration: Duration = ms(2),
    dma_bandwidth_bps: Rate = 4e9,
    seed: int = 0,
    switch_seed: int = 1,
) -> Tuple[PlacementRow, Extras]:
    """E7: hardware vs host-side latency spread at one load.

    Quantifies the "queueing noise" the MAC-side stamp eliminates."""
    sim = Simulator()
    switch = LegacySwitch(sim, rng=RandomStreams(switch_seed).stream("sw"))
    bed = legacy_testbed(
        sim, switch=switch, dma_bandwidth_bps=dma_bandwidth_bps, root_seed=seed
    )
    bed.teach_mac_table("02:00:00:00:00:02")
    host_arrivals: Dict[int, int] = {}
    bed.monitor.start_capture()
    bed.monitor.on_packet(
        lambda packet: host_arrivals.__setitem__(packet.packet_id, sim.now)
    )
    bed.generator.load_template(udp_template(frame_size))
    bed.generator.set_load(load).embed_timestamps().for_duration(duration)
    bed.generator.start()
    sim.run()
    from ..osnt.generator.tx_timestamp import extract_ps

    hw_samples = []
    host_samples = []
    for packet in bed.monitor.packets:
        tx = extract_ps(packet.data)
        if tx == 0:
            continue
        hw_samples.append(packet.rx_timestamp - tx)
        host_samples.append(host_arrivals[packet.packet_id] - tx)
    hw = SummaryStats.of(hw_samples)
    host = SummaryStats.of(host_samples)
    row = PlacementRow(
        load=load,
        hw_mean_us=hw.mean / 1e6,
        hw_std_us=hw.std / 1e6,
        host_mean_us=host.mean / 1e6,
        host_std_us=host.std / 1e6,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E9 — router forwarding latency vs FIB shape
# ---------------------------------------------------------------------------


@dataclass
class RouterLatencyRow:
    fib_routes: int
    prefix_len: int
    packets: int
    mean_us: float
    p99_us: float
    forwarded: int
    no_route: int


def router_latency_point(
    *,
    prefix_len: int,
    fib_fill: int = 1000,
    frame_size: int = 256,
    duration: Duration = ms(1),
    seed: int = 0,
) -> Tuple[RouterLatencyRow, Extras]:
    """One E9 point: forwarding latency at one matched-prefix depth.

    The FIB is filled with ``fib_fill`` filler routes plus one route of
    the probed prefix length; probes hit that route, so the latency
    reflects the LPM walk depth — the router-specific effect a tester
    can resolve thanks to sub-µs timestamping.
    """
    from ..devices.router import Router

    sim = Simulator()
    router = Router(sim)
    tester = OSNT(sim, root_seed=seed)
    connect(tester.port(0), router.port(0))
    connect(tester.port(1), router.port(1))
    # Filler routes across a disjoint space (192.0.0.0/10 region).
    for index in range(fib_fill):
        router.add_route(
            f"192.{(index >> 8) & 0x3F}.{index & 0xFF}.0/24",
            out_port=2,
            next_hop_mac="02:aa:00:00:00:ff",
        )
    # The measured route: covers the probe address at the probed
    # length (the trie consumes only the first prefix_len bits).
    router.add_route(
        f"10.0.0.1/{prefix_len}", out_port=1, next_hop_mac="02:aa:00:00:00:01"
    )
    monitor = tester.monitor(1)
    monitor.start_capture()
    generator = tester.generator(0)
    generator.load_template(udp_template(frame_size, dst_ip="10.0.0.1"))
    generator.set_load(0.2).embed_timestamps().for_duration(duration)
    generator.start()
    sim.run()
    result = latency_from_capture(monitor.packets)
    summary = result.summary
    row = RouterLatencyRow(
        fib_routes=router.fib.size,
        prefix_len=prefix_len,
        packets=summary.count,
        mean_us=summary.mean / 1e6,
        p99_us=summary.p99 / 1e6,
        forwarded=router.forwarded,
        no_route=router.no_route,
    )
    return row, {}


# ---------------------------------------------------------------------------
# E3b — per-size latency from one mixed (IMIX) stream
# ---------------------------------------------------------------------------


@dataclass
class ImixLatencyRow:
    frame_size: int
    packets: int
    mean_us: float
    p99_us: float


def imix_latency_point(
    *,
    load: float = 0.5,
    duration: Duration = ms(2),
    switch_kwargs: Optional[dict] = None,
    seed: int = 0,
    switch_seed: int = 1,
) -> Tuple[List[ImixLatencyRow], Extras]:
    """E3b: per-size latency classified from one IMIX stream's capture.

    This is the measurement style hardware testers enable: because every
    captured packet carries its own embedded TX stamp, one mixed-traffic
    run yields the full per-size latency breakdown — no need for one
    run per size.
    """
    from ..osnt.generator.source import PacketListSource
    from .workloads import IMIX_PATTERN

    sim = Simulator()
    switch = LegacySwitch(
        sim, rng=RandomStreams(switch_seed).stream("sw"), **(switch_kwargs or {})
    )
    bed = legacy_testbed(sim, switch=switch, root_seed=seed)
    bed.teach_mac_table("02:00:00:00:00:02")
    bed.monitor.start_capture()
    packets = [udp_template(size) for size in IMIX_PATTERN]
    bed.generator._engine.configure(
        PacketListSource(packets, loop=10**6),
        schedule=ConstantBitRate(load * TEN_GBPS),
        duration_ps=duration,
        embed_timestamps=True,
    )
    bed.generator._engine.start()
    sim.run()

    from ..osnt.generator.tx_timestamp import extract_ps

    by_size: Dict[int, List[int]] = {}
    for packet in bed.monitor.packets:
        tx = extract_ps(packet.data)
        if tx == 0 or packet.rx_timestamp is None:
            continue
        by_size.setdefault(packet.frame_length, []).append(packet.rx_timestamp - tx)
    rows = []
    for size in sorted(by_size):
        summary = SummaryStats.of(by_size[size])
        rows.append(
            ImixLatencyRow(
                frame_size=size,
                packets=summary.count,
                mean_us=summary.mean / 1e6,
                p99_us=summary.p99 / 1e6,
            )
        )
    return rows, {}
