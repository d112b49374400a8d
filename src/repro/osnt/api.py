"""The programmer-friendly OSNT software API.

The paper: "The OSNT platform provides a simple and programmer-friendly
API to control the traffic generation and monitoring functionality of
the OSNT design, enabling the realisation of high precision and
throughput measurement tests in software."

:class:`TrafficGenerator` and :class:`TrafficMonitor` are that API. All
*control* (start/stop, timestamping, snap length, thinning, filters,
counters) flows through the device's AXI-Lite register map — the same
path the real driver uses — while bulk data (templates, PCAP contents,
schedules) is attached as Python objects, standing in for the real
tools' DMA loads.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from contextlib import contextmanager

from ..errors import CaptureError, GeneratorError
from ..net.packet import Packet
from ..net.pcap import PcapRecord, PcapWriter
from ..net.pcapng import read_capture
from ..units import duration_ps, rate_bps
from .device import OSNTDevice
from .generator.field_modifiers import FieldModifier
from .generator.schedule import (
    Bursts,
    ConstantBitRate,
    ConstantGap,
    LineRate,
    PoissonGaps,
    Schedule,
    rate_for_load,
)
from .generator.source import PacketSource, PcapReplaySource, TemplateSource
from .generator.tx_timestamp import DEFAULT_OFFSET
from .monitor.reducers import HashUnit


class TrafficGenerator:
    """Software handle onto one port's generation engine."""

    def __init__(self, device: OSNTDevice, port_index: int) -> None:
        self.device = device
        self.port_index = port_index
        self._engine = device.generator(port_index)
        self._bus = device.bus
        self._base = device.generator_base(port_index)
        self._source: Optional[PacketSource] = None
        self._schedule: Optional[Schedule] = None
        self._count: Optional[int] = None
        self._duration_ps: Optional[int] = None
        self._embed = False
        self._ts_offset = DEFAULT_OFFSET

    # -- what to send ------------------------------------------------------

    def load_template(
        self,
        packet: Packet,
        count: Optional[int] = None,
        modifiers: Sequence[FieldModifier] = (),
    ) -> "TrafficGenerator":
        """Replay one frame ``count`` times (None = until stopped)."""
        self._source = TemplateSource(packet, count=count, modifiers=modifiers)
        self._count = count
        return self

    def load_pcap(
        self,
        source: Union[str, Path, Sequence[PcapRecord]],
        loop: int = 1,
        preserve_timing: bool = True,
        speed: float = 1.0,
    ) -> "TrafficGenerator":
        """Replay a capture (pcap or pcapng), with its recorded gaps."""
        records = (
            read_capture(source) if isinstance(source, (str, Path)) else list(source)
        )
        replay = PcapReplaySource(records, loop=loop, speed=speed)
        self._source = replay
        self._count = None
        if preserve_timing:
            self._schedule = replay.timing_schedule()
        return self

    # -- how fast ----------------------------------------------------------

    def at_line_rate(self) -> "TrafficGenerator":
        self._schedule = LineRate(self._engine.port.rate_bps)
        return self

    def set_rate(self, rate: Union[str, float]) -> "TrafficGenerator":
        """Target wire rate, e.g. ``"9.5Gbps"`` or bits/second."""
        self._schedule = ConstantBitRate(rate_bps(rate), self._engine.port.rate_bps)
        return self

    def set_load(self, fraction: float) -> "TrafficGenerator":
        """Target offered load as a fraction of line rate (0, 1]."""
        return self.set_rate(rate_for_load(fraction, self._engine.port.rate_bps))

    def set_gap(self, gap: Union[str, int]) -> "TrafficGenerator":
        """Fixed start-to-start inter-departure time (ps or ``"2us"``)."""
        self._schedule = ConstantGap(duration_ps(gap), self._engine.port.rate_bps)
        return self

    def poisson(self, mean_gap: Union[str, float]) -> "TrafficGenerator":
        """Poisson arrivals with the given mean gap (ps or ``"2us"``)."""
        stream = self.device.streams.stream(f"gen{self.port_index}.poisson")
        mean_gap_ps = (
            duration_ps(mean_gap) if isinstance(mean_gap, str) else float(mean_gap)
        )
        self._schedule = PoissonGaps(
            mean_gap_ps, line_rate_bps=self._engine.port.rate_bps, stream=stream
        )
        return self

    def bursts(self, burst_len: int, idle_gap_ps: int) -> "TrafficGenerator":
        self._schedule = Bursts(burst_len, idle_gap_ps, self._engine.port.rate_bps)
        return self

    def burst_train(
        self,
        frames_per_burst: int,
        inter_burst_gap: Union[str, int],
        peak: Union[str, float, None] = None,
        ramp_bursts: int = 0,
    ) -> "TrafficGenerator":
        """P4TG-style burst trains: N frames at peak rate, exact gaps."""
        from .generator.trafficmodels import BurstTrain

        line = self._engine.port.rate_bps
        self._schedule = BurstTrain(
            frames_per_burst,
            duration_ps(inter_burst_gap),
            peak_bps=line if peak is None else rate_bps(peak),
            line_rate_bps=line,
            ramp_bursts=ramp_bursts,
        )
        return self

    def periodic(
        self,
        on: Union[str, int],
        off: Union[str, int],
        peak: Union[str, float, None] = None,
        phase: Union[str, int] = 0,
    ) -> "TrafficGenerator":
        """Deterministic on/off square wave with a phase offset."""
        from .generator.trafficmodels import Periodic

        line = self._engine.port.rate_bps
        self._schedule = Periodic(
            duration_ps(on),
            duration_ps(off),
            peak_bps=line if peak is None else rate_bps(peak),
            line_rate_bps=line,
            phase_ps=duration_ps(phase),
        )
        return self

    def use_model(self, traffic) -> "TrafficGenerator":
        """Pace with a declarative traffic model.

        ``traffic`` is anything :func:`~repro.osnt.generator.trafficspec
        .build_traffic` accepts: a :class:`TrafficModelSpec`, a spec
        dict/JSON string, a bare model kind name, or an already-built
        :class:`Schedule`.  Stochastic models draw from this port's
        device-derived stream, so timelines are pinned by the device
        seed.
        """
        from .generator.trafficspec import build_traffic

        self._schedule = build_traffic(
            traffic,
            line_rate_bps=self._engine.port.rate_bps,
            streams=self.device.streams,
            name=f"gen{self.port_index}",
        )
        return self

    def for_duration(self, duration: Union[str, int]) -> "TrafficGenerator":
        """Run length as integer picoseconds or a string like ``"10ms"``."""
        self._duration_ps = duration_ps(duration)
        return self

    # -- timestamping --------------------------------------------------------

    def embed_timestamps(self, offset: int = DEFAULT_OFFSET) -> "TrafficGenerator":
        """Embed the 64-bit TX stamp at ``offset`` in every frame."""
        self._embed = True
        self._ts_offset = offset
        return self

    # -- control -----------------------------------------------------------

    def start(self) -> "TrafficGenerator":
        """Arm the engine and start transmitting; returns ``self``.

        Prefer the context-manager idiom for new code — it guarantees
        the matching :meth:`stop`::

            with generator.load_template(pkt).set_rate("5Gbps"):
                sim.run(until=...)

        (Bare ``start()``/``stop()`` pairs remain supported but are
        deprecated in the docs.)
        """
        if self._source is None:
            raise GeneratorError("nothing loaded: call load_template()/load_pcap()")
        self._engine.configure(
            self._source,
            schedule=self._schedule,
            count=self._count,
            duration_ps=self._duration_ps,
            embed_timestamps=self._embed,
            timestamp_offset=self._ts_offset,
        )
        self._bus.write32(self._base + 0x4, 1 if self._embed else 0)  # ts_enable
        self._bus.write32(self._base + 0x8, self._ts_offset)  # ts_offset
        self._bus.write32(self._base + 0x0, 0x1)  # ctrl.start
        return self

    def stop(self) -> None:
        self._bus.write32(self._base + 0x0, 0x2)  # ctrl.stop

    def __enter__(self) -> "TrafficGenerator":
        """Start on entry (if not already running); stop on exit."""
        if not self.running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    @property
    def running(self) -> bool:
        return bool(self._bus.read32(self._base + 0x20))

    @property
    def packets_sent(self) -> int:
        low = self._bus.read32(self._base + 0x10)
        high = self._bus.read32(self._base + 0x14)
        return (high << 32) | low

    @property
    def bytes_sent(self) -> int:
        low = self._bus.read32(self._base + 0x18)
        high = self._bus.read32(self._base + 0x1C)
        return (high << 32) | low

    @property
    def stats(self):
        return self._engine.stats

    @property
    def done(self):
        """Signal fired (with the stats) when the run finishes."""
        return self._engine.done


class TrafficMonitor:
    """Software handle onto one port's capture pipeline."""

    def __init__(self, device: OSNTDevice, port_index: int) -> None:
        self.device = device
        self.port_index = port_index
        self._pipeline = device.monitor(port_index)
        self._bus = device.bus
        self._base = device.monitor_base(port_index)

    # -- capture control ------------------------------------------------------

    def start_capture(
        self,
        snaplen: Optional[int] = None,
        keep_one_in: int = 1,
        hash_packets: bool = False,
    ) -> "TrafficMonitor":
        if snaplen is not None and snaplen < 14:
            raise CaptureError("snap length must keep at least the Ethernet header")
        self._bus.write32(self._base + 0x4, snaplen or 0)  # snap_len
        self._bus.write32(self._base + 0x8, keep_one_in)  # thin_one_in
        self._pipeline.hash_unit = HashUnit() if hash_packets else None
        self._bus.write32(self._base + 0x0, 1)  # ctrl.enable
        return self

    def stop_capture(self) -> None:
        self._bus.write32(self._base + 0x0, 0)

    @property
    def capturing(self) -> bool:
        return bool(self._bus.read32(self._base + 0x0))

    def __enter__(self) -> "TrafficMonitor":
        """Start capturing on entry (if not already); stop on exit.

        ``start_capture(...)`` returns the monitor, so capture options
        compose with the ``with`` statement::

            with monitor.start_capture(snaplen=64):
                sim.run(until=...)
        """
        if not self.capturing:
            self.start_capture()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop_capture()
        return False

    def clear(self) -> None:
        self._pipeline.host.clear()

    # -- filters -------------------------------------------------------------

    def add_filter(self, rule=None, **fields) -> "TrafficMonitor":
        """Install a wildcard filter row (and default-drop the rest).

        ``rule`` may be a :class:`~repro.osnt.monitor.filters.FilterRule`,
        a declarative spec dict (anything ``FilterRule.from_spec``
        accepts, including the CLI's ``"src": "10.0.0.0/8"`` prefix
        shorthand) or a JSON object string; alternatively pass the rule
        fields (``dst_port=53, protocol=17, ...``) as keywords.
        """
        from ..net.fields import ipv4_to_int
        from .device import FILTER_WILDCARD
        from .monitor.filters import FilterRule

        if rule is not None:
            if fields:
                raise CaptureError("pass either a rule spec or field keywords, not both")
            rule = FilterRule.from_spec(rule)
        else:
            rule = FilterRule(**fields)
        rule.compile()  # a bad address fails here, before any register write
        base = self._base
        write = self._bus.write32
        write(base + 0x40, FILTER_WILDCARD if rule.src_ip is None else ipv4_to_int(rule.src_ip))
        write(base + 0x44, rule.src_prefix_len)
        write(base + 0x48, FILTER_WILDCARD if rule.dst_ip is None else ipv4_to_int(rule.dst_ip))
        write(base + 0x4C, rule.dst_prefix_len)
        write(base + 0x50, FILTER_WILDCARD if rule.protocol is None else rule.protocol)
        write(base + 0x54, FILTER_WILDCARD if rule.src_port is None else rule.src_port)
        write(base + 0x58, FILTER_WILDCARD if rule.dst_port is None else rule.dst_port)
        write(base + 0x5C, 1 if rule.action_pass else 0)
        write(base + 0x60, 1)  # commit strobe
        # Installing an explicit pass rule flips the default to drop —
        # "capture only what matches", like the OSNT cut/filter tools.
        if rule.action_pass:
            self._pipeline.filter_bank.default_pass = False
        return self

    def set_filters(self, rules) -> "TrafficMonitor":
        """Replace the whole bank declaratively.

        ``rules`` is a list of rule specs or a JSON array — the same
        inputs as :meth:`FilterBank.from_rules
        <repro.osnt.monitor.filters.FilterBank.from_rules>`. The staged
        bank is validated in software first, then each row is committed
        through the register interface, so the hardware and software
        views stay in lockstep.
        """
        from .monitor.filters import FilterBank

        bank = FilterBank.from_rules(rules)
        self.clear_filters()
        for rule in bank.rules:
            self.add_filter(rule)
        self._pipeline.filter_bank.default_pass = bank.default_pass
        return self

    def clear_filters(self) -> None:
        self._bus.write32(self._base + 0x64, 1)
        self._pipeline.filter_bank.default_pass = True

    # -- results -------------------------------------------------------------

    @property
    def rx_packets(self) -> int:
        low = self._bus.read32(self._base + 0x10)
        high = self._bus.read32(self._base + 0x14)
        return (high << 32) | low

    @property
    def rx_bytes(self) -> int:
        low = self._bus.read32(self._base + 0x18)
        high = self._bus.read32(self._base + 0x1C)
        return (high << 32) | low

    @property
    def capture_drops(self) -> int:
        return self._bus.read32(self._base + 0x20)

    @property
    def captured_count(self) -> int:
        return self._bus.read32(self._base + 0x24)

    @property
    def packets(self):
        """Packets delivered to the host buffer (with RX timestamps)."""
        return self._pipeline.host.packets

    def on_packet(self, listener) -> None:
        """Register a callback for each packet reaching the host."""
        self._pipeline.host.add_listener(listener)

    def save_pcap(self, path: Union[str, Path]) -> int:
        """Write the host buffer to a nanosecond pcap; returns count."""
        with PcapWriter(path) as writer:
            return self._pipeline.host.write_pcap(writer)

    def save_pcapng(self, path: Union[str, Path]) -> int:
        """Write the host buffer as a nanosecond pcapng; returns count."""
        from ..net.pcapng import write_pcapng

        return write_pcapng(path, self._pipeline.host.records())

    def rate_monitor(self, interval_ps: Optional[int] = None) -> "RateMonitor":
        """Start periodic RX rate sampling (the hardware stats engine)."""
        from ..units import ms
        from .monitor.rates import RateMonitor

        stats = self._pipeline.port.rx.stats
        monitor = RateMonitor(
            self.device.sim,
            read_counters=lambda: (stats.packets, stats.bytes),
            interval_ps=interval_ps or ms(1),
        )
        monitor.start()
        return monitor

    @property
    def observed_bps(self) -> float:
        return self._pipeline.stats.observed_bps()

    # -- telemetry ------------------------------------------------------------

    def enable_latency(
        self,
        offset: Optional[int] = None,
        per_flow: bool = False,
        flow_key: str = "dst_port",
        max_flows: int = 4096,
    ) -> "TrafficMonitor":
        """Arm the in-band latency histogram (TX stamp at ``offset``).

        With ``per_flow=True`` the pipeline additionally banks every
        sample per flow (keyed by ``flow_key``), P4TG-style — read the
        result from :attr:`flow_latency` or :meth:`flow_latency_rows`.
        """
        from .generator.tx_timestamp import DEFAULT_OFFSET

        self._pipeline.enable_latency(
            DEFAULT_OFFSET if offset is None else offset,
            per_flow=per_flow,
            flow_key=flow_key,
            max_flows=max_flows,
        )
        return self

    @property
    def latency_histogram(self):
        """The pipeline's in-band latency histogram (ps samples)."""
        return self._pipeline.latency

    def latency_summary(self):
        """Percentile summary of the in-band latency histogram."""
        return self._pipeline.latency.summary()

    @property
    def flow_latency(self):
        """The per-flow latency bank (None unless armed ``per_flow``)."""
        return self._pipeline.flow_latency

    def flow_latency_rows(self):
        """Deterministic per-flow percentile rows (incl. ``p999``)."""
        bank = self._pipeline.flow_latency
        return [] if bank is None else bank.summary_rows()


class OSNT:
    """Top-level facade: one tester card plus its software handles.

    >>> sim = Simulator()
    >>> tester = OSNT(sim)
    >>> gen, mon = tester.generator(0), tester.monitor(1)
    """

    def __init__(self, sim, **device_kwargs) -> None:
        self.device = OSNTDevice(sim, **device_kwargs)
        self.sim = sim
        self._generators = {}
        self._monitors = {}

    def generator(self, port_index: int) -> TrafficGenerator:
        if port_index not in self._generators:
            self._generators[port_index] = TrafficGenerator(self.device, port_index)
        return self._generators[port_index]

    def monitor(self, port_index: int) -> TrafficMonitor:
        if port_index not in self._monitors:
            self._monitors[port_index] = TrafficMonitor(self.device, port_index)
        return self._monitors[port_index]

    def port(self, port_index: int):
        return self.device.port(port_index)

    # -- lifecycle ------------------------------------------------------------

    @contextmanager
    def capture(self, port_index: int, **capture_kwargs):
        """Capture on one port for the duration of a ``with`` block.

        Arms the monitor with ``start_capture(**capture_kwargs)``,
        yields it, and always stops the capture on exit::

            with tester.capture(1, snaplen=64) as mon:
                sim.run(until=ms(2))
            rows = mon.packets
        """
        monitor = self.monitor(port_index)
        monitor.start_capture(**capture_kwargs)
        try:
            yield monitor
        finally:
            monitor.stop_capture()

    def shutdown(self) -> None:
        """Quiesce the card: stop every running generator and capture."""
        for generator in self._generators.values():
            if generator.running:
                generator.stop()
        for monitor in self._monitors.values():
            if monitor.capturing:
                monitor.stop_capture()

    def __enter__(self) -> "OSNT":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    # -- telemetry ------------------------------------------------------------

    @property
    def metrics(self):
        """The card-wide :class:`~repro.telemetry.MetricsRegistry`."""
        return self.device.metrics

    def start_telemetry(self, **kwargs) -> "OSNT":
        """Arm latency histograms and rate samplers (see device docs)."""
        self.device.start_telemetry(**kwargs)
        return self

    def snapshot(self) -> dict:
        """One coherent read of the whole card's telemetry."""
        return self.device.snapshot()

    @property
    def gps_locked(self) -> bool:
        """True once the disciplined clock error is under a microsecond."""
        error = self.device.gps.last_error_ps
        return error is not None and abs(error) < 1_000_000
