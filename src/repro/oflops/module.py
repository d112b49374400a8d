"""The OFLOPS measurement-module framework.

Like the original OFLOPS, a measurement is a *module*: a class with a
lifecycle the runner drives. Modules receive the context (all three
channels), arm whatever callbacks they need, let the simulation advance,
and produce a result dictionary.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..devices.openflow_switch import BarrierMode
from ..errors import ConfigError, OflopsError
from ..units import Duration, seconds, us
from .context import OflopsContext


class MeasurementModule:
    """Base class for OFLOPS-turbo measurement modules."""

    #: Short identifier used by the runner/CLI.
    name = "base"
    description = ""
    #: Hard cap on simulated time for one run.
    max_duration_ps = seconds(10)
    #: Degradable modules survive the deadline: instead of raising,
    #: the runner collects whatever partial results exist and marks
    #: them ``degraded=True`` — the behaviour fault-injection runs
    #: (flapped control channels, lossy links) need. A module opting
    #: in must make its :meth:`collect` tolerate missing replies.
    degradable = False

    def setup(self, ctx: OflopsContext) -> None:
        """Prepare DUT state (install baseline rules, start captures)."""

    def start(self, ctx: OflopsContext) -> None:
        """Kick off the measured activity (traffic, message bursts)."""
        raise NotImplementedError

    def is_finished(self, ctx: OflopsContext) -> bool:
        """Polled by the runner between simulation slices."""
        raise NotImplementedError

    def collect(self, ctx: OflopsContext) -> Dict[str, Any]:
        """Extract the results after the run completes."""
        raise NotImplementedError


class ModuleRunner:
    """Drives one module through its lifecycle on a fresh context."""

    def __init__(self, ctx: Optional[OflopsContext] = None, slice_ps: int = None) -> None:
        from ..units import ms

        self.ctx = ctx or OflopsContext()
        self.slice_ps = slice_ps or ms(1)

    def run(self, module: MeasurementModule) -> Dict[str, Any]:
        ctx = self.ctx
        tracer = ctx.sim.tracer
        if tracer is not None:
            tracer.instant(ctx.sim.now, "oflops", "setup", {"module": module.name})
        module.setup(ctx)
        started_at = ctx.sim.now
        if tracer is not None:
            tracer.instant(started_at, "oflops", "start", {"module": module.name})
        module.start(ctx)
        deadline = started_at + module.max_duration_ps
        degraded = False
        while not module.is_finished(ctx):
            if ctx.sim.now >= deadline:
                if not module.degradable:
                    raise OflopsError(
                        f"module {module.name!r} did not finish within "
                        f"{module.max_duration_ps} ps of simulated time"
                    )
                degraded = True
                if tracer is not None:
                    tracer.instant(
                        ctx.sim.now, "oflops", "degraded", {"module": module.name}
                    )
                break
            ctx.run_until(min(ctx.sim.now + self.slice_ps, deadline))
        results = module.collect(ctx)
        if degraded:
            results["degraded"] = True
        results.setdefault("module", module.name)
        results.setdefault("simulated_ps", ctx.sim.now - started_at)
        if tracer is not None:
            tracer.instant(
                ctx.sim.now, "oflops", "finish",
                {"module": module.name, "simulated_ps": results["simulated_ps"]},
            )
        metrics = getattr(ctx, "metrics", None)
        if metrics is not None:
            metrics.counter("module.runs").inc()
            if degraded:
                metrics.counter("module.degraded").inc()
            metrics.histogram("module.duration_ps", unit="ps").record(
                results["simulated_ps"]
            )
        return results


def oflops_point(
    *,
    module: str,
    dut: Optional[str] = None,
    barrier_mode: BarrierMode = "spec",
    firmware_delay: Duration = us(10),
    table_write: Duration = us(100),
    control_latency: Duration = us(50),
    n_rules: int = 32,
    max_duration: Optional[Duration] = None,
    impairments: Any = None,
    seed: int = 0,
    telemetry: bool = False,
) -> Dict[str, Any]:
    """One OFLOPS-turbo module run against a configured DUT profile.

    ``dut`` names a profile from
    :data:`repro.devices.openflow_switch.PROFILES`; without it the
    switch is built from ``barrier_mode``/``firmware_delay``/
    ``table_write``. ``n_rules`` sizes the ``flow_mod_latency`` and
    ``forwarding_consistency`` modules; ``max_duration`` caps a
    degradable module's deadline, which keeps impaired sweeps fast.
    """
    from ..devices.openflow_switch import PROFILES, SwitchProfile
    from .modules import ALL_MODULES

    if module not in ALL_MODULES:
        known = ", ".join(sorted(ALL_MODULES))
        raise ConfigError(f"unknown oflops module {module!r}; known: {known}")
    if dut is None:
        profile = SwitchProfile(
            barrier_mode=barrier_mode,
            firmware_delay_ps=firmware_delay,
            table_write_ps=table_write,
        )
    elif dut in PROFILES:
        profile = PROFILES[dut]
    else:
        raise ConfigError(f"unknown dut {dut!r}; known: {', '.join(sorted(PROFILES))}")
    ctx = OflopsContext(
        profile=profile,
        control_latency_ps=control_latency,
        impairments=impairments,
        seed=seed,
        root_seed=seed,
    )
    module_cls = ALL_MODULES[module]
    if module in ("flow_mod_latency", "forwarding_consistency"):
        measurement = module_cls(n_rules=n_rules)
    else:
        measurement = module_cls()
    if max_duration is not None:
        measurement.max_duration_ps = max_duration
    result = dict(ModuleRunner(ctx).run(measurement))
    if telemetry:
        result["telemetry"] = ctx.snapshot()
    return result
