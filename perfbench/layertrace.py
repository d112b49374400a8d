"""Per-layer tracing from outside the program.

A traced pass runs every shard through a wrapper scenario registered
here as ``perfbench.<scenario>``. The wrapper calls the real scenario
unchanged, so results (and shard seeds, which do not depend on the
scenario name) are identical to an untraced pass. Around the call it
records:

* the wall time from shard start to the first ``Simulator.run``
  (``testbed.build_s``; includes the lazy imports a forked worker pays),
* the scenario's own wall time (so runner overhead is the runner's
  elapsed time minus it),
* events fired and simulated picoseconds, read from every ``Simulator``
  the shard creates through ``repro.sim.add_creation_hook``,
* with profiling on, and only in a forked worker, a ``cProfile`` of the
  shard, dumped next to its record. In-process shards are covered by
  the profiler the measured process runs around the runner.

Profiles use CPU time, so a parent that sleeps while it polls its
workers is not charged for the wait. Layers are the package names
under ``src/repro``; everything outside the repository is ``py``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro
from repro.runner import get_scenario, register_scenario
from repro.sim import add_creation_hook, remove_creation_hook

PREFIX = "perfbench."

#: Layers whose CPU self time is reported as ``<layer>.self_s``.
LAYERS = (
    "analysis",
    "cluster",
    "devices",
    "faults",
    "flows",
    "hw",
    "net",
    "obs",
    "oflops",
    "openflow",
    "osnt",
    "runner",
    "sim",
    "telemetry",
    "testbed",
    "topology",
    "units",
    "py",
)

#: Public functions whose calls are counted: metric stem ->
#: (file under src/repro, predicate on the function name).
FUNCTIONS = {
    "net.decode": ("net/parser.py", lambda fn: fn == "decode"),
    "net.fields.to_str": ("net/fields.py", lambda fn: fn.endswith("_to_str")),
    "osnt.filter.decide": ("osnt/monitor/filters.py", lambda fn: fn == "decide"),
    "hw.mac.enqueue": ("hw/mac.py", lambda fn: fn == "enqueue"),
    "hw.dma.enqueue": ("hw/dma.py", lambda fn: fn == "enqueue"),
    "hw.burst.advance": ("hw/burst.py", lambda fn: fn == "advance"),
    "devices.lookup": ("devices/", lambda fn: fn == "lookup"),
    "openflow.messages": (
        "openflow/messages.py",
        lambda fn: fn in ("pack_header", "parse_message"),
    ),
    "cluster.store.put": ("cluster/store.py", lambda fn: fn == "put"),
    "cluster.store.get": ("cluster/store.py", lambda fn: fn == "get"),
}

_SRC = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH = os.path.dirname(os.path.abspath(__file__)) + os.sep


def new_profile() -> cProfile.Profile:
    return cProfile.Profile(time.process_time)


class ShardTracer:
    """Collects per-shard records from this process and its workers."""

    def __init__(self, directory: Path, profile: bool) -> None:
        self.directory = directory
        self.profile = profile
        self.parent_pid = os.getpid()
        self.records: List[Dict[str, Any]] = []
        directory.mkdir(parents=True, exist_ok=True)

    def run(self, name: str, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        """Run scenario ``name`` on ``(params, seed)`` and record it."""
        in_worker = os.getpid() != self.parent_pid
        sims: List[Any] = []
        first_run: List[float] = []

        def on_sim(sim) -> None:
            sims.append(sim)
            real_run = sim.run

            def run(*args, **kwargs):
                if not first_run:
                    first_run.append(time.perf_counter())
                return real_run(*args, **kwargs)

            sim.run = run

        profile = new_profile() if self.profile and in_worker else None
        add_creation_hook(on_sim)
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = get_scenario(name)(params, seed)
        finally:
            if profile is not None:
                profile.disable()
            remove_creation_hook(on_sim)
        end = time.perf_counter()
        record = {
            "scenario_s": end - start,
            "build_s": (first_run[0] if first_run else end) - start,
            "events": sum(sim.events_processed for sim in sims),
            "sim_ps": sum(sim.now for sim in sims),
        }
        if in_worker:
            stem = self.directory / f"shard-{os.getpid()}-{time.monotonic_ns()}"
            if profile is not None:
                profile.dump_stats(f"{stem}.prof")
            stem.with_suffix(".json").write_text(json.dumps(record))
        else:
            self.records.append(record)
        return result

    def collect(self) -> List[Dict[str, Any]]:
        """Every record so far, worker records included; then reset."""
        records, self.records = self.records, []
        for path in sorted(self.directory.glob("shard-*.json")):
            records.append(json.loads(path.read_text()))
            path.unlink()
        return records

    def worker_profiles(self) -> List[str]:
        return [str(path) for path in sorted(self.directory.glob("shard-*.prof"))]


_ACTIVE: Optional[ShardTracer] = None


def install(tracer: ShardTracer, scenarios) -> None:
    """Route ``perfbench.<name>`` for each of ``scenarios`` via ``tracer``."""
    global _ACTIVE
    _ACTIVE = tracer
    for name in scenarios:
        register_scenario(
            PREFIX + name,
            lambda params, seed, name=name: _ACTIVE.run(name, params, seed),
        )


def layer_of(filename: str) -> Optional[str]:
    """The layer a profiled function's file belongs to (None: benchmark)."""
    if filename.startswith(_BENCH):
        return None
    if not filename.startswith(_SRC):
        return "py"
    rest = filename[len(_SRC):]
    head, sep, _ = rest.partition(os.sep)
    return head if sep else head[: -len(".py")]


def layer_metrics(stats: pstats.Stats) -> Dict[str, float]:
    """Self time per layer and the counted functions' calls/cum time."""
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for stem in FUNCTIONS:
        out[f"{stem}.calls"] = 0
        out[f"{stem}.cum_s"] = 0.0
    for (filename, _line, function), entry in stats.stats.items():
        _cc, calls, self_s, cum_s, _callers = entry
        layer = layer_of(filename)
        key = f"{layer}.self_s"
        if key in out:
            out[key] += self_s
        if not filename.startswith(_SRC):
            continue
        rest = filename[len(_SRC):].replace(os.sep, "/")
        for stem, (where, match) in FUNCTIONS.items():
            if rest.startswith(where) and match(function):
                out[f"{stem}.calls"] += calls
                out[f"{stem}.cum_s"] += cum_s
    return out
