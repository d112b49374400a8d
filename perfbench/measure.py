"""The measured process: runs one workload and prints its metrics as JSON.

``run.py`` starts this with ``PYTHONHASHSEED`` pinned and ``TMPDIR``
inside the checkout. By hand it is needed only to rewrite
``golden.json`` from a run at the default seed, after a change that is
meant to alter results::

    PYTHONHASHSEED=0 python3 perfbench/measure.py --pin

A pass is one cold run of every spec of the workload through
``SweepRunner`` into a fresh result store, then warm runs of the same
specs served from that store. Only the ``SweepRunner.run`` calls are
timed; ``gc.collect()`` runs between them with GC left enabled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.abspath("src"))

from repro.cluster import ResultStore, result_digest  # noqa: E402
from repro.runner import ExperimentSpec, SweepRunner, get_scenario, run_shard  # noqa: E402
from repro.sim import add_creation_hook  # noqa: E402

import layertrace  # noqa: E402
from run import stolen_s  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
#: Warm passes after each cold pass.
WARM_PASSES = 10
MIN_PASSES = 3
#: Shard samples a reported p90 needs: ten beyond it.
P90_SAMPLES = 100


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Pass:
    """Times, shard timings and digests of one pass."""

    def __init__(self) -> None:
        #: Cold wall seconds, less stolen time (see ``Bench._timed_run``).
        self.cold_s = 0.0
        self.cold_cpu_s = 0.0
        #: Wall seconds of each warm pass, and stolen seconds over all of them.
        self.warm_s: List[float] = []
        self.warm_stolen_s = 0.0
        #: ``elapsed_s`` of every cold shard, from the SweepReport.
        self.shard_s: List[float] = []
        self.digests: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.hits = 0
        self.lookups = 0

    def fail(self, count: int, error: str) -> None:
        self.failed += count
        self.errors.append(error)


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.specs = workload.specs(seed)
        self.stores = 0
        # CPUs the cold pass keeps busy: stolen time is spread over them.
        self.busy_cpus = min(max(workload.workers, 1), os.cpu_count() or 1)
        for spec in self.specs:
            get_scenario(spec.scenario)  # resolved in the parent, as osnt-sweep does

    def _timed_run(self, spec, store, profile=None):
        """Run ``spec``; return its report, wall, CPU and stolen seconds."""
        runner = SweepRunner(spec, workers=self.workload.workers, cache_dir=store)
        wall0, cpu0, stolen0 = time.perf_counter(), _cpu_s(), stolen_s()
        if profile is not None:
            profile.enable()
        try:
            report = runner.run()
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - wall0
        return report, wall, _cpu_s() - cpu0, stolen_s() - stolen0

    def run_pass(self, specs=None, warm_passes=WARM_PASSES, profile=None) -> Pass:
        """One cold pass and ``warm_passes`` warm passes over ``specs``."""
        specs = specs or self.specs
        out = Pass()
        self.stores += 1
        path = self.work / f"store-{self.stores}"
        store = ResultStore(path)
        for spec in specs:
            gc.collect()
            out.attempted += spec.shard_count
            try:
                report, wall, cpu, stolen = self._timed_run(spec, store, profile)
            except Exception as exc:  # noqa: BLE001 — counted as failed shards
                out.fail(spec.shard_count, f"{spec.name}: {type(exc).__name__}: {exc}")
                continue
            # On a shared host the hypervisor's stolen time is most of the
            # run-to-run spread of wall time; it is not the program's cost.
            out.cold_s += wall - stolen / self.busy_cpus
            out.cold_cpu_s += cpu
            for record in report.shards:
                label = f"{spec.name}/{record.index}"
                out.shard_s.append(record.elapsed_s)
                if record.ok:
                    out.digests[label] = result_digest(record.result)
                else:
                    out.fail(1, f"{label}: {record.error}")
        for _ in range(warm_passes):
            gc.collect()
            hits, lookups = store.hits, store.hits + store.misses
            warm_s = 0.0
            for spec in specs:
                out.attempted += spec.shard_count
                try:
                    report, wall, _cpu, stolen = self._timed_run(spec, store, profile)
                except Exception as exc:  # noqa: BLE001 — counted as failed shards
                    error = f"warm {spec.name}: {type(exc).__name__}: {exc}"
                    out.fail(spec.shard_count, error)
                    continue
                warm_s += wall
                out.warm_stolen_s += stolen / self.busy_cpus
                for record in report.shards:
                    label = f"{spec.name}/{record.index}"
                    if not (record.ok and record.cached) or (
                        result_digest(record.result) != out.digests.get(label)
                    ):
                        out.fail(1, f"warm {label}: not served from the store")
            out.warm_s.append(warm_s)
            out.hits += store.hits - hits
            out.lookups += store.hits + store.misses - lookups
        shutil.rmtree(path, ignore_errors=True)
        return out


def _mismatches(digests, expected: Optional[Dict[str, str]], what: str) -> List[str]:
    """Labels whose digest differs from ``expected`` (None: nothing to check)."""
    if expected is None:
        return []
    labels = sorted(set(digests) | set(expected))
    return [f"{what} {k}" for k in labels if digests.get(k) != expected.get(k)]


def _golden(workload: Workload, seed: int) -> Optional[Dict[str, str]]:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())[workload.name]


def _outcome(passes: List[Pass], mismatches: List[str], metrics) -> Dict[str, Any]:
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + len(mismatches),
        "errors": [e for p in passes for e in p.errors] + mismatches,
        "passes": len(passes),
        "digest": result_digest(passes[0].digests),
        "metrics": metrics,
    }


def _rerun_s(passes: List[Pass]) -> float:
    """Mean warm-pass wall seconds, less stolen time.

    A warm pass takes milliseconds and steal is counted in 10 ms ticks,
    so stolen time is only subtracted from the total over all of them.
    """
    warm = [w for p in passes for w in p.warm_s]
    return (sum(warm) - sum(p.warm_stolen_s for p in passes)) / len(warm)


def timed(bench: Bench, seconds: float) -> Dict[str, Any]:
    """The end-to-end metrics: medians over passes filling ``seconds``."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds
    ):
        passes.append(bench.run_pass())
    first = passes[0].digests
    mismatches = _mismatches(first, _golden(bench.workload, bench.seed), "golden")
    for later in passes[1:]:
        mismatches += _mismatches(later.digests, first, "rerun")
    return _outcome(
        passes,
        mismatches,
        {
            "run_s": (statistics.median(p.cold_s for p in passes), "s"),
            "cpu_s": (statistics.median(p.cold_cpu_s for p in passes), "s"),
            "rerun_s": (_rerun_s(passes), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        },
    )


def _traced_spec(spec: ExperimentSpec) -> ExperimentSpec:
    data = spec.to_dict()
    data["scenario"] = layertrace.PREFIX + spec.scenario
    data["imports"] = ["layertrace"]
    return ExperimentSpec.from_dict(data)


def _traced_passes(bench: Bench, count: int, profile: bool):
    """``count`` passes with every shard routed through the layer tracer."""
    tracer = layertrace.ShardTracer(bench.work / f"trace-{int(profile)}", profile)
    layertrace.install(tracer, {spec.scenario for spec in bench.specs})
    specs = [_traced_spec(spec) for spec in bench.specs]
    parent = layertrace.new_profile() if profile else None
    passes = [bench.run_pass(specs, warm_passes=1, profile=parent) for _ in range(count)]
    stats = None
    if profile:
        stats = pstats.Stats(parent)
        for path in tracer.worker_profiles():
            stats.add(path)
    return passes, tracer.collect(), stats


def _unit(name: str) -> str:
    if name.endswith((".calls", ".n")) or name == "sim.events":
        return "count"
    if name in ("cluster.cache_hit_frac", "testbed.build_frac", "trace.overhead"):
        return "ratio"
    if name == "sim.ps_per_s":
        return "ps/s"
    return "s"


def traced(bench: Bench) -> Dict[str, Any]:
    """The per-layer metrics: an untraced cold pass, instrumented passes,
    then one profiled pass; every traced digest must equal the untraced.

    The forked workload's shards are all of one kind: it gets enough
    instrumented passes for a p90 over ``P90_SAMPLES`` shards.
    """
    uniform = bench.workload.workers > 0
    shards = sum(spec.shard_count for spec in bench.specs)
    count = -(-P90_SAMPLES // shards) if uniform else 1
    untraced = bench.run_pass(warm_passes=0)
    plain, records, _ = _traced_passes(bench, count, profile=False)
    (profiled,), profiled_records, stats = _traced_passes(bench, 1, profile=True)
    expected = untraced.digests
    mismatches = _mismatches(expected, _golden(bench.workload, bench.seed), "golden")
    for later in plain + [profiled]:
        mismatches += _mismatches(later.digests, expected, "traced")

    metrics = layertrace.layer_metrics(stats)
    cold_s = sum(p.cold_s for p in plain)
    shard_s = [s for p in plain for s in p.shard_s]
    metrics["sim.events"] = sum(r["events"] for r in profiled_records)
    metrics["sim.ps_per_s"] = sum(r["sim_ps"] for r in records) / cold_s
    metrics["testbed.build_s"] = statistics.fmean(r["build_s"] for r in records)
    metrics["testbed.build_frac"] = sum(r["build_s"] for r in records) / sum(
        r["scenario_s"] for r in records
    )
    metrics["runner.shard_overhead_s"] = (
        sum(shard_s) - sum(r["scenario_s"] for r in records)
    ) / len(records)
    samples = shard_s if uniform else []
    metrics["runner.shard_s.n"] = len(samples)
    metrics["runner.shard_s.p50"] = statistics.median(samples) if samples else 0.0
    metrics["runner.shard_s.p90"] = (
        statistics.quantiles(samples, n=10)[-1] if len(samples) >= P90_SAMPLES else 0.0
    )
    metrics["cluster.cache_hit_frac"] = profiled.hits / max(profiled.lookups, 1)
    metrics["trace.overhead"] = profiled.cold_s / untraced.cold_s
    return _outcome(
        [untraced] + plain + [profiled],
        mismatches,
        {name: (value, _unit(name)) for name, value in metrics.items()},
    )


class _Ready(BaseException):
    """Stops the set-up probe at its first ``Simulator.run``."""


def probe(workload: Workload, seed: int, work: Path) -> float:
    """Set up as a measured run does, up to its first point; return when.

    Inline workloads build their first point's testbed up to its first
    ``Simulator.run``; the sweep's parent only resolves the scenario,
    expands the shard plan and opens the store, as ``osnt-sweep run``
    does before it forks.
    """
    spec = workload.specs(seed)[0]
    get_scenario(spec.scenario)
    shard = spec.expand()[0]
    ResultStore(work / "probe-store")
    if workload.workers == 0:

        def on_sim(sim) -> None:
            def run(*args, **kwargs):
                raise _Ready

            sim.run = run

        add_creation_hook(on_sim)
        try:
            run_shard(spec, shard)
        except _Ready:
            pass
    return time.monotonic()


def pin(work: Path) -> None:
    golden = {}
    for name, workload in WORKLOADS.items():
        result = Bench(workload, DEFAULT_SEED, work).run_pass(warm_passes=0)
        if result.failed:
            raise SystemExit(f"{name}: {result.errors}")
        golden[name] = result.digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=".perfbench_work")
    parser.add_argument("--pin", action="store_true", help="rewrite golden.json")
    parser.add_argument("--probe", action="store_true", help="time set-up only")
    args = parser.parse_args(argv)
    work = Path(args.work)
    if args.pin:
        pin(work)
        return 0
    workload = WORKLOADS[args.workload]
    if args.probe:
        print(json.dumps({"ready": probe(workload, args.seed, work)}))
        return 0
    bench = Bench(workload, args.seed, work)
    # Untimed warm-up: one spec per scenario kind, cold and warm.
    bench.run_pass(workload.warmup_specs(args.seed), warm_passes=1)
    out = traced(bench) if args.trace else timed(bench, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
