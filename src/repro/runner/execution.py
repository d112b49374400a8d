"""Sharded sweep execution: worker pool, timeouts, retries, resume.

The :class:`SweepRunner` expands a spec into shards and drives them to
completion:

* ``workers >= 1`` — each shard attempt runs in its own forked worker
  process, which writes its outcome to a result file and exits. The
  parent polls the fleet, enforces the per-attempt wall-clock timeout
  (terminating hung workers), retries failed/hung shards up to the
  spec's budget and records exhausted shards as *failed* without
  aborting the sweep.
* ``workers == 0`` — inline execution in this process (no isolation,
  no timeout enforcement): the debugging mode, and what library-style
  callers use so they never fork.
* ``scheduler=...`` — any :class:`repro.cluster.Scheduler` backend;
  the forked pool above is just the default
  (:class:`~repro.cluster.LocalScheduler`), and
  :class:`~repro.cluster.SocketScheduler` runs the same shards on
  remote ``osnt-worker`` processes instead.
* ``cache_dir=...`` — a shared content-addressed
  :class:`~repro.cluster.ResultStore`: shards whose key (scenario,
  params, seed, code version) already has a stored result are served
  from the cache (marked ``cached`` in the report) and never executed;
  fresh results are stored for the next overlapping sweep.

Determinism: a shard's result depends only on ``(spec, shard)`` — the
seed is derived from the spec, never from the schedule — so merged
reports are bit-identical at any worker count, on any scheduler
backend, and whether shards were executed, resumed from checkpoints or
served from the cache. Completed shards are checkpointed as
``shard-NNNNN.json`` files; a rerun against the same checkpoint
directory (guarded by the spec fingerprint *and* the code version)
skips them, which is all resume-after-interruption is.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import SweepError
from ..obs.flight import (
    DEFAULT_HEARTBEAT_S,
    DEFAULT_STALL_FACTOR,
    FlightTailer,
    HeartbeatWriter,
    heartbeat_path,
    render_progress,
)
from .registry import check_points, get_scenario
from .report import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_PENDING,
    ShardResult,
    SweepReport,
)
from .spec import ExperimentSpec, Shard

#: Grace period between SIGTERM and SIGKILL for a hung worker.
_KILL_GRACE_S = 1.0

_SPEC_FILE = "spec.json"


def _jsonify(value: Any) -> Any:
    """Force a scenario result into plain JSON-serializable data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # numpy scalars and friends expose item(); last resort is repr.
    item = getattr(value, "item", None)
    if callable(item):
        return _jsonify(item())
    return repr(value)


def run_shard(spec: ExperimentSpec, shard: Shard) -> Dict[str, Any]:
    """Execute one shard in-process and return its sanitized result.

    This is the single definition of "run a shard" shared by inline
    mode and worker processes: import the spec's helper modules,
    resolve the scenario, call it on a private deep copy of the params
    (already copied at expansion; scenarios may still mutate freely)
    and apply the collection plan.
    """
    for module in spec.imports:
        importlib.import_module(module)
    fn = get_scenario(spec.scenario)
    result = _jsonify(fn(dict(shard.params), shard.seed))
    if not isinstance(result, dict):
        raise SweepError(
            f"scenario {spec.scenario!r} must return a dict, got {type(result).__name__}"
        )
    if spec.collect is not None:
        result = {key: result[key] for key in spec.collect if key in result}
    return result


def _worker_main(
    spec: ExperimentSpec,
    shard: Shard,
    out_path: str,
    flight_path: Optional[str] = None,
    attempt: int = 1,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> None:
    """Worker-process entry: run the shard, write the outcome, exit hard.

    The outcome file is written atomically (temp + rename) so the
    parent never sees a torn read; ``os._exit`` skips the parent's
    inherited atexit/teardown state (we forked from an arbitrary
    process, possibly a test runner). With ``flight_path`` set, a
    :class:`~repro.obs.HeartbeatWriter` ticks in a daemon thread for
    the parent's flight recorder to tail.
    """
    try:
        writer = None
        try:
            if flight_path is not None:
                writer = HeartbeatWriter(
                    flight_path, shard.index, attempt=attempt, interval_s=heartbeat_s
                ).start()
            result = run_shard(spec, shard)
            payload = {"status": STATUS_OK, "result": result}
            if writer is not None:
                writer.stop("done")
        except BaseException as exc:  # noqa: BLE001 — report, don't die silently
            payload = {
                "status": STATUS_FAILED,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
            if writer is not None:
                writer.stop("failed")
        tmp = f"{out_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, out_path)
    finally:
        os._exit(0)


class _Attempt:
    """One in-flight worker process for one shard."""

    def __init__(
        self,
        ctx,
        spec: ExperimentSpec,
        shard: Shard,
        out_path: str,
        flight_path: Optional[str] = None,
        attempt: int = 1,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ) -> None:
        self.shard = shard
        self.out_path = out_path
        self.started = time.monotonic()
        self.process = ctx.Process(
            target=_worker_main,
            args=(spec, shard, out_path, flight_path, attempt, heartbeat_s),
            daemon=True,
        )
        self.process.start()

    def outcome(self, timeout_s: Optional[float]) -> Optional[Dict[str, Any]]:
        """Poll once: a payload dict when finished, None while running."""
        if os.path.exists(self.out_path):
            # The file is renamed into place after the payload is
            # complete, so existence implies a full, valid document.
            self.process.join()
            with open(self.out_path) as handle:
                payload = json.load(handle)
            os.unlink(self.out_path)
            return payload
        if not self.process.is_alive():
            return {
                "status": STATUS_FAILED,
                "error": f"worker died without a result (exitcode {self.process.exitcode})",
            }
        if timeout_s is not None and time.monotonic() - self.started > timeout_s:
            self.terminate()
            return {
                "status": STATUS_FAILED,
                "error": f"shard timed out after {timeout_s}s (worker terminated)",
            }
        return None

    def terminate(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(_KILL_GRACE_S)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        if os.path.exists(self.out_path):
            os.unlink(self.out_path)


class SweepRunner:
    """Run an :class:`ExperimentSpec` across a worker pool, resumably.

    >>> runner = SweepRunner(spec, workers=4, checkpoint_dir="run1")
    >>> report = runner.run()          # resumes automatically on rerun

    ``workers=0`` executes inline (no subprocesses, no timeouts).

    ``scheduler`` accepts any :class:`repro.cluster.Scheduler`
    (overriding ``workers``/``start_method``); by default a
    :class:`~repro.cluster.LocalScheduler` wraps the classic forked
    pool. ``cache_dir`` (a path or a ready
    :class:`~repro.cluster.ResultStore`) arms the content-addressed
    result cache: known shards are served without executing and fresh
    results are stored for future sweeps.

    ``flight_dir`` arms the flight recorder (:mod:`repro.obs.flight`):
    workers write heartbeat files there, the parent tails them into a
    live progress/ETA line (``on_progress`` callback) and flags shards
    with no heartbeat within ``stall_after_s`` (default
    ``10×heartbeat_s``) as *stalled* in the report. All of it is
    operational telemetry — the merged document is unaffected.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        workers: int = 1,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        start_method: Optional[str] = None,
        flight_dir: Optional[Union[str, Path]] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        stall_after_s: Optional[float] = None,
        on_progress=None,
        progress_interval_s: float = 1.0,
        scheduler=None,
        cache_dir=None,
    ) -> None:
        if workers < 0:
            raise SweepError(f"workers must be >= 0, got {workers}")
        if heartbeat_s <= 0:
            raise SweepError(f"heartbeat_s must be > 0, got {heartbeat_s}")
        self.spec = spec
        self.workers = workers
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        self.flight_dir = Path(flight_dir) if flight_dir else None
        self.heartbeat_s = heartbeat_s
        self.stall_after_s = (
            stall_after_s
            if stall_after_s is not None
            else DEFAULT_STALL_FACTOR * heartbeat_s
        )
        self.on_progress = on_progress
        self.progress_interval_s = progress_interval_s
        self.start_method = start_method
        self.scheduler = scheduler
        self.store = None
        if cache_dir is not None:
            from ..cluster.store import ResultStore

            self.store = (
                cache_dir
                if isinstance(cache_dir, ResultStore)
                else ResultStore(cache_dir)
            )

    # -- checkpoints ---------------------------------------------------------

    def _shard_path(self, index: int) -> Path:
        assert self.checkpoint_dir is not None
        return self.checkpoint_dir / f"shard-{index:05d}.json"

    def _prepare_checkpoints(self, resume: bool) -> Dict[int, Dict[str, Any]]:
        """Create/validate the checkpoint dir; load completed shards.

        Guards against two kinds of staleness before trusting anything:
        a different *spec* (fingerprint mismatch) and a different
        *source tree* (code-version mismatch) — either means the
        checkpointed results may not be reproducible by the current
        code, so resuming over them would silently mix regimes. Orphaned
        ``shard-*.tmp.*`` files from a writer killed mid-checkpoint are
        removed up front; the atomic rename in :meth:`_checkpoint`
        guarantees they were never visible as real checkpoints.
        """
        from ..cluster.version import code_version

        directory = self.checkpoint_dir
        if directory is None:
            return {}
        directory.mkdir(parents=True, exist_ok=True)
        for orphan in directory.glob("shard-*.tmp.*"):
            orphan.unlink()
        for orphan in directory.glob("spec.tmp.*"):
            orphan.unlink()
        spec_path = directory / _SPEC_FILE
        fingerprint = self.spec.fingerprint()
        code = code_version()
        if spec_path.exists():
            try:
                recorded = json.loads(spec_path.read_text())
            except json.JSONDecodeError:
                recorded = {}
            recorded_fp = recorded.get("fingerprint")
            recorded_code = recorded.get("code_version")
            if recorded_fp != fingerprint:
                if resume:
                    raise SweepError(
                        f"checkpoint dir {directory} belongs to a different spec "
                        f"(fingerprint {recorded_fp!r} != {fingerprint!r}); "
                        "use a fresh directory or resume=False to overwrite"
                    )
                for stale in directory.glob("shard-*.json"):
                    stale.unlink()
            elif recorded_code is not None and recorded_code != code:
                if resume:
                    raise SweepError(
                        f"checkpoint dir {directory} was written by code version "
                        f"{recorded_code!r} but this tree is {code!r}; results "
                        "may not be reproducible — use a fresh directory or "
                        "resume=False to overwrite"
                    )
                for stale in directory.glob("shard-*.json"):
                    stale.unlink()
        tmp = spec_path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as handle:
            json.dump(
                {
                    "fingerprint": fingerprint,
                    "code_version": code,
                    "spec": self.spec.to_dict(),
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, spec_path)
        completed: Dict[int, Dict[str, Any]] = {}
        if resume:
            for path in sorted(directory.glob("shard-*.json")):
                try:
                    payload = json.loads(path.read_text())
                except json.JSONDecodeError:
                    continue  # torn write from a killed run: redo the shard
                if payload.get("status") == STATUS_OK and "index" in payload:
                    completed[payload["index"]] = payload
        return completed

    def _checkpoint(self, record: ShardResult) -> None:
        if self.checkpoint_dir is None or record.status != STATUS_OK:
            return
        path = self._shard_path(record.index)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        # fsync before the rename: a kill between write and rename must
        # leave either no checkpoint or a complete one — never a
        # truncated file that a later resume would trust.
        with open(tmp, "w") as handle:
            handle.write(json.dumps(record.checkpoint_payload(), sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- execution -----------------------------------------------------------

    def run(self, resume: bool = True, max_shards: Optional[int] = None) -> SweepReport:
        """Execute (or finish) the sweep and return the merged report.

        ``resume=True`` skips shards already checkpointed by a previous
        run of the same spec. ``max_shards`` caps how many shards this
        call executes (smoke runs; simulating an interrupted campaign) —
        the rest are reported as *pending*. With a result store armed,
        shards whose content address is already stored are *served*,
        not executed (and count against ``max_shards`` like skipped
        work would not — cache hits are free).

        Every sweep point's params are bound to the scenario first: a
        misspelled, missing or ill-typed param raises a ConfigError
        before any checkpoint, cache lookup or shard.
        """
        shards = self.spec.expand()
        check_points(
            self.spec.scenario, (s.params for s in shards if s.repeat == 0)
        )
        completed = self._prepare_checkpoints(resume)
        records: Dict[int, ShardResult] = {}
        todo: List[Shard] = []
        for shard in shards:
            payload = completed.get(shard.index)
            if payload is not None and payload.get("seed") == shard.seed:
                records[shard.index] = ShardResult(
                    index=shard.index,
                    params=shard.params,
                    seed=shard.seed,
                    status=STATUS_OK,
                    result=payload.get("result"),
                    from_checkpoint=True,
                )
                self._store_put(records[shard.index])
            else:
                todo.append(shard)
        todo = self._serve_from_store(todo, records)
        budget = len(todo) if max_shards is None else min(max_shards, len(todo))
        skipped = todo[budget:]
        todo = todo[:budget]

        scheduler_stats: Dict[str, Any] = {}
        worker_telemetry: Dict[str, Dict[str, Any]] = {}
        if self.workers == 0 and self.scheduler is None:
            for shard in todo:
                record = self._run_inline(shard)
                records[shard.index] = record
                self._store_put(record)
            scheduler_stats = {"backend": "inline", "executed": len(todo)}
        else:
            scheduler = self._make_scheduler()
            self._run_scheduled(scheduler, todo, records)
            scheduler_stats = scheduler.stats()
            worker_telemetry = scheduler.telemetry_snapshots()

        for shard in skipped:
            records[shard.index] = ShardResult(
                index=shard.index,
                params=shard.params,
                seed=shard.seed,
                status=STATUS_PENDING,
            )
        report = SweepReport(
            spec=self.spec,
            shards=[records[shard.index] for shard in shards],
            worker_telemetry=worker_telemetry,
            scheduler_stats=scheduler_stats,
        )
        return report

    # -- the result store ----------------------------------------------------

    def _serve_from_store(
        self, todo: List[Shard], records: Dict[int, ShardResult]
    ) -> List[Shard]:
        """Split cache hits out of ``todo``; only misses remain to run."""
        if self.store is None or not todo:
            return todo
        from ..cluster.store import shard_cache_key

        misses: List[Shard] = []
        for shard in todo:
            result = self.store.get(shard_cache_key(self.spec, shard))
            if result is None:
                misses.append(shard)
                continue
            record = ShardResult(
                index=shard.index,
                params=shard.params,
                seed=shard.seed,
                status=STATUS_OK,
                result=result,
                cached=True,
            )
            records[shard.index] = record
            self._checkpoint(record)
        return misses

    def _store_put(self, record: ShardResult) -> None:
        """Publish one ok result to the shared store (idempotent)."""
        if (
            self.store is None
            or record.status != STATUS_OK
            or record.cached
            or record.result is None
        ):
            return
        from ..cluster.store import shard_cache_key

        shard = Shard(
            index=record.index,
            params=record.params,
            seed=record.seed,
        )
        self.store.put(
            shard_cache_key(self.spec, shard),
            record.result,
            scenario=self.spec.scenario,
        )

    # -- scheduler dispatch --------------------------------------------------

    def _make_scheduler(self):
        """The configured scheduler, or a LocalScheduler over the pool."""
        if self.scheduler is not None:
            return self.scheduler
        from ..cluster.scheduler import LocalScheduler

        return LocalScheduler(
            workers=max(self.workers, 1),
            start_method=self.start_method,
            heartbeat_s=self.heartbeat_s,
        )

    def _run_scheduled(
        self, scheduler, todo: List[Shard], records: Dict[int, ShardResult]
    ) -> None:
        """Drive ``todo`` through a scheduler backend, resumably."""
        tailer: Optional[FlightTailer] = None
        if self.flight_dir is not None:
            self.flight_dir.mkdir(parents=True, exist_ok=True)
            tailer = FlightTailer(self.flight_dir, stall_after_s=self.stall_after_s)
        total = len(records) + len(todo)
        sweep_started = time.monotonic()
        last_progress = 0.0

        def on_record(record: ShardResult) -> None:
            records[record.index] = record
            self._checkpoint(record)
            self._store_put(record)

        on_cycle = None
        if self.on_progress is not None:

            def on_cycle(statuses: Dict[int, Dict[str, Any]]) -> None:
                nonlocal last_progress
                now = time.monotonic()
                if now - last_progress < self.progress_interval_s:
                    return
                last_progress = now
                done = sum(1 for r in records.values() if r.ok)
                failed = sum(
                    1 for r in records.values() if r.status == STATUS_FAILED
                )
                # Cache hits finish in ~0s; keep them out of the ETA's
                # per-shard rate (render_progress excludes them).
                cached = sum(1 for r in records.values() if r.ok and r.cached)
                self.on_progress(
                    render_progress(
                        done,
                        failed,
                        total,
                        statuses,
                        now - sweep_started,
                        cached=cached,
                    )
                )

        scheduler.run(
            self.spec, todo, on_record=on_record, tailer=tailer, on_cycle=on_cycle
        )
        if tailer is not None:
            for index in tailer.stalled_shards:
                record = records.get(index)
                if record is not None:
                    record.stalled = True

    def _run_inline(self, shard: Shard) -> ShardResult:
        record = ShardResult(index=shard.index, params=shard.params, seed=shard.seed)
        start = time.monotonic()
        for attempt in range(1 + self.spec.retries):
            record.attempts = attempt + 1
            writer = None
            if self.flight_dir is not None:
                # Inline mode still writes heartbeats (no stall watcher:
                # there is no parent loop running concurrently to tail).
                self.flight_dir.mkdir(parents=True, exist_ok=True)
                writer = HeartbeatWriter(
                    heartbeat_path(self.flight_dir, shard.index, attempt + 1),
                    shard.index,
                    attempt=attempt + 1,
                    interval_s=self.heartbeat_s,
                ).start()
            try:
                record.result = run_shard(self.spec, shard)
                record.status = STATUS_OK
                record.error = None
                if writer is not None:
                    writer.stop("done")
                break
            except Exception as exc:  # noqa: BLE001 — recorded, retried
                record.status = STATUS_FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                if writer is not None:
                    writer.stop("failed")
        record.elapsed_s = time.monotonic() - start
        self._checkpoint(record)
        return record

def run_spec(
    spec: ExperimentSpec,
    workers: int = 0,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = True,
    max_shards: Optional[int] = None,
    scheduler=None,
    cache_dir=None,
) -> SweepReport:
    """One-call convenience: build a :class:`SweepRunner` and run it."""
    runner = SweepRunner(
        spec,
        workers=workers,
        checkpoint_dir=checkpoint_dir,
        scheduler=scheduler,
        cache_dir=cache_dir,
    )
    return runner.run(resume=resume, max_shards=max_shards)
