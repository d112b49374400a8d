"""Sweep results: per-shard records and the merged campaign report.

The report separates two kinds of information:

* **deterministic** — shard identity (index, params, seed), status and
  the scenario result. :meth:`SweepReport.merged_dict` contains only
  these, so its canonical JSON is bit-identical for the same spec at
  any worker count and across checkpoint/resume.
* **operational** — attempt counts and wall-clock timings, which vary
  run to run and are kept out of the merged document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .spec import ExperimentSpec, canonical_json

#: Shard terminal states.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_PENDING = "pending"


@dataclass
class ShardResult:
    """Outcome of one shard (including ones restored from checkpoints)."""

    index: int
    params: Dict[str, Any]
    seed: int
    status: str = STATUS_PENDING
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    from_checkpoint: bool = False
    #: Flight-recorder stall flag (operational, like attempts/elapsed_s:
    #: it depends on wall-clock behaviour, so it must stay out of
    #: :meth:`merged_entry` to keep the merged document deterministic).
    stalled: bool = False
    #: Served from the content-addressed result store instead of being
    #: executed (operational — a cache hit holds the same bytes a cold
    #: run would produce, so the merged document is unaffected).
    cached: bool = False
    #: Which remote worker executed the shard (socket scheduler only;
    #: operational — placement must never influence results).
    worker: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def merged_entry(self) -> Dict[str, Any]:
        """The deterministic slice of this record."""
        entry: Dict[str, Any] = {
            "index": self.index,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
        }
        if self.result is not None:
            entry["result"] = self.result
        if self.error is not None:
            entry["error"] = self.error
        return entry

    def checkpoint_payload(self) -> Dict[str, Any]:
        return self.merged_entry()


def _merge_numeric(total: Dict[str, Any], part: Dict[str, Any]) -> None:
    """Sum numeric leaves of ``part`` into ``total`` (recursively)."""
    for key, value in part.items():
        if isinstance(value, dict):
            _merge_numeric(total.setdefault(key, {}), value)
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


@dataclass
class SweepReport:
    """Everything one :class:`~repro.runner.SweepRunner` run produced."""

    spec: ExperimentSpec
    shards: List[ShardResult] = field(default_factory=list)
    #: Per-worker telemetry snapshots from a remote (socket) scheduler,
    #: keyed by worker name. Operational: excluded from the merged
    #: document; feed it to :func:`repro.cluster.workers_openmetrics`.
    worker_telemetry: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Operational counters from the scheduler backend that ran the
    #: sweep (backend name, executed/reassigned counts, ...).
    scheduler_stats: Dict[str, Any] = field(default_factory=dict)

    # -- selections ---------------------------------------------------------

    @property
    def ok(self) -> List[ShardResult]:
        return [s for s in self.shards if s.status == STATUS_OK]

    @property
    def failed(self) -> List[ShardResult]:
        return [s for s in self.shards if s.status == STATUS_FAILED]

    @property
    def pending(self) -> List[ShardResult]:
        return [s for s in self.shards if s.status == STATUS_PENDING]

    @property
    def complete(self) -> bool:
        """Every shard reached a terminal state (ok or failed)."""
        return not self.pending

    @property
    def stalled(self) -> List[ShardResult]:
        """Shards the flight recorder flagged as stalled at least once
        (they may still have finished ok — stalls are advisory)."""
        return [s for s in self.shards if s.stalled]

    @property
    def from_cache(self) -> List[ShardResult]:
        """Shards served from the content-addressed result store."""
        return [s for s in self.shards if s.cached]

    def results(self) -> List[Dict[str, Any]]:
        """Scenario results of successful shards, in shard order."""
        return [s.result for s in self.ok]

    def require_ok(self) -> "SweepReport":
        """Raise :class:`~repro.errors.SweepError` unless every shard is ok.

        Library-style callers want exceptions, not partial reports.
        """
        from ..errors import SweepError

        bad = self.failed + self.pending
        if bad:
            details = "; ".join(
                f"shard {s.index} {s.status}" + (f": {s.error}" if s.error else "")
                for s in bad[:5]
            )
            raise SweepError(
                f"sweep {self.spec.name!r}: {len(bad)} shard(s) not ok ({details})"
            )
        return self

    def rows(self) -> List[Dict[str, Any]]:
        """Params merged over results — one flat dict per ok shard.

        Result keys win on collision; handy for building tables.
        """
        merged = []
        for s in self.ok:
            row = dict(s.params)
            row.update(s.result or {})
            merged.append(row)
        return merged

    # -- the deterministic merged document ----------------------------------

    def merged_dict(self) -> Dict[str, Any]:
        """Spec + per-shard deterministic records, in shard order."""
        return {
            "spec": self.spec.to_dict(),
            "shards": [s.merged_entry() for s in self.shards],
        }

    def merged_json(self) -> str:
        """Canonical JSON of :meth:`merged_dict`.

        Bit-identical for the same spec regardless of worker count or
        checkpoint/resume history — the property the determinism tests
        assert with string equality.
        """
        return canonical_json(self.merged_dict())

    def merged_telemetry(self) -> Dict[str, Any]:
        """Sum of the numeric ``telemetry`` snapshots across ok shards.

        Scenarios include a card snapshot under the ``"telemetry"``
        result key when asked (``params={"telemetry": true}``); this
        folds them into one campaign-wide view (counters add; nested
        dicts merge recursively).
        """
        total: Dict[str, Any] = {}
        for s in self.ok:
            telemetry = (s.result or {}).get("telemetry")
            if isinstance(telemetry, dict):
                _merge_numeric(total, telemetry)
        return total

    def merged_waveforms(self) -> Dict[str, Any]:
        """Per-shard waveform digests plus one combined digest.

        Scenarios run with ``params={"waveforms": true}`` report their
        :meth:`~repro.telemetry.WaveformRecorder.digest` under the
        ``"waveform_digest"`` result key. Shard digests are deterministic
        and shard order is fixed by the spec, so the combined SHA-256 is
        byte-identical at any worker count and across kill-and-resume —
        one string proves a whole sweep's timelines reproduced.
        """
        import hashlib

        shard_digests: Dict[str, str] = {}
        for s in self.ok:
            digest = (s.result or {}).get("waveform_digest")
            if digest is not None:
                shard_digests[str(s.index)] = digest
        combined = (
            hashlib.sha256(canonical_json(shard_digests).encode()).hexdigest()
            if shard_digests
            else None
        )
        return {"combined_digest": combined, "shards": shard_digests}

    # -- human output -------------------------------------------------------

    def summary(self) -> str:
        from ..analysis.report import format_table

        rows = []
        for s in self.shards:
            note = ""
            if s.status == STATUS_FAILED:
                note = (s.error or "")[:60]
            elif s.cached:
                note = "from cache"
            elif s.from_checkpoint:
                note = "from checkpoint"
            if s.worker:
                note = f"{note} [{s.worker}]".strip()
            if s.stalled:
                note = f"{note} [stalled]".strip()
            rows.append(
                [
                    s.index,
                    s.status,
                    s.attempts,
                    f"{s.elapsed_s:.2f}",
                    canonical_json(s.params)[:64],
                    note,
                ]
            )
        title = (
            f"sweep {self.spec.name!r}: {len(self.ok)} ok, "
            f"{len(self.failed)} failed, {len(self.pending)} pending"
        )
        if self.from_cache:
            title += f" ({len(self.from_cache)} from cache)"
        return format_table(
            ["shard", "status", "attempts", "wall s", "params", "note"],
            rows,
            title=title,
        )

    def save_json(self, path) -> None:
        import json

        document = {
            "merged": self.merged_dict(),
            "operational": [
                {
                    "index": s.index,
                    "attempts": s.attempts,
                    "elapsed_s": s.elapsed_s,
                    "stalled": s.stalled,
                    "cached": s.cached,
                    "worker": s.worker,
                }
                for s in self.shards
            ],
            "scheduler": self.scheduler_stats,
            "worker_telemetry": self.worker_telemetry,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
