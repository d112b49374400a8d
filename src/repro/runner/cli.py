"""``osnt-sweep`` — run declarative experiment campaigns from the shell.

Subcommands:

* ``run SPEC.json`` — execute (or resume) a sweep across workers;
  ``--cache DIR`` serves/stores shards in a shared result store and
  ``--scheduler socket`` dispatches to remote ``osnt-worker``
  processes instead of the local pool.
* ``expand SPEC.json`` — show the shard expansion without running it.
* ``scenarios`` — list every registered scenario.
* ``example`` — print a ready-to-edit spec.
* ``cache stats DIR`` / ``cache gc DIR --older-than AGE`` — inspect or
  prune a content-addressed result store.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..analysis.report import format_table
from ..errors import ConfigError, SweepError
from ..obs.flight import DEFAULT_HEARTBEAT_S
from .execution import SweepRunner
from .registry import check_points, get_scenario, list_scenarios
from .spec import ExperimentSpec, canonical_json

_EXAMPLE_SPEC = {
    "name": "latency-vs-load",
    "scenario": "legacy_latency",
    "params": {"frame_size": 512, "duration": "2ms"},
    "axes": {"load": [0.2, 0.4, 0.6, 0.8, 1.0]},
    "repeats": 1,
    "seed": 0,
    "timeout_s": 120.0,
    "retries": 1,
}

_EXAMPLE_FAULTS_SPEC = {
    "name": "latency-vs-loss",
    "scenario": "lossy_link_latency",
    "params": {"frame_size": 256, "duration": "2ms"},
    "axes": {"loss_rate": [0.0, 0.005, 0.02, 0.05], "burst": [1.0, 8.0]},
    "repeats": 1,
    "seed": 0,
    "timeout_s": 120.0,
    "retries": 1,
}

_EXAMPLE_TRAFFIC_SPEC = {
    "name": "incast-vs-burstiness",
    "scenario": "incast_burst",
    "params": {"senders": 3, "frame_size": 512, "duration": "2ms"},
    "axes": {
        "traffic": [
            {"model": "cbr", "params": {"rate": "3Gbps"}},
            {
                "model": "burst_train",
                "params": {"frames_per_burst": 32, "inter_burst_gap": "40us"},
            },
            {
                "model": "burst_train",
                "params": {"frames_per_burst": 128, "inter_burst_gap": "160us"},
            },
        ]
    },
    "repeats": 1,
    "seed": 0,
    "timeout_s": 120.0,
    "retries": 1,
}


def _load_spec(path: str) -> ExperimentSpec:
    if path == "-":
        return ExperimentSpec.from_json(sys.stdin.read())
    with open(path) as handle:
        return ExperimentSpec.from_json(handle.read())


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec)
    on_progress = None
    if args.flight:
        # Progress lines go to stderr so stdout stays clean for --merged.
        def on_progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

    scheduler = None
    if args.scheduler == "socket":
        from ..cluster import SocketScheduler

        host, _, port = args.listen.rpartition(":")
        scheduler = SocketScheduler(
            host=host or "127.0.0.1",
            port=int(port),
            spawn_workers=args.spawn_workers,
            heartbeat_s=args.heartbeat_s,
            heartbeat_timeout_s=args.worker_timeout_s,
        )
        print(
            f"socket scheduler listening on "
            f"{scheduler.address[0]}:{scheduler.address[1]} "
            f"(connect workers with: osnt-worker --connect "
            f"{scheduler.address[0]}:{scheduler.address[1]})",
            file=sys.stderr,
        )
    runner = SweepRunner(
        spec,
        workers=args.workers,
        checkpoint_dir=args.checkpoint,
        flight_dir=args.flight,
        heartbeat_s=args.heartbeat_s,
        stall_after_s=args.stall_after_s,
        on_progress=on_progress,
        scheduler=scheduler,
        cache_dir=args.cache,
    )
    report = runner.run(resume=not args.no_resume, max_shards=args.max_shards)
    print(report.summary())
    if args.cache and report.from_cache:
        print(
            f"{len(report.from_cache)} shard(s) served from cache {args.cache}",
            file=sys.stderr,
        )
    if args.merged:
        print(report.merged_json())
    if args.json:
        report.save_json(args.json)
        print(f"wrote report to {args.json}", file=sys.stderr)
    if report.stalled:
        indexes = ", ".join(str(s.index) for s in report.stalled)
        print(
            f"flight recorder flagged shard(s) {indexes} as stalled",
            file=sys.stderr,
        )
    if report.failed:
        print(
            f"{len(report.failed)} shard(s) failed after retries", file=sys.stderr
        )
        return 1
    return 0


def _cmd_expand(args) -> int:
    spec = _load_spec(args.spec)
    get_scenario(spec.scenario)  # fail fast on unknown scenarios
    shards = spec.expand()
    check_points(spec.scenario, (s.params for s in shards if s.repeat == 0))
    print(
        format_table(
            ["shard", "repeat", "seed", "params"],
            [
                [s.index, s.repeat, s.seed, canonical_json(s.params)[:72]]
                for s in shards
            ],
            title=(
                f"spec {spec.name!r}: scenario {spec.scenario!r}, "
                f"{len(shards)} shard(s), fingerprint {spec.fingerprint()}"
            ),
        )
    )
    return 0


def _cmd_scenarios(args) -> int:
    rows = []
    for name in list_scenarios():
        fn = get_scenario(name)
        doc = (getattr(fn, "fn", fn).__doc__ or "").strip().splitlines()
        rows.append([name, doc[0] if doc else ""])
    print(format_table(["scenario", "description"], rows, title="registered scenarios"))
    return 0


def _cmd_example(args) -> int:
    if args.faults:
        example = _EXAMPLE_FAULTS_SPEC
    elif args.traffic:
        example = _EXAMPLE_TRAFFIC_SPEC
    else:
        example = _EXAMPLE_SPEC
    print(json.dumps(example, indent=2))
    return 0


def _cmd_cache_stats(args) -> int:
    from ..cluster import ResultStore

    store = ResultStore(args.store)
    stats = store.stats()
    print(f"result store {args.store}")
    print(stats.summary())
    return 0


def _cmd_cache_gc(args) -> int:
    from ..cluster import ResultStore, parse_age_s

    age_s = parse_age_s(args.older_than)
    store = ResultStore(args.store)
    removed = store.gc(age_s, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"cache gc: {verb} {len(removed)} entr{'y' if len(removed) == 1 else 'ies'} "
        f"older than {args.older_than} from {args.store}"
    )
    remaining = store.stats()
    print(f"remaining: {remaining.entries} entries, {remaining.total_bytes} bytes")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="osnt-sweep",
        description="sharded, resumable experiment sweeps over declarative specs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute (or resume) a sweep")
    run_p.add_argument("spec", help="spec JSON file ('-' for stdin)")
    run_p.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (0 = inline, no timeouts; default 2)",
    )
    run_p.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint directory (enables resume across invocations)",
    )
    run_p.add_argument(
        "--no-resume", action="store_true",
        help="ignore existing checkpoints instead of resuming",
    )
    run_p.add_argument(
        "--max-shards", type=int, default=None,
        help="run at most N shards this invocation (smoke/partial runs)",
    )
    run_p.add_argument(
        "--merged", action="store_true",
        help="print the canonical merged JSON document to stdout",
    )
    run_p.add_argument("--json", metavar="FILE", help="write the full report here")
    run_p.add_argument(
        "--flight", metavar="DIR", default=None,
        help="flight-recorder directory: workers write heartbeat JSONL "
        "there; enables live progress on stderr and stall detection",
    )
    run_p.add_argument(
        "--heartbeat-s", type=float, default=DEFAULT_HEARTBEAT_S,
        help=f"worker heartbeat interval in seconds (default {DEFAULT_HEARTBEAT_S})",
    )
    run_p.add_argument(
        "--stall-after-s", type=float, default=None,
        help="flag a shard as stalled after this many seconds without a "
        "heartbeat (default 10x the heartbeat interval)",
    )
    run_p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed result store: serve already-computed "
        "shards from here and store fresh results for future sweeps",
    )
    run_p.add_argument(
        "--scheduler", choices=("local", "socket"), default="local",
        help="execution backend: the local forked pool (default) or a "
        "socket listener dispatching to remote osnt-worker processes",
    )
    run_p.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:0",
        help="socket scheduler bind address (default 127.0.0.1:0 = "
        "loopback, ephemeral port printed on stderr)",
    )
    run_p.add_argument(
        "--spawn-workers", type=int, default=0, metavar="N",
        help="socket scheduler: fork N loopback osnt-worker processes "
        "at start (external workers may still connect)",
    )
    run_p.add_argument(
        "--worker-timeout-s", type=float, default=None, metavar="S",
        help="socket scheduler: declare a busy worker dead after this "
        "many seconds without a heartbeat and reassign its shard "
        "(default 10x the heartbeat interval)",
    )
    run_p.set_defaults(func=_cmd_run)

    expand_p = sub.add_parser("expand", help="show the shard expansion")
    expand_p.add_argument("spec", help="spec JSON file ('-' for stdin)")
    expand_p.set_defaults(func=_cmd_expand)

    sub.add_parser("scenarios", help="list registered scenarios").set_defaults(
        func=_cmd_scenarios
    )
    example_p = sub.add_parser("example", help="print an example spec")
    example_p.add_argument(
        "--faults", action="store_true",
        help="print a fault-injection sweep spec instead",
    )
    example_p.add_argument(
        "--traffic", action="store_true",
        help="print a traffic-model sweep spec instead",
    )
    example_p.set_defaults(func=_cmd_example)

    cache_p = sub.add_parser("cache", help="inspect or prune a result store")
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    stats_p = cache_sub.add_parser("stats", help="summarize a result store")
    stats_p.add_argument("store", metavar="DIR", help="result store directory")
    stats_p.set_defaults(func=_cmd_cache_stats)
    gc_p = cache_sub.add_parser("gc", help="delete entries older than an age")
    gc_p.add_argument("store", metavar="DIR", help="result store directory")
    gc_p.add_argument(
        "--older-than", required=True, metavar="AGE",
        help="age threshold, e.g. '90s', '15m', '12h', '7d'",
    )
    gc_p.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )
    gc_p.set_defaults(func=_cmd_cache_gc)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SweepError) as exc:
        print(f"osnt-sweep: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"osnt-sweep: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
