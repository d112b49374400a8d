"""Tests for repro.cluster: result store, schedulers, protocol, workers."""

import json
import os
import signal
import socket
import time

import pytest

from repro.cluster import (
    FrameDecoder,
    LocalScheduler,
    ResultStore,
    SocketScheduler,
    code_version,
    encode_frame,
    parse_age_s,
    recv_frame,
    result_digest,
    send_frame,
    shard_cache_key,
    source_digest,
    workers_openmetrics,
)
from repro.cluster.worker import _parse_endpoint, main as worker_main
from repro.errors import SweepError
from repro.runner import ExperimentSpec, SweepRunner, run_spec
from repro.runner.spec import Shard
from repro.telemetry import parse_openmetrics


def echo_spec(**overrides):
    base = dict(
        name="cluster-echo",
        scenario="echo",
        params={"alpha": 1},
        axes={"x": [1, 2], "y": ["a", "b"]},
        retries=1,
        timeout_s=30.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# -- ages and keys ------------------------------------------------------------


class TestParseAge:
    def test_units(self):
        assert parse_age_s("90s") == 90.0
        assert parse_age_s("15m") == 900.0
        assert parse_age_s("12h") == 43200.0
        assert parse_age_s("7d") == 7 * 86400.0
        assert parse_age_s("2w") == 2 * 604800.0

    def test_bare_number_is_seconds(self):
        assert parse_age_s("42") == 42.0
        assert parse_age_s(42) == 42.0
        assert parse_age_s(1.5) == 1.5

    def test_bad_age_raises(self):
        for bad in ("", "h", "12x", "-5s", "1.2.3m"):
            with pytest.raises(SweepError):
                parse_age_s(bad)


class TestShardCacheKey:
    def test_key_ignores_campaign_bookkeeping(self):
        """Overlapping sweeps must share keys for their common shards."""
        a = echo_spec(name="first", retries=0)
        b = echo_spec(name="second", retries=3, timeout_s=5.0)
        for sa, sb in zip(a.expand(), b.expand()):
            assert shard_cache_key(a, sa) == shard_cache_key(b, sb)

    def test_key_covers_what_changes_results(self):
        spec = echo_spec()
        shard = spec.expand()[0]
        base = shard_cache_key(spec, shard)
        other_params = Shard(
            index=shard.index,
            params={**shard.params, "alpha": 2},
            seed=shard.seed,
        )
        other_seed = Shard(index=shard.index, params=shard.params, seed=shard.seed + 1)
        assert shard_cache_key(spec, other_params) != base
        assert shard_cache_key(spec, other_seed) != base
        assert shard_cache_key(spec, shard, code="0.0+stale") != base
        assert shard_cache_key(echo_spec(scenario="sleep"), shard) != base

    def test_key_shape(self):
        spec = echo_spec()
        key = shard_cache_key(spec, spec.expand()[0])
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)


class TestCodeVersion:
    def test_source_digest_tracks_content(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        first = source_digest(tmp_path)
        assert source_digest(tmp_path) == first  # stable
        (tmp_path / "a.py").write_text("x = 2\n")
        assert source_digest(tmp_path) != first

    def test_code_version_format(self):
        version = code_version()
        release, _, digest = version.partition("+")
        assert release and digest
        assert len(digest) == 10


# -- the result store ---------------------------------------------------------


class TestResultStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" * 32
        result = {"value": 42, "nested": {"k": [1, 2]}}
        assert store.put(key, result, scenario="echo") is True
        assert key in store
        assert store.get(key) == result
        assert store.hits == 1

    def test_duplicate_put_is_noop(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        assert store.put(key, {"v": 1}) is True
        assert store.put(key, {"v": 1}) is False

    def test_miss_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("ef" * 32) is None
        assert store.misses == 1

    def test_bad_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        for bad in ("short", "Z" * 64, "../../../../etc/passwd"):
            with pytest.raises(SweepError):
                store.get(bad)

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "12" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        entry = json.loads(path.read_text())
        entry["result"]["v"] = 999  # digest no longer matches
        path.write_text(json.dumps(entry))
        assert store.get(key) is None
        assert store.misses == 1
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()

    def test_torn_entry_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "34" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None
        assert path.with_suffix(".corrupt").exists()

    def test_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1}, scenario="echo")
        store.put("cd" * 32, {"v": 2}, scenario="echo")
        store.put("ef" * 32, {"v": 3}, scenario="sleep")
        stats = store.stats()
        assert stats.entries == 3
        assert stats.by_scenario == {"echo": 2, "sleep": 1}
        assert stats.total_bytes > 0
        assert "entries:     3" in stats.summary()

    def test_gc_by_age(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, {"v": 1}, scenario="echo")
        store.put("cd" * 32, {"v": 2}, scenario="echo")
        # Backdate one entry (created_s is not covered by the digest).
        old = store._entry_path("ab" * 32)
        entry = json.loads(old.read_text())
        entry["created_s"] = time.time() - 7200
        old.write_text(json.dumps(entry, sort_keys=True))

        would = store.gc("1h", dry_run=True)
        assert would == ["ab" * 32]
        assert old.exists()  # dry run touches nothing

        removed = store.gc("1h")
        assert removed == ["ab" * 32]
        assert not old.exists()
        assert store.get("cd" * 32) == {"v": 2}
        # The index was rewritten from the survivors.
        lines = [
            json.loads(line)
            for line in store.index_path.read_text().splitlines()
        ]
        assert [line["key"] for line in lines] == ["cd" * 32]

    def test_gc_sweeps_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "56" * 32
        store.put(key, {"v": 1})
        path = store._entry_path(key)
        path.write_text("not json")
        assert store.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        store.gc("52w")  # nothing is that old, but quarantine goes
        assert not path.with_suffix(".corrupt").exists()


# -- cache-served sweeps ------------------------------------------------------


class TestCachedSweeps:
    def test_cold_then_warm_is_byte_identical(self, tmp_path):
        spec = echo_spec()
        store_dir = tmp_path / "store"
        cold = run_spec(spec, workers=2, cache_dir=store_dir)
        assert not cold.from_cache
        warm = run_spec(spec, workers=2, cache_dir=store_dir)
        assert len(warm.from_cache) == len(spec.expand())
        assert warm.merged_json() == cold.merged_json()
        assert warm.scheduler_stats.get("executed", 0) == 0

    def test_overlapping_sweep_runs_only_new_shards(self, tmp_path):
        store_dir = tmp_path / "store"
        first = echo_spec(name="first", axes={"x": [1, 2], "y": ["a", "b"]})
        cold = run_spec(first, workers=0, cache_dir=store_dir)
        assert cold.scheduler_stats == {"backend": "inline", "executed": 4}
        # Same sweep extended along its slowest-varying axis: the four
        # old operating points keep their indices and seeds, so only
        # the two new shards execute.
        extended = echo_spec(name="second", axes={"x": [1, 2, 3], "y": ["a", "b"]})
        warm = run_spec(extended, workers=0, cache_dir=store_dir)
        assert warm.scheduler_stats == {"backend": "inline", "executed": 2}
        assert len(warm.from_cache) == 4
        assert warm.require_ok().complete

    def test_cache_hits_are_checkpointed(self, tmp_path):
        spec = echo_spec()
        store_dir = tmp_path / "store"
        run_spec(spec, workers=0, cache_dir=store_dir)
        ckpt = tmp_path / "ckpt"
        warm = run_spec(spec, workers=0, cache_dir=store_dir, checkpoint_dir=ckpt)
        assert len(warm.from_cache) == len(spec.expand())
        resumed = run_spec(spec, workers=0, checkpoint_dir=ckpt)  # no store
        assert all(s.from_checkpoint for s in resumed.shards)
        assert resumed.merged_json() == warm.merged_json()

    def test_result_digest_is_canonical(self):
        assert result_digest({"b": 1, "a": 2}) == result_digest({"a": 2, "b": 1})


# -- checkpoint hygiene -------------------------------------------------------


class TestCheckpointHygiene:
    def test_orphaned_tmp_files_are_cleaned(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "shard-00000.tmp.12345").write_text("{torn")
        (ckpt / "spec.tmp.12345").write_text("{torn")
        run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)
        assert not list(ckpt.glob("*.tmp.*"))

    def test_spec_json_records_code_version(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)
        recorded = json.loads((ckpt / "spec.json").read_text())
        assert recorded["code_version"] == code_version()
        assert recorded["fingerprint"] == echo_spec().fingerprint()

    def test_stale_code_version_detected_on_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)
        spec_path = ckpt / "spec.json"
        recorded = json.loads(spec_path.read_text())
        recorded["code_version"] = "0.0.0+stale00000"
        spec_path.write_text(json.dumps(recorded))
        with pytest.raises(SweepError, match="code version"):
            run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)

    def test_stale_code_version_overwritten_without_resume(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)
        spec_path = ckpt / "spec.json"
        recorded = json.loads(spec_path.read_text())
        recorded["code_version"] = "0.0.0+stale00000"
        spec_path.write_text(json.dumps(recorded))
        report = run_spec(
            echo_spec(), workers=0, checkpoint_dir=ckpt, resume=False
        )
        assert report.require_ok().complete
        assert not any(s.from_checkpoint for s in report.shards)
        fresh = json.loads(spec_path.read_text())
        assert fresh["code_version"] == code_version()


# -- framing ------------------------------------------------------------------


class TestProtocol:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"type": "hello", "worker": "w0"})
            message = recv_frame(b)
            assert message["type"] == "hello"
            assert message["worker"] == "w0"
            assert message["v"] == 1
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"type": "hello"})
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(SweepError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_decoder_handles_fragmented_input(self):
        wire = encode_frame({"n": 1}) + encode_frame({"n": 2}) + encode_frame({"n": 3})
        decoder = FrameDecoder()
        messages = []
        for i in range(0, len(wire), 5):  # drip-feed 5 bytes at a time
            messages.extend(decoder.feed(wire[i : i + 5]))
        assert [m["n"] for m in messages] == [1, 2, 3]

    def test_decoder_rejects_oversized_frames(self):
        import struct

        decoder = FrameDecoder()
        with pytest.raises(SweepError, match="exceeds"):
            decoder.feed(struct.pack(">I", 1 << 31))

    def test_parse_endpoint(self):
        assert _parse_endpoint("host:80") == ("host", 80)
        assert _parse_endpoint("::1:9000") == ("::1", 9000)
        for bad in ("nope", ":80", "host:"):
            with pytest.raises(SweepError):
                _parse_endpoint(bad)

    def test_worker_cli_rejects_bad_endpoint(self, capsys):
        assert worker_main(["--connect", "nope"]) == 1
        assert "osnt-worker" in capsys.readouterr().err


# -- schedulers ---------------------------------------------------------------


class TestLocalScheduler:
    def test_runner_reports_local_backend(self):
        report = run_spec(echo_spec(), workers=2)
        assert report.require_ok().complete
        stats = report.scheduler_stats
        assert stats["backend"] == "local"
        assert stats["executed"] == len(echo_spec().expand())

    def test_rejects_zero_workers(self):
        with pytest.raises(SweepError):
            LocalScheduler(workers=0)


def _socket_scheduler(**overrides):
    options = dict(spawn_workers=2, heartbeat_s=0.1)
    options.update(overrides)
    return SocketScheduler(**options)


class TestSocketScheduler:
    def test_merged_report_matches_inline(self, tmp_path):
        spec = echo_spec()
        baseline = run_spec(spec, workers=0)
        runner = SweepRunner(
            spec, scheduler=_socket_scheduler(), flight_dir=tmp_path / "flight"
        )
        report = runner.run()
        assert report.require_ok().complete
        assert report.merged_json() == baseline.merged_json()
        stats = report.scheduler_stats
        assert stats["backend"] == "socket"
        assert stats["executed"] == len(spec.expand())
        assert sum(stats["per_worker"].values()) == stats["executed"]
        assert all(s.worker for s in report.shards)

    def test_remote_heartbeats_feed_the_flight_recorder(self, tmp_path):
        spec = echo_spec(
            scenario="sleep",
            params={},
            axes={"duration_s": [0.6]},
        )
        flight = tmp_path / "flight"
        runner = SweepRunner(
            spec, scheduler=_socket_scheduler(spawn_workers=1), flight_dir=flight
        )
        runner.run().require_ok()
        beats = []
        for path in flight.glob("*.hb.jsonl"):
            beats.extend(
                json.loads(line) for line in path.read_text().splitlines()
            )
        assert beats, "remote heartbeats should land in the flight directory"
        assert all("worker" in beat for beat in beats)

    def test_pull_based_work_stealing(self):
        # One 1.5s shard and six fast ones: whichever worker draws the
        # slow shard is busy while the other pulls everything else.
        spec = echo_spec(
            scenario="sleep",
            params={},
            axes={"duration_s": [1.5, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02]},
            retries=0,
        )
        runner = SweepRunner(spec, scheduler=_socket_scheduler())
        report = runner.run().require_ok()
        per_worker = report.scheduler_stats["per_worker"]
        assert len(per_worker) == 2
        assert sum(per_worker.values()) == 7
        assert max(per_worker.values()) >= 4

    def test_per_worker_telemetry_is_collected(self):
        spec = echo_spec()
        runner = SweepRunner(spec, scheduler=_socket_scheduler())
        report = runner.run().require_ok()
        assert report.worker_telemetry
        assert sum(
            snap.get("shards_ok", 0) for snap in report.worker_telemetry.values()
        ) == len(spec.expand())
        text = workers_openmetrics(report.worker_telemetry)
        families = parse_openmetrics(text)
        assert "osnt_worker_shards_ok" in families

    def test_no_worker_ever_connects_raises(self):
        scheduler = SocketScheduler(
            spawn_workers=0, connect_timeout_s=0.3, heartbeat_s=0.1
        )
        runner = SweepRunner(echo_spec(), scheduler=scheduler)
        with pytest.raises(SweepError, match="no live worker"):
            runner.run()

    def test_warm_cache_spawns_nothing(self, tmp_path):
        spec = echo_spec()
        store_dir = tmp_path / "store"
        run_spec(spec, workers=0, cache_dir=store_dir)
        scheduler = _socket_scheduler()
        report = SweepRunner(spec, scheduler=scheduler, cache_dir=store_dir).run()
        assert len(report.from_cache) == len(spec.expand())
        assert not scheduler.spawned  # an empty todo never forks workers

    def test_kill_and_resume_determinism(self, tmp_path):
        spec = echo_spec()
        baseline = run_spec(spec, workers=1)
        ckpt = tmp_path / "ckpt"
        partial = SweepRunner(
            spec, scheduler=_socket_scheduler(), checkpoint_dir=ckpt
        ).run(max_shards=2)
        assert partial.pending  # the "interrupted" half of the campaign
        resumed = SweepRunner(
            spec, scheduler=_socket_scheduler(), checkpoint_dir=ckpt
        ).run()
        assert resumed.require_ok().complete
        assert resumed.merged_json() == baseline.merged_json()
        assert sum(1 for s in resumed.shards if s.from_checkpoint) == 2


def _write_scenario_module(tmp_path, monkeypatch, module, name, signal_name):
    """A scenario module (importable by spawned workers) that stops or
    kills its own worker process on the first attempt."""
    (tmp_path / f"{module}.py").write_text(
        "import os, signal\n"
        "from repro.runner.registry import register_scenario\n"
        "def _scen(params, seed):\n"
        "    marker = params['marker']\n"
        "    if not os.path.exists(marker):\n"
        "        with open(marker, 'w') as handle:\n"
        "            handle.write('attempted\\n')\n"
        f"        os.kill(os.getpid(), signal.{signal_name})\n"
        "    return {'recovered': True, 'seed': seed}\n"
        f"register_scenario({name!r}, _scen)\n"
    )
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH",
        str(tmp_path) + (os.pathsep + existing if existing else ""),
    )


class TestWorkerDeath:
    def test_dead_worker_shard_is_reassigned(self, tmp_path, monkeypatch):
        """SIGKILL closes the socket: the EOF path reassigns at once."""
        _write_scenario_module(
            tmp_path, monkeypatch, "scen_die", "die_once", "SIGKILL"
        )
        spec = ExperimentSpec(
            name="die",
            scenario="die_once",
            params={"marker": str(tmp_path / "marker")},
            imports=["scen_die"],
            retries=1,
            timeout_s=30.0,
        )
        scheduler = _socket_scheduler()
        report = SweepRunner(spec, scheduler=scheduler).run()
        assert report.require_ok().complete
        assert report.shards[0].result == {
            "recovered": True,
            "seed": spec.expand()[0].seed,
        }
        stats = report.scheduler_stats
        assert stats["deaths"] >= 1
        assert stats["reassigned"] >= 1

    def test_heartbeat_timeout_declares_worker_dead(self, tmp_path, monkeypatch):
        """SIGSTOP keeps the socket open but silences heartbeats: only
        the heartbeat-timeout path can reclaim the shard."""
        _write_scenario_module(
            tmp_path, monkeypatch, "scen_stop", "stop_once", "SIGSTOP"
        )
        spec = ExperimentSpec(
            name="stall",
            scenario="stop_once",
            params={"marker": str(tmp_path / "marker")},
            imports=["scen_stop"],
            retries=1,
            timeout_s=60.0,  # far beyond the heartbeat timeout
        )
        scheduler = _socket_scheduler(heartbeat_timeout_s=1.5)
        report = SweepRunner(spec, scheduler=scheduler).run()
        assert report.require_ok().complete
        assert report.shards[0].result == {
            "recovered": True,
            "seed": spec.expand()[0].seed,
        }
        stats = report.scheduler_stats
        assert stats["deaths"] >= 1
        assert stats["reassigned"] >= 1

    def test_retry_budget_bounds_reassignment(self, tmp_path, monkeypatch):
        """A shard that always kills its worker fails after the budget
        instead of looping forever."""
        (tmp_path / "scen_always.py").write_text(
            "import os, signal\n"
            "from repro.runner.registry import register_scenario\n"
            "def _scen(params, seed):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "register_scenario('always_die', _scen)\n"
        )
        existing = os.environ.get("PYTHONPATH", "")
        monkeypatch.setenv(
            "PYTHONPATH",
            str(tmp_path) + (os.pathsep + existing if existing else ""),
        )
        spec = ExperimentSpec(
            name="always",
            scenario="always_die",
            imports=["scen_always"],
            retries=1,
            timeout_s=30.0,
        )
        scheduler = _socket_scheduler()
        report = SweepRunner(spec, scheduler=scheduler).run()
        assert len(report.failed) == 1
        assert report.failed[0].attempts == 2  # retries + 1, then give up
        assert "died" in report.failed[0].error
        assert report.scheduler_stats["deaths"] == 2


# -- openmetrics aggregation --------------------------------------------------


class TestWorkersOpenmetrics:
    def test_gauges_grouped_per_family_with_worker_labels(self):
        text = workers_openmetrics(
            {
                "w1": {"shards_ok": 3, "beats": 10},
                "w0": {"shards_ok": 1, "note": "skipped: not numeric"},
            }
        )
        families = parse_openmetrics(text)
        samples = families["osnt_worker_shards_ok"]["samples"]
        assert [(labels["worker"], value) for _, labels, value in samples] == [
            ("w0", 1.0),
            ("w1", 3.0),
        ]
        assert "note" not in text

    def test_summaries_get_quantile_and_worker_labels(self):
        text = workers_openmetrics(
            {"w0": {"lat_us": {"count": 4, "mean": 2.0, "p50": 1.5, "p99": 3.0}}}
        )
        families = parse_openmetrics(text)
        family = families["osnt_worker_lat_us"]
        assert family["type"] == "summary"
        names = [name for name, _, _ in family["samples"]]
        assert "osnt_worker_lat_us_count" in names
        assert "osnt_worker_lat_us_sum" in names
        quantiles = [
            labels["quantile"]
            for _, labels, _ in family["samples"]
            if "quantile" in labels
        ]
        assert quantiles == ["0.5", "0.99"]

    def test_sanitization_collision_raises(self):
        with pytest.raises(ValueError, match="sanitize"):
            workers_openmetrics({"w0": {"a.b": 1, "a_b": 2}})

    def test_empty_fleet_is_still_valid(self):
        assert parse_openmetrics(workers_openmetrics({})) == {}

    def test_hostile_worker_names_are_escaped(self):
        text = workers_openmetrics({'evil"name\nhost': {"shards_ok": 1}})
        families = parse_openmetrics(text)
        (_, labels, _) = families["osnt_worker_shards_ok"]["samples"][0]
        assert '"' not in labels["worker"]
        assert "\n" not in labels["worker"]
