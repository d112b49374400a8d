"""Tests for repro.runner: specs, sharding, pool execution, resume."""

import copy
import json

import pytest

from repro.errors import ConfigError, SweepError
from repro.runner import (
    ExperimentSpec,
    SweepRunner,
    canonical_json,
    get_scenario,
    list_scenarios,
    register_scenario,
    run_spec,
    shard_seed,
)
from repro.units import us


def echo_spec(**overrides):
    # retries=1: the merged document is attempt-count-independent, and a
    # retry budget keeps a one-off worker death from failing CI.
    base = dict(
        name="echo-sweep",
        scenario="echo",
        params={"alpha": 1},
        axes={"x": [1, 2], "y": ["a", "b", "c"]},
        retries=1,
        timeout_s=30.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_requires_name_and_scenario(self):
        with pytest.raises(SweepError):
            ExperimentSpec(name="", scenario="echo")
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="")

    def test_axes_must_be_nonempty_lists(self):
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="echo", axes={"load": []})
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="echo", axes={"load": 0.5})

    def test_policy_bounds(self):
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="echo", repeats=0)
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="echo", retries=-1)
        with pytest.raises(SweepError):
            ExperimentSpec(name="x", scenario="echo", timeout_s=0)

    def test_sweep_error_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(SweepError, ReproError)


class TestSpecSerialization:
    def test_json_round_trip(self):
        spec = echo_spec(collect=["seed"], imports=["json"])
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.to_dict() == spec.to_dict()
        assert clone.fingerprint() == spec.fingerprint()

    def test_dict_round_trip_via_plain_json(self):
        # A spec authored as a plain JSON document, not via Python.
        document = json.dumps(
            {"name": "doc", "scenario": "echo", "axes": {"x": [1, 2]}}
        )
        spec = ExperimentSpec.from_json(document)
        assert spec.shard_count == 2
        assert spec.retries == 1  # defaults fill in

    def test_unknown_fields_rejected(self):
        with pytest.raises(SweepError, match="unknown spec field"):
            ExperimentSpec.from_dict({"name": "x", "scenario": "echo", "nope": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(SweepError, match="missing required"):
            ExperimentSpec.from_dict({"name": "x"})

    def test_invalid_json_rejected(self):
        with pytest.raises(SweepError, match="not valid JSON"):
            ExperimentSpec.from_json("{nope")

    def test_to_dict_is_a_deep_copy(self):
        spec = echo_spec()
        spec.to_dict()["axes"]["x"].append(99)
        assert spec.axes["x"] == [1, 2]


class TestExpansion:
    def test_order_and_indices(self):
        shards = echo_spec().expand()
        assert [s.index for s in shards] == list(range(6))
        # Declaration order, last axis fastest.
        assert [(s.params["x"], s.params["y"]) for s in shards] == [
            (1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (2, "c"),
        ]

    def test_repeats_get_distinct_seeds(self):
        shards = echo_spec(axes={"x": [1]}, repeats=3).expand()
        assert len(shards) == 3
        assert len({s.seed for s in shards}) == 3
        assert [s.repeat for s in shards] == [0, 1, 2]

    def test_seed_derivation_is_stable(self):
        spec = echo_spec()
        first = [s.seed for s in spec.expand()]
        second = [s.seed for s in spec.expand()]
        assert first == second
        assert first[0] == shard_seed(0, 0, {"alpha": 1, "x": 1, "y": "a"}, 0)

    def test_root_seed_changes_all_shard_seeds(self):
        a = [s.seed for s in echo_spec().expand()]
        b = [s.seed for s in echo_spec(seed=7).expand()]
        assert all(x != y for x, y in zip(a, b))

    def test_shards_do_not_share_mutable_params(self):
        # Regression: sweep points sharing one config dict meant a shard
        # mutating nested state bled into its siblings and the spec.
        spec = echo_spec(params={"nested": {"depth": 1}}, axes={"v": [{"k": 0}]})
        shards = spec.expand()
        shards[0].params["nested"]["depth"] = 999
        shards[0].params["v"]["k"] = 999
        assert spec.params["nested"]["depth"] == 1
        assert spec.axes["v"][0]["k"] == 0
        fresh = spec.expand()
        assert fresh[0].params["nested"]["depth"] == 1
        assert fresh[0].params["v"]["k"] == 0


class TestRegistry:
    def test_builtins_registered(self):
        names = list_scenarios()
        for expected in ("echo", "line_rate", "legacy_latency", "rfc2544", "oflops"):
            assert expected in names

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(SweepError, match="echo"):
            get_scenario("definitely_not_registered")

    def test_custom_registration(self):
        def doubler(params, seed):
            return {"twice": params["n"] * 2}

        register_scenario("test_doubler", doubler)
        try:
            spec = ExperimentSpec(
                name="d", scenario="test_doubler", axes={"n": [3]}, retries=0
            )
            report = run_spec(spec)
            assert report.results() == [{"twice": 6}]
        finally:
            from repro.runner import registry

            registry._SCENARIOS.pop("test_doubler", None)


class TestDeterminism:
    def test_merged_json_identical_at_any_worker_count(self):
        spec = echo_spec()
        inline = run_spec(spec, workers=0).merged_json()
        serial = run_spec(spec, workers=1).merged_json()
        parallel = run_spec(spec, workers=4).merged_json()
        assert inline == serial == parallel

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        spec = echo_spec()
        baseline = run_spec(spec, workers=1).merged_json()
        # "Kill" after 2 shards, then resume with a different worker count.
        ckpt = tmp_path / "ckpt"
        partial = run_spec(spec, workers=1, checkpoint_dir=ckpt, max_shards=2)
        assert len(partial.ok) == 2
        assert len(partial.pending) == 4
        assert not partial.complete
        resumed = run_spec(spec, workers=4, checkpoint_dir=ckpt)
        assert resumed.complete
        assert sum(1 for s in resumed.shards if s.from_checkpoint) == 2
        assert resumed.merged_json() == baseline

    def test_rerun_of_complete_sweep_uses_checkpoints(self, tmp_path):
        spec = echo_spec()
        ckpt = tmp_path / "ckpt"
        first = run_spec(spec, workers=0, checkpoint_dir=ckpt)
        again = run_spec(spec, workers=0, checkpoint_dir=ckpt)
        assert all(s.from_checkpoint for s in again.shards)
        assert again.merged_json() == first.merged_json()

    def test_fingerprint_guard(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_spec(echo_spec(), workers=0, checkpoint_dir=ckpt)
        other = echo_spec(seed=99)
        with pytest.raises(SweepError, match="different spec"):
            run_spec(other, workers=0, checkpoint_dir=ckpt)
        # resume=False wipes the stale checkpoints and proceeds.
        report = run_spec(other, workers=0, checkpoint_dir=ckpt, resume=False)
        assert report.complete and not report.failed


class TestFaultTolerance:
    def test_transient_failure_retried_in_pool(self, tmp_path):
        marker = tmp_path / "marker"
        spec = ExperimentSpec(
            name="flaky",
            scenario="flaky_marker",
            params={"marker": str(marker)},
            retries=1,
            timeout_s=30.0,
        )
        report = run_spec(spec, workers=1)
        assert report.complete and not report.failed
        assert report.shards[0].attempts == 2
        assert report.results()[0]["recovered"] is True

    def test_retry_budget_exhaustion_does_not_abort(self, tmp_path):
        # Shard 0 fails forever (marker path is an unwritable directory
        # sentinel we never create, and we give no retries); shard 1 is
        # fine. The sweep must finish and report both.
        spec = ExperimentSpec(
            name="mixed",
            scenario="echo",
            axes={"x": [1, 2]},
            retries=0,
            timeout_s=30.0,
        )
        bad = ExperimentSpec(
            name="mixed-bad",
            scenario="flaky_marker",
            params={"marker": str(tmp_path / "nope" / "deep" / "marker")},
            retries=1,
            timeout_s=30.0,
        )
        good = run_spec(spec, workers=2)
        assert not good.failed
        report = run_spec(bad, workers=1)
        assert len(report.failed) == 1
        assert report.shards[0].attempts == 2
        assert "Error" in report.shards[0].error
        with pytest.raises(SweepError, match="not ok"):
            report.require_ok()

    def test_hung_shard_times_out_without_aborting_sweep(self):
        spec = ExperimentSpec(
            name="hang",
            scenario="sleep",
            axes={"duration_s": [30.0, 0.0]},
            retries=0,
            timeout_s=0.5,
        )
        report = run_spec(spec, workers=2)
        assert report.complete
        assert len(report.failed) == 1
        assert "timed out" in report.failed[0].error
        assert len(report.ok) == 1
        assert report.ok[0].result["slept_s"] == 0.0

    def test_inline_mode_retries_too(self, tmp_path):
        marker = tmp_path / "marker"
        spec = ExperimentSpec(
            name="flaky-inline",
            scenario="flaky_marker",
            params={"marker": str(marker)},
            retries=1,
            timeout_s=None,
        )
        report = run_spec(spec, workers=0)
        assert not report.failed
        assert report.shards[0].attempts == 2


class TestReport:
    def test_collect_filters_result_keys(self):
        spec = echo_spec(collect=["seed"])
        report = run_spec(spec)
        assert all(set(r) == {"seed"} for r in report.results())

    def test_rows_merges_params_and_results(self):
        report = run_spec(echo_spec(axes={"x": [5]}))
        (row,) = report.rows()
        assert row["x"] == 5 and "seed" in row

    def test_merged_telemetry_sums_counters(self):
        spec = ExperimentSpec(
            name="telemetry-merge",
            scenario="line_rate",
            params={"duration": "20us", "telemetry": True, "seed": 0},
            axes={"frame_size": [512, 1518]},
            retries=0,
            timeout_s=None,
        )
        report = run_spec(spec, workers=0)
        report.require_ok()
        merged = report.merged_telemetry()
        per_shard = [r["telemetry"] for r in report.results()]

        def total_packets(snapshot):
            return sum(
                value
                for key, value in snapshot.items()
                if key.endswith("txmac.packets")
            )

        assert total_packets(merged) == sum(total_packets(s) for s in per_shard)
        assert total_packets(merged) > 0

    def test_summary_and_save_json(self, tmp_path):
        report = run_spec(echo_spec())
        text = report.summary()
        assert "echo-sweep" in text and "6 ok" in text
        out = tmp_path / "report.json"
        report.save_json(out)
        document = json.loads(out.read_text())
        assert document["merged"]["spec"]["name"] == "echo-sweep"
        assert len(document["operational"]) == 6

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestSharedConfigRegression:
    """Sweep helpers must not mutate caller- or module-owned dicts."""

    def test_capture_variants_survive_a_sweep(self):
        from repro.testbed.scenarios import CAPTURE_VARIANTS, capture_path_point

        before = copy.deepcopy(CAPTURE_VARIANTS)
        rows = [
            capture_path_point(load=0.1, variant=variant, duration=us(50))[0]
            for variant in CAPTURE_VARIANTS
        ]
        assert len(rows) == len(CAPTURE_VARIANTS)
        assert CAPTURE_VARIANTS == before  # "name" must not be popped off

    def test_capture_point_leaves_callers_variant_alone(self):
        from repro.testbed.scenarios import capture_path_point

        variant = {"name": "cut-64", "snaplen": 64}
        capture_path_point(load=0.1, variant=variant, duration=us(50))
        assert variant == {"name": "cut-64", "snaplen": 64}

    def test_legacy_latency_switch_kwargs_not_mutated(self):
        from repro.testbed.scenarios import legacy_latency_point

        switch_kwargs = {"mac_table_capacity": 64}
        legacy_latency_point(
            frame_size=256, load=0.2, duration=us(50), switch_kwargs=switch_kwargs
        )
        assert switch_kwargs == {"mac_table_capacity": 64}


class TestLegacyShims:
    def test_line_rate_point_matches_scenario_result(self):
        from repro.testbed.scenarios import line_rate_point

        row, __ = line_rate_point(frame_size=64, duration=us(100), seed=0)
        spec = ExperimentSpec(
            name="direct",
            scenario="line_rate",
            params={"duration": us(100), "ports": 1, "seed": 0},
            axes={"frame_size": [64]},
            retries=0,
            timeout_s=None,
        )
        result = run_spec(spec).results()[0]
        assert row.achieved_pps == result["achieved_pps"]
        assert row.frame_size == 64

    def test_pinned_seed_beats_derived_seed(self):
        report = run_spec(
            ExperimentSpec(
                name="pin", scenario="echo", params={"seed": 42}, retries=0
            )
        )
        assert report.results()[0]["seed"] == 42


class TestSweepRunnerConfig:
    def test_negative_workers_rejected(self):
        with pytest.raises(SweepError):
            SweepRunner(echo_spec(), workers=-1)

    def test_max_shards_zero_runs_nothing(self):
        report = run_spec(echo_spec(), max_shards=0)
        assert len(report.pending) == 6 and not report.ok

    def test_config_error_is_value_error(self):
        # Satellite: unified parsing raises "clear ValueErrors".
        assert issubclass(ConfigError, ValueError)
