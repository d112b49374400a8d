"""The scenario params schema: every built-in's keyword signature.

A misspelled, missing or ill-typed param must raise a ConfigError that
names the scenario and the field, from every entry point
(``run_spec``, ``osnt-sweep run``, ``osnt-sweep expand``), before any
shard runs or any checkpoint directory is created. It must never pass
silently (and measure the default) or surface later as a bare
``KeyError``/``TypeError`` inside a shard.
"""

from __future__ import annotations

import json
import subprocess
import sys
import typing
from typing import Any

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SweepError
from repro.runner import ExperimentSpec, get_scenario, list_scenarios, registry, run_spec
from repro.runner.registry import Scenario
from repro.runner.cli import main as sweep_main
from repro.units import ms

#: Every validated built-in, with the params it cannot run without.
REQUIRED = {
    "sleep": {},
    "flaky_marker": {"marker": "unused-marker"},
    "line_rate": {"frame_size": 64},
    "idt_precision": {"kind": "osnt", "target_gap_ps": "20us"},
    "clock_error": {"mode": "free-running"},
    "legacy_latency": {"frame_size": 64, "load": 0.5},
    "imix_latency": {},
    "flowmod_latency": {},
    "forwarding_consistency": {},
    "capture_path": {"load": 0.5},
    "timestamp_placement": {"load": 0.5},
    "router_latency": {"prefix_len": 24},
    "rfc2544": {"frame_size": 64},
    "oflops": {"module": "packet_in_latency"},
    "syn_flood_flowmod": {},
    "incast_burst": {},
    "lossy_link_latency": {},
    "gps_holdover_drift": {},
    "flowmod_under_flap": {},
    "fct_vs_loss": {},
    "effective_loss_vs_speed": {},
    "throughput_under_bursty_corruption": {},
}

NAMES = sorted(REQUIRED)


def spec_of(scenario, params=None, axes=None):
    return ExperimentSpec(
        name="params",
        scenario=scenario,
        params=dict(REQUIRED[scenario], **(params or {})),
        axes=axes or {},
        timeout_s=None,
        retries=0,
    )


def rejects(spec, *fields, checkpoint=None):
    """Run ``spec``; assert the ConfigError names its scenario and fields."""
    with pytest.raises(ConfigError) as info:
        run_spec(spec, checkpoint_dir=checkpoint)
    message = str(info.value)
    for text in (spec.scenario, *fields):
        assert repr(text) in message, message
    if checkpoint is not None:
        assert not checkpoint.exists()
    return message


def test_every_builtin_is_a_validated_point_function():
    assert set(list_scenarios()) >= set(REQUIRED) | {"echo"}
    for name in NAMES:
        scenario = get_scenario(name)
        assert isinstance(scenario, Scenario) and not scenario.open
        required = {key for key, (_, needed) in scenario.fields.items() if needed}
        assert required == set(REQUIRED[name]), name
    assert get_scenario("echo").open  # the one **params opt-out


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(NAMES),
    key=st.text(min_size=1, max_size=12),
    as_axis=st.booleans(),
)
def test_unknown_key_rejected_before_any_checkpoint(tmp_path, name, key, as_axis):
    fields = get_scenario(name).fields
    if key in fields:
        return
    if as_axis:
        spec = spec_of(name, axes={key: [1, 2]})
    else:
        spec = spec_of(name, params={key: 1})
    rejects(spec, key, checkpoint=tmp_path / "ckpt")


@pytest.mark.parametrize(
    "name,key", [(name, key) for name in NAMES for key in REQUIRED[name]]
)
def test_missing_required_key_rejected(name, key):
    params = dict(REQUIRED[name])
    del params[key]
    spec = ExperimentSpec(name="params", scenario=name, params=params, retries=0)
    assert "missing" in rejects(spec, key)


def _typed_fields():
    """(scenario, field) for every field with a checked annotation."""
    return [
        (name, key)
        for name in NAMES
        for key, (hint, _) in get_scenario(name).fields.items()
        if hint is not Any
    ]


@settings(max_examples=150, deadline=None)
@given(
    case=st.sampled_from(_typed_fields()),
    value=st.lists(st.integers(), max_size=3),
)
def test_ill_typed_value_rejected(case, value):
    """No annotated field takes a list, so a list is always ill-typed."""
    name, key = case
    rejects(spec_of(name, params={key: value}), key)


@pytest.mark.parametrize(
    "name,key,value",
    [
        ("line_rate", "frame_size", "64"),
        ("line_rate", "frame_size", 64.0),
        ("line_rate", "ports", True),
        ("line_rate", "telemetry", 1),
        ("legacy_latency", "load", "0.5"),
        ("legacy_latency", "duration", "10 parsecs"),
        ("capture_path", "dma_bandwidth_bps", "fast"),
        ("rfc2544", "fabric_rate_bps", "-1Gbps"),
        ("syn_flood_flowmod", "deadline", "soon"),
        ("fct_vs_loss", "protected", "yes"),
        ("oflops", "module", 3),
    ],
)
def test_bad_scalars_and_unit_strings_rejected(name, key, value):
    rejects(spec_of(name, params={key: value}), key)


def _choice_fields():
    """(scenario, field, choices) for every ``Literal``-annotated field."""
    return [
        (name, key, typing.get_args(hint))
        for name in NAMES
        for key, (hint, _) in get_scenario(name).fields.items()
        if typing.get_origin(hint) is typing.Literal
    ]


def test_enumerated_fields_declare_their_choices():
    declared = {(name, key): choices for name, key, choices in _choice_fields()}
    assert declared[("clock_error", "mode")] == ("free-running", "gps-disciplined")
    assert declared[("idt_precision", "kind")] == ("osnt", "software")
    barrier = {name for (name, key) in declared if key == "barrier_mode"}
    assert barrier == {
        name for name in NAMES if "barrier_mode" in get_scenario(name).fields
    }
    assert barrier >= {"flowmod_latency", "forwarding_consistency", "oflops"}


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.sampled_from(_choice_fields()), value=st.text(max_size=20))
def test_value_outside_the_choices_rejected_before_any_shard(tmp_path, case, value):
    name, key, choices = case
    if value in choices:
        return
    message = rejects(
        spec_of(name, params={key: value}), key, checkpoint=tmp_path / "ckpt"
    )
    for choice in choices:
        assert repr(choice) in message, message


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_every_listed_choice_accepted_unchanged(data):
    name, key, choices = data.draw(st.sampled_from(_choice_fields()))
    choice = data.draw(st.sampled_from(choices))
    params = dict(REQUIRED[name], **{key: choice})
    assert get_scenario(name).bind(params)[key] is choice
    spec = spec_of(name, params={key: choice})
    assert [shard.params[key] for shard in spec.expand()] == [choice]


def test_gps_typo_is_not_run_as_free_running():
    rejects(spec_of("clock_error", params={"mode": "gps"}), "mode")


def test_bad_axis_value_rejected():
    rejects(spec_of("line_rate", axes={"duration": ["1ms", "1 fortnight"]}), "duration")


# -- the failures measured before the schema existed -------------------------


def test_misspelled_duration_is_not_silently_the_default(tmp_path):
    spec = spec_of("line_rate", params={"duraton": "10us"})
    rejects(spec, "duraton", checkpoint=tmp_path / "ckpt")


@pytest.mark.parametrize(
    "name,params,key",
    [
        ("router_latency", {}, "prefix_len"),
        ("oflops", {}, "module"),
        ("timestamp_placement", {}, "load"),
    ],
)
def test_missing_key_is_a_config_error_not_a_shard_key_error(name, params, key):
    spec = ExperimentSpec(name="params", scenario=name, params=params, retries=0)
    rejects(spec, key)


def test_capture_variant_must_be_a_dict():
    spec = spec_of("capture_path", params={"variant": [["snaplen", 64]]})
    message = rejects(spec, "variant")
    assert "dictionary update sequence" not in message


def test_capture_variant_keys_are_checked():
    with pytest.raises(ConfigError, match="snap_bytes"):
        get_scenario("capture_path")(
            {"load": 0.1, "variant": {"snap_bytes": 64}, "duration": "10us"}, 0
        )


# -- binder behaviour ----------------------------------------------------------


def test_unit_strings_coerced_to_the_point_functions_units():
    bound = get_scenario("rfc2544").bind(
        {"frame_size": 64, "duration": "2ms", "fabric_rate_bps": "6Gbps"}
    )
    assert bound == {"frame_size": 64, "duration": ms(2), "fabric_rate_bps": 6e9}


def test_int_accepted_where_a_float_is_declared_and_kept_as_is():
    assert get_scenario("capture_path").bind({"load": 1}) == {"load": 1}


def test_seed_injected_unless_pinned():
    def sleep(**params):
        return run_spec(ExperimentSpec(name="s", scenario="sleep", params=params))

    derived, pinned = sleep(duration_s=0), sleep(duration_s=0, seed=5)
    assert derived.results()[0]["seed"] == derived.shards[0].seed
    assert pinned.results()[0]["seed"] == 5


def test_seed_rejected_by_a_point_without_one():
    rejects(spec_of("rfc2544", params={"seed": 0}), "seed")


def test_decorator_declares_keyword_point_and_returns_it():
    def point(*, x: int, seed: int = 0):
        return {"twice": 2 * x, "seed": seed}

    try:
        assert registry.scenario("test_kw_point")(point) is point
        spec = ExperimentSpec(name="k", scenario="test_kw_point", axes={"x": [3]})
        report = run_spec(spec)
        assert report.results() == [{"twice": 6, "seed": report.shards[0].seed}]
        rejects(ExperimentSpec(name="k", scenario="test_kw_point", axes={"y": [1]}), "y")
    finally:
        registry._SCENARIOS.pop("test_kw_point", None)


def test_decorator_rejects_positional_parameters():
    with pytest.raises(SweepError, match="keyword-only"):
        registry.scenario("test_positional")(lambda params, seed: {})
    assert "test_positional" not in registry._SCENARIOS


def test_raw_registration_is_not_validated():
    registry.register_scenario("test_raw", lambda params, seed: {"keys": sorted(params)})
    try:
        spec = ExperimentSpec(name="r", scenario="test_raw", params={"any": 1})
        report = run_spec(spec)
        assert report.results() == [{"keys": ["any"]}]
    finally:
        registry._SCENARIOS.pop("test_raw", None)


def test_builtins_import_only_their_own_module_on_first_use():
    code = (
        "import sys\n"
        "from repro.runner import get_scenario\n"
        "modules = ('repro.testbed.scenarios', 'repro.flows.scenarios',"
        " 'repro.oflops.module', 'repro.faults.scenarios')\n"
        "line_rate = get_scenario('line_rate')\n"
        "print([m for m in modules if m in sys.modules])\n"
        "line_rate.bind({'frame_size': 64})\n"
        "print([m for m in modules if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split("\n")[:2] == ["[]", "['repro.testbed.scenarios']"]


# -- the CLI -------------------------------------------------------------------


@pytest.mark.parametrize("command", ["expand", "run"])
def test_cli_rejects_misspelled_param(tmp_path, capsys, command):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": "typo",
                "scenario": "line_rate",
                "params": {"frame_size": 64, "duraton": "10us"},
            }
        )
    )
    argv = [command, str(path)]
    if command == "run":
        argv += ["--workers", "0", "--checkpoint", str(tmp_path / "ckpt")]
    assert sweep_main(argv) == 2
    err = capsys.readouterr().err
    assert "'duraton'" in err and "'line_rate'" in err
    assert not (tmp_path / "ckpt").exists()
