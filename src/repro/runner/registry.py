"""The scenario registry: names specs can refer to.

A *scenario* is the unit of sharded execution, called by the runner as
``fn(params: dict, seed: int) -> dict`` and **pure in (params, seed)**:
the sweep runner relies on that for bit-identical merges at any worker
count and across resumes.

A scenario is declared by its *point function*, a function with
keyword-only parameters registered with :func:`scenario` (built-ins:
:data:`BUILTINS`, imported on first use, one module at a time). Its
signature is the params schema, enforced by a :class:`Scenario`
binder; ``docs/RUNNER.md`` ("Scenarios") gives the rules.
:func:`register_scenario` is the raw, unvalidated form. External code
lists its defining module in ``ExperimentSpec.imports`` so worker
processes can resolve it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import typing
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..errors import ConfigError, SweepError
from ..units import Duration, Rate, duration_ps, rate_bps

ScenarioFn = Callable[[dict, int], dict]

#: Built-in scenarios: name -> ``"module:point_function"``.
BUILTINS: Dict[str, str] = {
    "echo": "repro.runner.scenarios:echo",
    "sleep": "repro.runner.scenarios:sleep",
    "flaky_marker": "repro.runner.scenarios:flaky_marker",
    "line_rate": "repro.testbed.scenarios:line_rate_point",
    "idt_precision": "repro.testbed.scenarios:idt_precision_point",
    "clock_error": "repro.testbed.scenarios:clock_error_point",
    "legacy_latency": "repro.testbed.scenarios:legacy_latency_point",
    "imix_latency": "repro.testbed.scenarios:imix_latency_point",
    "flowmod_latency": "repro.testbed.scenarios:flowmod_latency_point",
    "forwarding_consistency": "repro.testbed.scenarios:forwarding_consistency_point",
    "capture_path": "repro.testbed.scenarios:capture_path_point",
    "timestamp_placement": "repro.testbed.scenarios:timestamp_placement_point",
    "router_latency": "repro.testbed.scenarios:router_latency_point",
    "rfc2544": "repro.testbed.rfc2544:rfc2544_point",
    "oflops": "repro.oflops.module:oflops_point",
    "syn_flood_flowmod": "repro.testbed.attacks:syn_flood_flowmod_point",
    "incast_burst": "repro.testbed.attacks:incast_burst_point",
    "lossy_link_latency": "repro.faults.scenarios:lossy_link_latency_point",
    "gps_holdover_drift": "repro.faults.scenarios:gps_holdover_drift_point",
    "flowmod_under_flap": "repro.faults.scenarios:flowmod_under_flap_point",
    "fct_vs_loss": "repro.flows.scenarios:fct_vs_loss_point",
    "effective_loss_vs_speed": "repro.flows.scenarios:effective_loss_vs_speed_point",
    "throughput_under_bursty_corruption": (
        "repro.flows.scenarios:throughput_under_bursty_corruption_point"
    ),
}

_SCENARIOS: Dict[str, ScenarioFn] = {}

_COERCE = {Duration: duration_ps, Rate: rate_bps}


@functools.lru_cache(maxsize=None)  # one entry per distinct annotation
def _checker(hint: Any) -> Callable[[Any], Any]:
    """The check for values of ``hint``: returns the value (unit aliases
    coerced) or raises ConfigError."""
    if hint is Any:
        return lambda value: value
    if hint in _COERCE:
        return _COERCE[hint]
    origin = typing.get_origin(hint)
    if origin is typing.Literal:
        choices = typing.get_args(hint)

        def choose(value: Any) -> Any:
            # Compared with their types: True must not pass for 1.
            if not any(type(value) is type(c) and value == c for c in choices):
                listed = ", ".join(map(repr, choices))
                raise ConfigError(f"expected one of {listed}, got {value!r}")
            return value

        return choose
    if origin is typing.Union:  # Optional[X], the one union supported
        (member,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        inner = _checker(member)
        return lambda value: None if value is None else inner(value)
    base = origin or hint
    accepted = (int, float) if base is float else base
    bool_ok = base is bool  # bool is an int subclass: reject it for int

    def check(value: Any) -> Any:
        if not isinstance(value, accepted) or (isinstance(value, bool) and not bool_ok):
            name = getattr(base, "__name__", base)
            raise ConfigError(f"expected {name}, got {value!r}")
        return value

    return check


def _fold(value: Any) -> Any:
    """A point function's return value as the scenario result dict."""
    if isinstance(value, tuple):
        row, extras = value
        if isinstance(row, list):
            result = {"rows": [dataclasses.asdict(item) for item in row]}
        else:
            result = dataclasses.asdict(row)
        result.update(extras)
        return result
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


class Scenario:
    """A point function bound to the ``fn(params, seed) -> dict`` contract.

    ``point`` is the function or its ``"module:function"`` path, imported
    on first use: resolving a built-in's name imports nothing. The
    schema is read once from the keyword signature and type hints;
    :meth:`bind` is the params check, callable without running anything
    (the runner calls it in the parent before any shard).
    """

    def __init__(self, name: str, point: Any) -> None:
        self.name = name
        self._point = point

    @functools.cached_property
    def fn(self) -> Callable[..., Any]:
        if not isinstance(self._point, str):
            return self._point
        module, _, attr = self._point.partition(":")
        return getattr(importlib.import_module(module), attr)

    @functools.cached_property
    def fields(self) -> Dict[str, tuple]:
        """Param name -> (annotation, required), from the signature."""
        hints = typing.get_type_hints(self.fn)
        fields = {}
        for param in inspect.signature(self.fn).parameters.values():
            if param.kind is param.KEYWORD_ONLY:
                required = param.default is param.empty and param.name != "seed"
                fields[param.name] = (hints.get(param.name, Any), required)
            elif param.kind is not param.VAR_KEYWORD:
                raise SweepError(
                    f"scenario {self.name!r}: {self.fn.__qualname__} must take "
                    f"keyword-only parameters, not {param.name!r} (register a "
                    "raw fn(params, seed) with register_scenario instead)"
                )
        return fields

    @functools.cached_property
    def open(self) -> bool:
        """True when a ``**params`` catch-all takes unknown keys."""
        params = inspect.signature(self.fn).parameters.values()
        return any(param.kind is param.VAR_KEYWORD for param in params)

    def _error(self, key: str, problem: str) -> ConfigError:
        return ConfigError(f"scenario {self.name!r}: param {key!r}: {problem}")

    def bind(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The point function's keywords for ``params``, or ConfigError."""
        kwargs: Dict[str, Any] = {}
        for key, value in params.items():
            field = self.fields.get(key)
            if field is None:
                if not self.open:
                    known = ", ".join(sorted(self.fields))
                    raise self._error(key, f"unknown (accepted: {known})")
                kwargs[key] = value
            elif not (key == "seed" and value is None):
                try:
                    kwargs[key] = _checker(field[0])(value)
                except ConfigError as exc:
                    raise self._error(key, str(exc)) from None
        for key, (_, required) in self.fields.items():
            if required and key not in kwargs:
                raise self._error(key, "missing (required)")
        return kwargs

    def __call__(self, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
        kwargs = self.bind(params)
        if "seed" in self.fields:
            kwargs.setdefault("seed", seed)
        return _fold(self.fn(**kwargs))


def register_scenario(name: str, fn: ScenarioFn) -> ScenarioFn:
    """Register a raw ``fn(params, seed)`` under ``name`` (last wins).

    No params validation: ``fn`` receives the shard's params as given.
    """
    if not name:
        raise SweepError("scenario name must be non-empty")
    _SCENARIOS[name] = fn
    return fn


def scenario(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare a keyword-only point function as scenario ``name``.

    Returns the function unchanged, so it stays directly callable.

    >>> @scenario("my_point")
    ... def my_point(*, x: int, seed: int = 0):
    ...     return {"value": x * 2}
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        bound = Scenario(name, fn)
        bound.fields  # reject a non-keyword signature at declaration
        register_scenario(name, bound)
        return fn

    return decorate


def _find_scenario(name: str) -> Optional[ScenarioFn]:
    fn = _SCENARIOS.get(name)
    if fn is None and name in BUILTINS:
        fn = register_scenario(name, Scenario(name, BUILTINS[name]))
    return fn


def get_scenario(name: str) -> ScenarioFn:
    """Resolve a scenario name, or raise a SweepError listing the known."""
    fn = _find_scenario(name)
    if fn is None:
        raise SweepError(
            f"unknown scenario {name!r}; known: {', '.join(list_scenarios())}"
        )
    return fn


def check_points(name: str, points: Iterable[Dict[str, Any]]) -> None:
    """Bind each params dict in ``points`` to scenario ``name``.

    Raises the binder's ConfigError for the first point it rejects.
    Raw scenarios, and scenarios this process cannot resolve yet (they
    live behind ``ExperimentSpec.imports``), are left to the shard.
    """
    fn = _find_scenario(name)
    if isinstance(fn, Scenario):
        for params in points:
            fn.bind(params)


def list_scenarios() -> List[str]:
    """Sorted names of every registered scenario (built-ins included)."""
    return sorted(set(_SCENARIOS) | set(BUILTINS))
