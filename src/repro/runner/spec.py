"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the serializable description of a whole
measurement campaign: *which* scenario to run, the base parameters, the
sweep axes to expand, how many repeats, the root seed, and the
execution policy (per-shard timeout and retry budget). Because a spec
is plain data (constructible from Python, a dict or JSON), it can be
checked into a repo, shipped to a worker pool, checkpointed to disk and
resumed — none of which the old closure-based scenario wiring allowed.

Expansion is deterministic: the cartesian product of the axes (in
declaration order, last axis fastest) times ``repeats`` yields the
shard list, and every shard's seed is derived from the root seed, the
shard index and the shard's own parameters via SHA-256 — so the same
spec produces bit-identical per-shard randomness at any worker count.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import SweepError

#: Spec fields, in serialization order.
_FIELDS = (
    "name",
    "scenario",
    "params",
    "axes",
    "repeats",
    "seed",
    "timeout_s",
    "retries",
    "collect",
    "imports",
)


def canonical_json(value: Any) -> str:
    """The one JSON rendering used for fingerprints and merged reports.

    Sorted keys, no whitespace: byte-identical for equal values, so
    reports can be compared with ``==`` across runs and worker counts.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def shard_seed(root_seed: int, index: int, params: Dict[str, Any], repeat: int) -> int:
    """Derive one shard's seed from the spec seed and the shard identity.

    SHA-256 over ``root_seed / index / repeat / canonical params`` —
    statistically independent across shards, stable across runs and
    independent of execution order or worker count (same scheme as
    :class:`repro.sim.RandomStreams`).
    """
    material = f"{root_seed}/{index}/{repeat}/{canonical_json(params)}"
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Shard:
    """One expanded sweep point: a scenario invocation with its seed."""

    index: int
    params: Dict[str, Any]
    seed: int
    repeat: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "params": self.params,
            "seed": self.seed,
            "repeat": self.repeat,
        }


@dataclass
class ExperimentSpec:
    """A declarative, serializable experiment description.

    * ``name`` — campaign identifier (labels checkpoints and reports).
    * ``scenario`` — registered scenario name (see
      :func:`repro.runner.scenario` and ``osnt-sweep scenarios``).
    * ``params`` — base parameters passed to every shard. Rates and
      durations may be human strings (``"9.5Gbps"``, ``"10ms"``);
      the scenario binder checks and coerces them (see
      :mod:`repro.runner.registry`).
    * ``axes`` — mapping of parameter name to the list of values to
      sweep. The cartesian product (declaration order, last axis
      fastest) defines the shards.
    * ``repeats`` — shards per sweep point; each repeat gets its own
      derived seed.
    * ``seed`` — root seed for deterministic per-shard seed derivation.
    * ``timeout_s`` — wall-clock budget per shard attempt (None = no
      limit; only enforced when running in worker processes).
    * ``retries`` — extra attempts after a failed/hung first attempt.
    * ``collect`` — optional collection plan: list of top-level result
      keys to keep (None keeps the full result).
    * ``imports`` — modules imported in workers before resolving the
      scenario (for scenarios registered outside :mod:`repro`).
    """

    name: str
    scenario: str
    params: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    repeats: int = 1
    seed: int = 0
    timeout_s: Optional[float] = 300.0
    retries: int = 1
    collect: Optional[List[str]] = None
    imports: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("spec needs a non-empty name")
        if not self.scenario:
            raise SweepError("spec needs a scenario name")
        if not isinstance(self.params, dict):
            raise SweepError(f"params must be a dict, got {type(self.params).__name__}")
        if not isinstance(self.axes, dict):
            raise SweepError(f"axes must be a dict, got {type(self.axes).__name__}")
        for axis, values in self.axes.items():
            if not isinstance(values, list) or not values:
                raise SweepError(f"axis {axis!r} must be a non-empty list of values")
        if self.repeats < 1:
            raise SweepError(f"repeats must be >= 1, got {self.repeats}")
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SweepError(f"timeout_s must be positive or None, got {self.timeout_s}")

    # -- expansion ----------------------------------------------------------

    @property
    def shard_count(self) -> int:
        count = self.repeats
        for values in self.axes.values():
            count *= len(values)
        return count

    def expand(self) -> List[Shard]:
        """Expand the axes into the deterministic, ordered shard list.

        Every shard receives a **deep copy** of the base params plus its
        axis assignments — sweep points must never share mutable config
        (a shard that mutates a nested dict would otherwise bleed into
        its siblings; see ``tests/test_runner.py``).
        """
        axis_names = list(self.axes)
        combos = itertools.product(*(self.axes[name] for name in axis_names))
        shards: List[Shard] = []
        index = 0
        for combo in combos:
            for repeat in range(self.repeats):
                params = copy.deepcopy(self.params)
                for axis, value in zip(axis_names, combo):
                    params[axis] = copy.deepcopy(value)
                shards.append(
                    Shard(
                        index=index,
                        params=params,
                        seed=shard_seed(self.seed, index, params, repeat),
                        repeat=repeat,
                    )
                )
                index += 1
        return shards

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {name: copy.deepcopy(getattr(self, name)) for name in _FIELDS}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise SweepError(f"spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(_FIELDS)
        if unknown:
            raise SweepError(f"unknown spec field(s): {', '.join(sorted(unknown))}")
        for required in ("name", "scenario"):
            if required not in data:
                raise SweepError(f"spec is missing required field {required!r}")
        return cls(**copy.deepcopy(data))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=(indent is None))

    @classmethod
    def from_json(cls, document: str) -> "ExperimentSpec":
        try:
            data = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SweepError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Content hash used to guard checkpoint-directory resumes."""
        return hashlib.sha256(canonical_json(self.to_dict()).encode()).hexdigest()[:16]
