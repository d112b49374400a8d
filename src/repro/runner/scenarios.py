"""Operational scenarios for CI smoke sweeps and the runner's own tests.

Listed in :data:`repro.runner.registry.BUILTINS` like the measurement
scenarios, which live next to their testbeds.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict


def echo(*, seed: int, **params: Any) -> Dict[str, Any]:
    """Return the shard's params and seed — smoke tests and examples.

    The one scenario that takes any params (``**params``); ``seed``
    honours the ``params["seed"]`` pin like every other scenario.
    """
    return {"params": params, "seed": seed}


def sleep(*, duration_s: float = 0.1, seed: int = 0) -> Dict[str, Any]:
    """Sleep ``duration_s`` of wall-clock time — timeout-path testing."""
    time.sleep(duration_s)
    return {"slept_s": float(duration_s), "seed": seed}


def flaky_marker(*, marker: str, seed: int = 0) -> Dict[str, Any]:
    """Fail until the ``marker`` file exists (created on first try).

    Models a transient fault: the first attempt plants the marker file
    and raises; the retry finds it and succeeds. Works across worker
    processes because the state lives on the filesystem.
    """
    if os.path.exists(marker):
        return {"recovered": True, "seed": seed}
    with open(marker, "w") as handle:
        handle.write("attempted\n")
    raise RuntimeError(f"transient failure (marker {marker} planted)")
