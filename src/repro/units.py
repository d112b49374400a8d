"""Time, size and rate units used throughout the simulator.

Simulated time is an **integer number of picoseconds**. Floating point
would accumulate rounding error over the billions of events in a
line-rate run; integers keep the hardware's 6.25 ns timestamp
quantisation exact (6.25 ns == 6250 ps, an integer).

Rates are expressed in bits per second (plain ints/floats); helpers
convert between rates, byte counts and wire times.
"""

from __future__ import annotations

import math
import re
from typing import NewType

from .errors import ConfigError

# -- time ------------------------------------------------------------------

#: Picoseconds per common unit.
PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_SEC = 1_000_000_000_000


def _finite(value: float, what: str) -> float:
    """Reject inf/NaN before ``round()`` can leak a raw OverflowError."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def ns(value: float) -> int:
    """Convert nanoseconds to integer picoseconds."""
    return round(_finite(value, "time value") * PS_PER_NS)


def us(value: float) -> int:
    """Convert microseconds to integer picoseconds."""
    return round(_finite(value, "time value") * PS_PER_US)


def ms(value: float) -> int:
    """Convert milliseconds to integer picoseconds."""
    return round(_finite(value, "time value") * PS_PER_MS)


def seconds(value: float) -> int:
    """Convert seconds to integer picoseconds."""
    return round(_finite(value, "time value") * PS_PER_SEC)


def to_seconds(ps: int) -> float:
    """Convert integer picoseconds to float seconds (for reporting)."""
    return ps / PS_PER_SEC


def to_ns(ps: int) -> float:
    """Convert integer picoseconds to float nanoseconds (for reporting)."""
    return ps / PS_PER_NS


def to_us(ps: int) -> float:
    """Convert integer picoseconds to float microseconds (for reporting)."""
    return ps / PS_PER_US


_DURATION_RE = re.compile(
    r"""^\s*(?P<num>\d+(?:\.\d+)?)\s*
        (?P<unit>ps|ns|us|µs|ms|s|sec|seconds?)\s*$""",
    re.IGNORECASE | re.VERBOSE,
)

_DURATION_MULTIPLIERS = {
    "ps": 1,
    "ns": PS_PER_NS,
    "us": PS_PER_US,
    "µs": PS_PER_US,
    "ms": PS_PER_MS,
    "s": PS_PER_SEC,
    "sec": PS_PER_SEC,
    "second": PS_PER_SEC,
    "seconds": PS_PER_SEC,
}


def parse_duration(text: str) -> int:
    """Parse a human duration string such as ``"10ms"`` or ``"2.5 us"``.

    Returns integer picoseconds. The unit is required (a bare number is
    ambiguous). Raises :class:`ConfigError` (a ``ValueError``) on bad
    input.
    """
    match = _DURATION_RE.match(text)
    if match is None:
        raise ConfigError(
            f"unparseable duration: {text!r} (expected e.g. '10ms', '2.5us', '1s')"
        )
    multiplier = _DURATION_MULTIPLIERS[match.group("unit").lower()]
    number = _finite(float(match.group("num")), f"duration {text!r}")
    return round(number * multiplier)


def duration_ps(value) -> int:
    """Coerce a duration given as ps (int/float) or a string to int ps.

    The one accepted duration-argument format across the API:
    ``for_duration``, workload builders and :class:`ExperimentSpec`
    params all funnel through here. Strings need a unit (``"10ms"``);
    numbers are taken as picoseconds. Raises :class:`ConfigError` (a
    ``ValueError``) on malformed or negative input.
    """
    if isinstance(value, str):
        return parse_duration(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"duration must be a number of ps or a string, got {value!r}")
    _finite(value, "duration")
    if value < 0:
        raise ConfigError(f"duration must be non-negative, got {value!r}")
    return round(value)


def rate_bps(value) -> float:
    """Coerce a rate given as bits/second (number) or a string to bps.

    The one accepted rate-argument format across the API: ``set_rate``,
    workload builders and :class:`ExperimentSpec` params all funnel
    through here. Raises :class:`ConfigError` (a ``ValueError``) on
    malformed or non-positive input.
    """
    if isinstance(value, str):
        parsed = parse_rate(value)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"rate must be bits/second or a string, got {value!r}")
    else:
        parsed = float(value)
    _finite(parsed, "rate")
    if parsed <= 0:
        raise ConfigError(f"rate must be positive, got {value!r}")
    return parsed


#: Annotation for a scenario parameter holding a duration. The point
#: function receives integer ps; a spec may give a number of ps or a
#: unit string (``"10ms"``), which the scenario binder coerces through
#: :func:`duration_ps`.
Duration = NewType("Duration", int)

#: Annotation for a scenario parameter holding a rate. The point
#: function receives bits/second; a spec may give a number or a unit
#: string (``"9.5Gbps"``), which the scenario binder coerces through
#: :func:`rate_bps`.
Rate = NewType("Rate", float)


# -- rates -----------------------------------------------------------------

KBPS = 1_000
MBPS = 1_000_000
GBPS = 1_000_000_000

#: 10GbE payload data rate (the rate at which frame bytes leave the MAC).
TEN_GBPS = 10 * GBPS

_RATE_RE = re.compile(
    r"""^\s*(?P<num>\d+(?:\.\d+)?)\s*
        (?P<unit>[kmg]?)(?:bps|bit/?s)?\s*$""",
    re.IGNORECASE | re.VERBOSE,
)

_RATE_MULTIPLIERS = {"": 1, "k": KBPS, "m": MBPS, "g": GBPS}


def parse_rate(text: str) -> float:
    """Parse a human rate string such as ``"10Gbps"`` or ``"500 Mbps"``.

    Returns bits per second. Raises :class:`ConfigError` on bad input.
    """
    match = _RATE_RE.match(text)
    if match is None:
        raise ConfigError(f"unparseable rate: {text!r}")
    multiplier = _RATE_MULTIPLIERS[match.group("unit").lower()]
    return float(match.group("num")) * multiplier


def format_rate(bps: float) -> str:
    """Render a bits-per-second value as a human string."""
    for unit, factor in (("Gbps", GBPS), ("Mbps", MBPS), ("Kbps", KBPS)):
        if bps >= factor:
            return f"{bps / factor:.3f} {unit}"
    return f"{bps:.0f} bps"


def wire_time_ps(nbytes: int, rate_bps: float) -> int:
    """Time to serialize ``nbytes`` at ``rate_bps``, in integer ps.

    Rounds to the nearest picosecond (ties to even, matching
    :func:`round`); at 10 Gbps one byte is exactly 800 ps so common
    cases stay exact. For integral rates — every real line rate — the
    division is done in integer arithmetic: ``nbytes * 8 * 1e12``
    overflows a float's 53-bit mantissa beyond ~1 TB transfers, and
    cumulative DMA/MAC completion times must stay exact, not merely
    close.
    """
    if rate_bps <= 0:
        raise ConfigError(f"rate must be positive, got {rate_bps}")
    if isinstance(rate_bps, int):
        rate = rate_bps
    elif isinstance(rate_bps, float) and rate_bps.is_integer():
        rate = int(rate_bps)
    else:
        return round(nbytes * 8 * PS_PER_SEC / rate_bps)
    quotient, remainder = divmod(nbytes * 8 * PS_PER_SEC, rate)
    doubled = remainder * 2
    if doubled > rate or (doubled == rate and quotient & 1):
        quotient += 1
    return quotient


def bytes_per_ps(rate_bps: float) -> float:
    """Bytes transferred per picosecond at the given bit rate."""
    return rate_bps / 8 / PS_PER_SEC


# -- Ethernet framing constants ---------------------------------------------

#: Preamble (7) + start-frame delimiter (1).
ETH_PREAMBLE_BYTES = 8
#: Minimum inter-frame gap on the wire.
ETH_IFG_BYTES = 12
#: Frame check sequence appended by the MAC.
ETH_FCS_BYTES = 4
#: Minimum/maximum Ethernet frame sizes *including* FCS.
ETH_MIN_FRAME = 64
ETH_MAX_FRAME = 1518
#: Per-frame wire overhead beyond the frame bytes themselves.
ETH_OVERHEAD_BYTES = ETH_PREAMBLE_BYTES + ETH_IFG_BYTES


def frame_wire_bytes(frame_len: int) -> int:
    """Bytes occupied on the wire by one frame (frame + preamble + IFG).

    ``frame_len`` includes the FCS (as captured frame lengths do in
    OSNT). Frames below the Ethernet minimum are padded by the MAC.
    """
    return max(frame_len, ETH_MIN_FRAME) + ETH_OVERHEAD_BYTES


def line_rate_pps(frame_len: int, rate_bps: float = TEN_GBPS) -> float:
    """Theoretical maximum packets/second for a frame size at a rate.

    For 64-byte frames at 10 Gbps this is the canonical 14.88 Mpps.
    """
    return rate_bps / (frame_wire_bytes(frame_len) * 8)


def line_rate_goodput_bps(frame_len: int, rate_bps: float = TEN_GBPS) -> float:
    """Theoretical maximum frame-byte throughput (bps) for a frame size."""
    return line_rate_pps(frame_len, rate_bps) * frame_len * 8
