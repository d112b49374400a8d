"""Inter-departure-time (IDT) schedules for the traffic generator.

OSNT's generator replays packets "with a tuneable per-packet
inter-departure time". A schedule answers one question: given the frame
that was just sent, how long until the *start* of the next frame. The
hardware paces frame starts with 6.25 ns granularity; pacing quality is
what experiment E2 compares against a software generator.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence, Tuple

from ...errors import ConfigError
from ...units import TEN_GBPS, frame_wire_bytes, wire_time_ps


def _resolve_rng(
    stream: Optional[random.Random],
    seed: Optional[int],
    name: str,
) -> random.Random:
    """One RNG-resolution policy for every stochastic schedule.

    Priority: an explicit ``stream`` (an already-derived
    :meth:`repro.sim.RandomStreams.stream`), then ``seed=`` (derives
    the per-model stream ``traffic/<name>``), then the historical
    default ``Random(0)``, which keeps seedless constructor calls
    bit-compatible.
    """
    if stream is not None:
        return stream
    if seed is not None:
        from ...sim import RandomStreams

        return RandomStreams(seed).stream(f"traffic/{name}")
    return random.Random(0)


class Schedule:
    """Base class: yields the gap (ps) from one frame start to the next."""

    def gap_after(self, frame_len: int) -> int:
        """Picoseconds from this frame's start to the next frame's start."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the initial state (for replay loops)."""

    def initial_gap(self) -> int:
        """Idle picoseconds before the *first* frame (phase offsets)."""
        return 0

    def train_profile(self, frame_len: int) -> Optional[Tuple[int, int, int]]:
        """``(frames_per_train, intra_gap_ps, train_period_ps)`` or None.

        A non-None profile asserts the whole timeline is exactly
        periodic trains: frame ``i`` starts ``initial_gap`` plus
        ``(i // n) * period + (i % n) * intra`` after the run start.
        The burst datapath uses this for closed-form window advancement;
        schedules that cannot guarantee it (stochastic, ramped,
        composite) return None and are advanced per-frame.
        """
        return None

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        """Long-run mean start-to-start gap, or None if unknown."""
        return None


class LineRate(Schedule):
    """Back-to-back: next frame starts the moment the wire allows."""

    def __init__(self, rate_bps: float = TEN_GBPS) -> None:
        self.rate_bps = rate_bps

    def gap_after(self, frame_len: int) -> int:
        return wire_time_ps(frame_wire_bytes(frame_len), self.rate_bps)

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return float(self.gap_after(frame_len))


class ConstantBitRate(Schedule):
    """Pace frame starts so the *wire* carries ``target_bps`` on average.

    The gap for a frame is its wire time at the target rate; a fractional
    accumulator keeps long-run rate exact despite ps rounding.
    """

    def __init__(self, target_bps: float, line_rate_bps: float = TEN_GBPS) -> None:
        if target_bps <= 0:
            raise ConfigError(f"target rate must be positive, got {target_bps}")
        if target_bps > line_rate_bps:
            raise ConfigError(
                f"target {target_bps} bps exceeds line rate {line_rate_bps} bps"
            )
        self.target_bps = target_bps
        self.line_rate_bps = line_rate_bps
        self._residue = 0.0

    def gap_after(self, frame_len: int) -> int:
        exact = frame_wire_bytes(frame_len) * 8 * 1e12 / self.target_bps + self._residue
        gap = int(exact)
        self._residue = exact - gap
        return gap

    def reset(self) -> None:
        self._residue = 0.0

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return frame_wire_bytes(frame_len) * 8 * 1e12 / self.target_bps


class ConstantGap(Schedule):
    """A fixed start-to-start gap, floored at the frame's wire time."""

    def __init__(self, gap_ps: int, line_rate_bps: float = TEN_GBPS) -> None:
        if gap_ps <= 0:
            raise ConfigError(f"gap must be positive, got {gap_ps}")
        self.gap_ps = gap_ps
        self.line_rate_bps = line_rate_bps

    def gap_after(self, frame_len: int) -> int:
        floor = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return max(self.gap_ps, floor)

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return float(self.gap_after(frame_len))


class PoissonGaps(Schedule):
    """Exponentially distributed gaps with a given mean (ps).

    Gaps shorter than a frame's wire time are allowed: the packet just
    queues briefly in the TX MAC FIFO and leaves back-to-back with its
    predecessor, preserving Poisson *offered* load (mean rate exact).
    With ``clamp_to_wire=True`` short gaps are instead stretched to the
    wire time, trading rate accuracy for a never-queueing stream.
    """

    def __init__(
        self,
        mean_gap_ps: float,
        *,
        line_rate_bps: float = TEN_GBPS,
        clamp_to_wire: bool = False,
        stream: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        if mean_gap_ps <= 0:
            raise ConfigError(f"mean gap must be positive, got {mean_gap_ps}")
        self.mean_gap_ps = mean_gap_ps
        self.line_rate_bps = line_rate_bps
        self.clamp_to_wire = clamp_to_wire
        self._rng = _resolve_rng(stream, seed, "poisson")

    def gap_after(self, frame_len: int) -> int:
        gap = round(self._rng.expovariate(1.0 / self.mean_gap_ps))
        if self.clamp_to_wire:
            floor = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
            return max(gap, floor)
        return gap

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return float(self.mean_gap_ps)


class Bursts(Schedule):
    """Bursts of ``burst_len`` back-to-back frames, then an idle gap."""

    def __init__(
        self,
        burst_len: int,
        idle_gap_ps: int,
        line_rate_bps: float = TEN_GBPS,
    ) -> None:
        if burst_len < 1:
            raise ConfigError("burst length must be >= 1")
        if idle_gap_ps < 0:
            raise ConfigError("idle gap must be >= 0")
        self.burst_len = burst_len
        self.idle_gap_ps = idle_gap_ps
        self.line_rate_bps = line_rate_bps
        self._position = 0

    def gap_after(self, frame_len: int) -> int:
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        self._position += 1
        if self._position % self.burst_len == 0:
            return wire + self.idle_gap_ps
        return wire

    def reset(self) -> None:
        self._position = 0

    def train_profile(self, frame_len: int) -> Optional[Tuple[int, int, int]]:
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return (self.burst_len, wire, self.burst_len * wire + self.idle_gap_ps)

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return wire + self.idle_gap_ps / self.burst_len


class ExplicitGaps(Schedule):
    """Replay a recorded gap sequence (e.g. from a PCAP's timestamps)."""

    def __init__(self, gaps_ps: Sequence[int], line_rate_bps: float = TEN_GBPS) -> None:
        self.gaps_ps = list(gaps_ps)
        self.line_rate_bps = line_rate_bps
        self._iter: Iterator[int] = iter(self.gaps_ps)

    def gap_after(self, frame_len: int) -> int:
        floor = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        try:
            return max(next(self._iter), floor)
        except StopIteration:
            return floor

    def reset(self) -> None:
        self._iter = iter(self.gaps_ps)


def rate_for_load(load_fraction: float, line_rate_bps: float = TEN_GBPS) -> float:
    """Target bps for a fractional offered load (0 < load <= 1)."""
    if not 0 < load_fraction <= 1:
        raise ConfigError(f"load fraction must be in (0, 1], got {load_fraction}")
    return load_fraction * line_rate_bps
