"""Traffic pattern library for the generator.

Real traffic is bursty at every timescale; testers ship source models
beyond CBR so DUT buffering is exercised realistically.  This module
holds the pattern library:

* :class:`MarkovOnOff` — the classic two-state Markov-modulated on/off
  source (exponential ON bursts pacing at a peak rate, exponential OFF
  silences).
* :class:`BurstTrain` — P4TG-style periodic burst trains: N frames
  back-to-back at a peak rate, separated by an *exact* inter-burst gap
  in picoseconds, with an optional ramp envelope.
* :class:`Periodic` — deterministic on/off squares with a phase offset
  so multi-port patterns can interleave or deliberately collide.
* :class:`Composite` — sequences or interleaves child patterns with
  per-pattern rate envelopes.

All gaps are integer picoseconds at the instant they are drawn, so a
timeline is exactly reproducible across platforms.  Every model here is
also constructible declaratively through
:class:`~repro.osnt.generator.trafficspec.TrafficModelSpec`.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple, Union

from ...errors import ConfigError
from ...units import TEN_GBPS, frame_wire_bytes, wire_time_ps
from .schedule import Schedule, _resolve_rng


class MarkovOnOff(Schedule):
    """Exponential on/off source, pacing at ``peak_bps`` while ON."""

    def __init__(
        self,
        mean_on_ps: float,
        mean_off_ps: float,
        peak_bps: float = TEN_GBPS,
        line_rate_bps: float = TEN_GBPS,
        *,
        stream: Optional[random.Random] = None,
        seed: Optional[int] = None,
    ) -> None:
        if mean_on_ps <= 0 or mean_off_ps <= 0:
            raise ConfigError("on/off period means must be positive")
        if peak_bps <= 0 or peak_bps > line_rate_bps:
            raise ConfigError("peak rate must be in (0, line rate]")
        self.mean_on_ps = mean_on_ps
        self.mean_off_ps = mean_off_ps
        self.peak_bps = peak_bps
        self.line_rate_bps = line_rate_bps
        self._rng = _resolve_rng(stream, seed, "markov_onoff")
        self._on_budget_ps = 0

    @property
    def duty_cycle(self) -> float:
        return self.mean_on_ps / (self.mean_on_ps + self.mean_off_ps)

    @property
    def mean_load(self) -> float:
        """Long-run offered load as a fraction of line rate."""
        return self.duty_cycle * self.peak_bps / self.line_rate_bps

    def gap_after(self, frame_len: int) -> int:
        on_gap = wire_time_ps(frame_wire_bytes(frame_len), self.peak_bps)
        if self._on_budget_ps >= on_gap:
            # Still inside the burst.
            self._on_budget_ps -= on_gap
            return on_gap
        # Burst over: idle for an exponential OFF period, then draw the
        # next burst's length.  Both draws are quantized to integer ps
        # immediately so no float residue accumulates across bursts.
        off_gap = round(self._rng.expovariate(1.0 / self.mean_off_ps))
        self._on_budget_ps = round(self._rng.expovariate(1.0 / self.mean_on_ps))
        return on_gap + off_gap

    def reset(self) -> None:
        self._on_budget_ps = 0

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        on_gap = wire_time_ps(frame_wire_bytes(frame_len), self.peak_bps)
        return on_gap / self.duty_cycle


class BurstTrain(Schedule):
    """Periodic burst trains with an exact inter-burst gap.

    Each burst is ``frames_per_burst`` frames paced back-to-back at
    ``peak_bps``; bursts repeat with ``inter_burst_gap_ps`` of idle
    between the last frame's start-to-start slot and the next burst.
    The first ``ramp_bursts`` bursts grow linearly from ~1 frame up to
    the full burst length — a ramp envelope that lets a DUT's queues
    warm up instead of being hit with the full train instantly.
    """

    def __init__(
        self,
        frames_per_burst: int,
        inter_burst_gap_ps: int,
        peak_bps: float = TEN_GBPS,
        line_rate_bps: float = TEN_GBPS,
        ramp_bursts: int = 0,
    ) -> None:
        if frames_per_burst < 1:
            raise ConfigError("frames_per_burst must be >= 1")
        if inter_burst_gap_ps < 0:
            raise ConfigError("inter-burst gap must be >= 0")
        if peak_bps <= 0 or peak_bps > line_rate_bps:
            raise ConfigError("peak rate must be in (0, line rate]")
        if ramp_bursts < 0:
            raise ConfigError("ramp_bursts must be >= 0")
        self.frames_per_burst = frames_per_burst
        self.inter_burst_gap_ps = inter_burst_gap_ps
        self.peak_bps = peak_bps
        self.line_rate_bps = line_rate_bps
        self.ramp_bursts = ramp_bursts
        self._pos = 0
        self._burst = 0

    def _burst_len(self, burst: int) -> int:
        if burst < self.ramp_bursts:
            return max(1, self.frames_per_burst * (burst + 1) // (self.ramp_bursts + 1))
        return self.frames_per_burst

    def intra_gap_ps(self, frame_len: int) -> int:
        """Start-to-start spacing inside a burst (wire time at peak)."""
        return wire_time_ps(frame_wire_bytes(frame_len), self.peak_bps)

    def period_ps(self, frame_len: int) -> int:
        """Steady-state burst period (full-length bursts)."""
        intra = self.intra_gap_ps(frame_len)
        return self.frames_per_burst * intra + self.inter_burst_gap_ps

    def gap_after(self, frame_len: int) -> int:
        intra = self.intra_gap_ps(frame_len)
        self._pos += 1
        if self._pos >= self._burst_len(self._burst):
            self._pos = 0
            self._burst += 1
            return intra + self.inter_burst_gap_ps
        return intra

    def reset(self) -> None:
        self._pos = 0
        self._burst = 0

    def train_profile(self, frame_len: int) -> Optional[Tuple[int, int, int]]:
        if self.ramp_bursts:
            return None  # ramped trains are not exactly periodic
        intra = self.intra_gap_ps(frame_len)
        return (self.frames_per_burst, intra, self.period_ps(frame_len))

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return (
            self.intra_gap_ps(frame_len)
            + self.inter_burst_gap_ps / self.frames_per_burst
        )

    def mean_load(self, frame_len: int) -> float:
        """Steady-state offered load as a fraction of line rate."""
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return wire / self.expected_gap_ps(frame_len)


class Periodic(Schedule):
    """Deterministic on/off square wave with a phase offset.

    While ON, frames are paced at ``peak_bps``; while OFF the port is
    silent.  ``phase_ps`` shifts the whole pattern within its period so
    patterns on different ports can be interleaved (staggered phases)
    or made to collide (same phase) at a shared egress.
    """

    def __init__(
        self,
        on_ps: int,
        off_ps: int,
        peak_bps: float = TEN_GBPS,
        line_rate_bps: float = TEN_GBPS,
        phase_ps: int = 0,
    ) -> None:
        if on_ps <= 0:
            raise ConfigError("on period must be positive")
        if off_ps < 0:
            raise ConfigError("off period must be >= 0")
        if peak_bps <= 0 or peak_bps > line_rate_bps:
            raise ConfigError("peak rate must be in (0, line rate]")
        self.on_ps = int(on_ps)
        self.off_ps = int(off_ps)
        self.peak_bps = peak_bps
        self.line_rate_bps = line_rate_bps
        self.period_ps = self.on_ps + self.off_ps
        if not 0 <= phase_ps < self.period_ps:
            raise ConfigError(
                f"phase must be in [0, {self.period_ps}) ps, got {phase_ps}"
            )
        self.phase_ps = int(phase_ps)
        self._pos = self._initial_pos()

    def _initial_pos(self) -> int:
        # Position of the first frame's start within the period.  A
        # phase inside the ON window starts mid-window; a phase in the
        # OFF window waits (via initial_gap) for the next ON edge.
        return self.phase_ps if self.phase_ps < self.on_ps else 0

    def initial_gap(self) -> int:
        if self.phase_ps < self.on_ps:
            return 0
        return self.period_ps - self.phase_ps

    def intra_gap_ps(self, frame_len: int) -> int:
        return wire_time_ps(frame_wire_bytes(frame_len), self.peak_bps)

    def frames_per_window(self, frame_len: int) -> int:
        """Frame starts inside one full ON window."""
        return (self.on_ps - 1) // self.intra_gap_ps(frame_len) + 1

    def gap_after(self, frame_len: int) -> int:
        intra = self.intra_gap_ps(frame_len)
        nxt = self._pos + intra
        if nxt < self.on_ps:
            self._pos = nxt
            return intra
        gap = self.period_ps - self._pos
        self._pos = 0
        return gap

    def reset(self) -> None:
        self._pos = self._initial_pos()

    def train_profile(self, frame_len: int) -> Optional[Tuple[int, int, int]]:
        if 0 < self.phase_ps < self.on_ps:
            return None  # first ON window is truncated mid-burst
        intra = self.intra_gap_ps(frame_len)
        return (self.frames_per_window(frame_len), intra, self.period_ps)

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        return self.period_ps / self.frames_per_window(frame_len)

    def mean_load(self, frame_len: int) -> float:
        """Steady-state offered load as a fraction of line rate."""
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return wire / self.expected_gap_ps(frame_len)


class CompositeStage:
    """One component of a :class:`Composite` pattern.

    ``frames`` is the stage's block length in sequence mode and its
    weight in interleave mode.  ``rate_scale`` divides every gap the
    child draws (scale 2.0 = twice as fast), a per-pattern rate
    envelope applied outside the child so the child's own RNG stream is
    untouched.
    """

    def __init__(
        self,
        schedule: Schedule,
        frames: int = 1,
        rate_scale: float = 1.0,
    ) -> None:
        if not isinstance(schedule, Schedule):
            raise ConfigError(f"stage schedule must be a Schedule, got {schedule!r}")
        if frames < 1:
            raise ConfigError("stage frames must be >= 1")
        if rate_scale <= 0:
            raise ConfigError("stage rate_scale must be positive")
        self.schedule = schedule
        self.frames = int(frames)
        self.rate_scale = float(rate_scale)

    def scaled_gap(self, gap: int) -> int:
        if self.rate_scale == 1.0:
            return gap
        return max(1, round(gap / self.rate_scale))


StageLike = Union[CompositeStage, Schedule, Tuple]


def _coerce_stage(stage: StageLike) -> CompositeStage:
    if isinstance(stage, CompositeStage):
        return stage
    if isinstance(stage, Schedule):
        return CompositeStage(stage)
    if isinstance(stage, (tuple, list)):
        return CompositeStage(*stage)
    raise ConfigError(f"cannot interpret {stage!r} as a composite stage")


class Composite(Schedule):
    """Sequence or interleave child patterns on one port.

    ``mode="sequence"`` plays stages as consecutive blocks — ``frames``
    frames from stage 0, then stage 1, …, cycling forever.
    ``mode="interleave"`` mixes them frame-by-frame with smooth
    weighted round-robin (weights = ``frames``), so a 3:1 mix really is
    ABABAB-shaped rather than AAAB blocks.
    """

    MODES = ("sequence", "interleave")

    def __init__(
        self,
        stages: Sequence[StageLike],
        mode: str = "sequence",
        line_rate_bps: float = TEN_GBPS,
    ) -> None:
        if not stages:
            raise ConfigError("composite needs at least one stage")
        if mode not in self.MODES:
            raise ConfigError(f"mode must be one of {self.MODES}, got {mode!r}")
        self.stages: List[CompositeStage] = [_coerce_stage(s) for s in stages]
        self.mode = mode
        self.line_rate_bps = line_rate_bps
        self._stage_idx = 0
        self._count = 0
        self._credits = [0] * len(self.stages)
        self.reset()

    def _wrr_pick(self) -> int:
        total = 0
        for i, st in enumerate(self.stages):
            self._credits[i] += st.frames
            total += st.frames
        best = max(range(len(self.stages)), key=lambda i: self._credits[i])
        self._credits[best] -= total
        return best

    def reset(self) -> None:
        for st in self.stages:
            st.schedule.reset()
        self._count = 0
        self._credits = [0] * len(self.stages)
        self._stage_idx = self._wrr_pick() if self.mode == "interleave" else 0

    def initial_gap(self) -> int:
        if self.mode == "sequence":
            return self.stages[0].schedule.initial_gap()
        return 0

    def gap_after(self, frame_len: int) -> int:
        st = self.stages[self._stage_idx]
        gap = st.scaled_gap(st.schedule.gap_after(frame_len))
        if self.mode == "sequence":
            self._count += 1
            if self._count >= st.frames:
                self._count = 0
                self._stage_idx = (self._stage_idx + 1) % len(self.stages)
        else:
            self._stage_idx = self._wrr_pick()
        return gap

    def expected_gap_ps(self, frame_len: int) -> Optional[float]:
        total_frames = 0
        total_time = 0.0
        for st in self.stages:
            child = st.schedule.expected_gap_ps(frame_len)
            if child is None:
                return None
            total_frames += st.frames
            total_time += st.frames * child / st.rate_scale
        return total_time / total_frames

    def mean_load(self, frame_len: int) -> Optional[float]:
        """Long-run offered load as a fraction of line rate.

        By construction this equals the time-share-weighted sum of the
        component loads (the property the hypothesis suite checks).
        """
        gap = self.expected_gap_ps(frame_len)
        if gap is None:
            return None
        wire = wire_time_ps(frame_wire_bytes(frame_len), self.line_rate_bps)
        return wire / gap
