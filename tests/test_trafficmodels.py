"""Traffic pattern library + declarative TrafficModelSpec.

Covers the pattern classes (BurstTrain, Periodic, Composite,
MarkovOnOff) at the gap-sequence level, the spec registry's JSON
round-trip and fingerprint stability for *every* registered kind, the
RNG unification (``stream=``/``seed=``), the
engine's initial-gap handling, and packet|burst datapath bit-identity
for the new schedules. The hypothesis property pins the Composite
mean-load identity: the combinator's long-run load equals the
time-share-weighted sum of its components' loads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw import connect
from repro.osnt import OSNT
from repro.osnt.generator.schedule import ConstantBitRate, ConstantGap, PoissonGaps
from repro.osnt.generator.trafficmodels import (
    BurstTrain,
    Composite,
    CompositeStage,
    MarkovOnOff,
    Periodic,
)
from repro.osnt.generator.trafficspec import (
    TRAFFIC_MODELS,
    TrafficModelSpec,
    build_traffic,
    traffic_model,
)
from repro.sim import RandomStreams, Simulator
from repro.testbed.workloads import udp_template
from repro.units import TEN_GBPS, frame_wire_bytes, us, wire_time_ps

from .test_datapath_equivalence import _assert_equivalent, _osnt_state

#: One representative parameter set per registered kind — the
#: round-trip tests iterate the registry, so adding a kind without an
#: example here fails loudly.
EXAMPLES = {
    "line_rate": {"rate": "9.5Gbps"},
    "cbr": {"rate": "4Gbps"},
    "constant_gap": {"gap": "2us"},
    "poisson": {"mean_gap": "1us"},
    "bursts": {"burst_len": 8, "idle_gap": "10us"},
    "explicit_gaps": {"gaps": ["1us", 2000, "3us"]},
    "markov_onoff": {"mean_on": "5us", "mean_off": "10us", "peak": "8Gbps"},
    "burst_train": {"frames_per_burst": 32, "inter_burst_gap": "40us"},
    "periodic": {"on": "10us", "off": "30us", "phase": "15us"},
    "composite": {
        "mode": "interleave",
        "stages": [
            {"model": "cbr", "params": {"rate": "2Gbps"}, "frames": 3},
            {
                "model": "burst_train",
                "params": {"frames_per_burst": 4, "inter_burst_gap": "8us"},
            },
        ],
    },
}

WIRE_128 = wire_time_ps(frame_wire_bytes(128), TEN_GBPS)


def _timeline(schedule, n=64, frame_len=128):
    schedule.reset()
    start = schedule.initial_gap()
    return [start] + [schedule.gap_after(frame_len) for _ in range(n)]


# -- the declarative spec -----------------------------------------------


class TestTrafficModelSpec:
    def test_examples_cover_registry(self):
        assert set(EXAMPLES) == set(TRAFFIC_MODELS)

    @pytest.mark.parametrize("kind", sorted(TRAFFIC_MODELS))
    def test_json_round_trip_and_fingerprint(self, kind):
        spec = TrafficModelSpec(kind, EXAMPLES[kind])
        again = TrafficModelSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        # Pretty-printing and dict round-trips hash identically.
        assert TrafficModelSpec.from_json(spec.to_json(indent=2)) == spec
        assert TrafficModelSpec.from_dict(spec.to_dict()).fingerprint() == (
            spec.fingerprint()
        )

    @pytest.mark.parametrize("kind", sorted(TRAFFIC_MODELS))
    def test_every_kind_builds_and_paces(self, kind):
        schedule = TrafficModelSpec(kind, EXAMPLES[kind]).build(seed=7)
        for gap in _timeline(schedule, n=32)[1:]:
            assert isinstance(gap, int)
            assert gap >= 0  # poisson draws may round to 0 (FIFO absorbs)

    @pytest.mark.parametrize("kind", sorted(TRAFFIC_MODELS))
    def test_same_fingerprint_same_timeline(self, kind):
        """Equal spec + equal seed → bit-identical gap sequences."""
        spec_a = TrafficModelSpec(kind, EXAMPLES[kind])
        spec_b = TrafficModelSpec.from_json(spec_a.to_json())
        assert spec_a.fingerprint() == spec_b.fingerprint()
        assert _timeline(spec_a.build(seed=3)) == _timeline(spec_b.build(seed=3))

    def test_fingerprint_tracks_content(self):
        base = TrafficModelSpec("cbr", {"rate": "4Gbps"})
        assert base.fingerprint() != TrafficModelSpec(
            "cbr", {"rate": "5Gbps"}
        ).fingerprint()
        assert base.fingerprint() != TrafficModelSpec(
            "cbr", {"rate": "4Gbps"}, name="other"
        ).fingerprint()

    def test_from_any_coercions(self):
        assert TrafficModelSpec.from_any(None) is None
        spec = TrafficModelSpec("line_rate")
        assert TrafficModelSpec.from_any(spec) is spec
        assert TrafficModelSpec.from_any({"model": "line_rate"}) == spec
        assert TrafficModelSpec.from_any('{"model": "line_rate"}') == spec
        assert TrafficModelSpec.from_any("line_rate") == spec
        with pytest.raises(ConfigError):
            TrafficModelSpec.from_any(42)

    def test_unknown_fields_and_kinds_rejected(self):
        with pytest.raises(ConfigError, match="unknown traffic spec field"):
            TrafficModelSpec.from_dict({"model": "cbr", "oops": 1})
        with pytest.raises(ConfigError, match="unknown traffic model kind"):
            TrafficModelSpec("warp_drive").build()
        with pytest.raises(ConfigError, match="unknown parameter"):
            TrafficModelSpec("cbr", {"rate": "1Gbps", "bogus": 2}).build()
        with pytest.raises(ConfigError, match="needs parameter"):
            TrafficModelSpec("cbr").build()

    def test_duplicate_kind_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            traffic_model("cbr")(lambda params, ctx: None)

    def test_build_traffic_passthrough_and_default(self):
        schedule = ConstantGap(1000)
        assert build_traffic(schedule) is schedule
        assert build_traffic(None) is None
        built = build_traffic(None, default={"model": "line_rate"})
        assert built.gap_after(128) == WIRE_128

    def test_streams_pin_stochastic_draws(self):
        """Device streams and a bare seed derive the same sub-stream."""
        streams = RandomStreams(11)
        via_streams = TrafficModelSpec("poisson", {"mean_gap": "1us"}).build(
            streams=streams, name="gen0"
        )
        via_seed = TrafficModelSpec("poisson", {"mean_gap": "1us"}).build(
            seed=11, name="gen0"
        )
        assert _timeline(via_streams) == _timeline(via_seed)


# -- the pattern classes ------------------------------------------------


class TestBurstTrain:
    def test_exact_gap_sequence(self):
        train = BurstTrain(frames_per_burst=3, inter_burst_gap_ps=5_000)
        gaps = [train.gap_after(128) for _ in range(7)]
        assert gaps == [
            WIRE_128, WIRE_128, WIRE_128 + 5_000,
            WIRE_128, WIRE_128, WIRE_128 + 5_000,
            WIRE_128,
        ]

    def test_train_profile_and_mean_load(self):
        train = BurstTrain(frames_per_burst=4, inter_burst_gap_ps=10_000)
        n, intra, period = train.train_profile(128)
        assert (n, intra) == (4, WIRE_128)
        assert period == 4 * WIRE_128 + 10_000
        assert train.expected_gap_ps(128) == pytest.approx(period / 4)
        assert train.mean_load(128) == pytest.approx(WIRE_128 / (period / 4))

    def test_ramp_envelope(self):
        """ramp_bursts grows burst lengths linearly and disables the
        closed-form profile (the ramp is not exactly periodic)."""
        train = BurstTrain(
            frames_per_burst=8, inter_burst_gap_ps=1_000, ramp_bursts=3
        )
        assert train.train_profile(128) is None
        lengths = []
        for burst in range(5):
            lengths.append(train._burst_len(burst))
        assert lengths == [2, 4, 6, 8, 8]

    def test_validation(self):
        with pytest.raises(ConfigError):
            BurstTrain(0, 1000)
        with pytest.raises(ConfigError):
            BurstTrain(4, -1)
        with pytest.raises(ConfigError):
            BurstTrain(4, 1000, peak_bps=2 * TEN_GBPS)


class TestPeriodic:
    def test_window_shape(self):
        on, off = 10 * WIRE_128, 5_000
        square = Periodic(on_ps=on, off_ps=off)
        gaps = [square.gap_after(128) for _ in range(10)]
        # 10 starts fit in the ON window; the 10th gap jumps the OFF gap.
        assert gaps[:9] == [WIRE_128] * 9
        assert gaps[9] == on + off - 9 * WIRE_128
        assert square.frames_per_window(128) == 10

    def test_phase_in_off_window_delays_start(self):
        square = Periodic(on_ps=1_000, off_ps=9_000, phase_ps=4_000)
        assert square.initial_gap() == 6_000  # wait for the next ON edge
        assert square.train_profile(128) is not None

    def test_phase_mid_on_window_disables_profile(self):
        square = Periodic(on_ps=10 * WIRE_128, off_ps=5_000, phase_ps=WIRE_128)
        assert square.initial_gap() == 0
        assert square.train_profile(128) is None  # first window truncated

    def test_validation(self):
        with pytest.raises(ConfigError):
            Periodic(0, 100)
        with pytest.raises(ConfigError):
            Periodic(100, -1)
        with pytest.raises(ConfigError):
            Periodic(100, 100, phase_ps=200)


class TestMarkovOnOff:
    def test_gaps_are_integer_picoseconds(self):
        """Draws are quantized at draw time: no float residue can
        accumulate across bursts (the historical gap_after bug)."""
        model = MarkovOnOff(50_000, 100_000, seed=5)
        for _ in range(500):
            gap = model.gap_after(128)
            assert isinstance(gap, int)
        assert isinstance(model._on_budget_ps, int)

    def test_legacy_default_unchanged(self):
        """No stream/seed → the historical Random(0) timeline."""
        import random

        legacy = MarkovOnOff(50_000, 100_000, stream=random.Random(0))
        assert _timeline(MarkovOnOff(50_000, 100_000)) == _timeline(legacy)


class TestComposite:
    def test_sequence_blocks(self):
        # Gaps above the 128B wire-time floor so ConstantGap passes
        # them through verbatim.
        fast, slow = ConstantGap(200_000), ConstantGap(900_000)
        combo = Composite(
            [CompositeStage(fast, frames=2), CompositeStage(slow, frames=1)]
        )
        gaps = [combo.gap_after(128) for _ in range(6)]
        assert gaps == [200_000, 200_000, 900_000] * 2

    def test_interleave_is_smooth(self):
        a, b = ConstantGap(200_000), ConstantGap(900_000)
        combo = Composite(
            [CompositeStage(a, frames=3), CompositeStage(b, frames=1)],
            mode="interleave",
        )
        gaps = [combo.gap_after(128) for _ in range(8)]
        # Smooth WRR: 3:1 arrives as AABA AABA, not AAAB blocks.
        assert gaps == [200_000, 200_000, 900_000, 200_000] * 2

    def test_rate_scale_divides_gaps(self):
        combo = Composite([CompositeStage(ConstantGap(1_000_000), rate_scale=4.0)])
        assert combo.gap_after(128) == 250_000

    def test_reset_restores_the_exact_timeline(self):
        spec = TrafficModelSpec("composite", EXAMPLES["composite"])
        schedule = spec.build(seed=2)
        first = _timeline(schedule)
        assert _timeline(schedule) == first

    def test_validation(self):
        with pytest.raises(ConfigError):
            Composite([])
        with pytest.raises(ConfigError):
            Composite([ConstantGap(1_000)], mode="shuffle")
        with pytest.raises(ConfigError):
            CompositeStage(ConstantGap(1_000), frames=0)
        with pytest.raises(ConfigError):
            CompositeStage("not a schedule")

    @settings(max_examples=60, deadline=None)
    @given(
        stages=st.lists(
            st.tuples(
                st.sampled_from(["cbr", "burst_train", "periodic"]),
                st.integers(min_value=1, max_value=5),  # frames
                st.sampled_from([1.0, 2.0, 0.5]),  # rate_scale
                st.integers(min_value=1, max_value=40),  # shape knob
            ),
            min_size=1,
            max_size=4,
        ),
        mode=st.sampled_from(["sequence", "interleave"]),
        frame_len=st.sampled_from([64, 128, 512, 1518]),
    )
    def test_mean_load_is_weighted_component_sum(self, stages, mode, frame_len):
        """The combinator's long-run load equals the time-share-weighted
        sum of its components' loads — for any stage mix and envelope."""
        wire = wire_time_ps(frame_wire_bytes(frame_len), TEN_GBPS)
        built = []
        for kind, frames, scale, knob in stages:
            if kind == "cbr":
                child = ConstantBitRate((0.2 + 0.02 * knob) * TEN_GBPS)
            elif kind == "burst_train":
                child = BurstTrain(knob, inter_burst_gap_ps=knob * 1_000)
            else:
                child = Periodic(on_ps=knob * wire, off_ps=knob * 500)
            built.append(CompositeStage(child, frames=frames, rate_scale=scale))
        combo = Composite(built, mode=mode)
        # Time share of stage i ∝ frames_i × (its scaled expected gap).
        shares = [
            st_.frames * st_.schedule.expected_gap_ps(frame_len) / st_.rate_scale
            for st_ in built
        ]
        total = sum(shares)
        weighted = sum(
            (share / total) * (wire / (share / st_.frames))
            for share, st_ in zip(shares, built)
        )
        assert combo.mean_load(frame_len) == pytest.approx(weighted, rel=1e-9)
        assert combo.mean_load(frame_len) > 0

    def test_mean_load_none_when_a_child_is_unknowable(self):
        class Opaque(ConstantGap):
            def expected_gap_ps(self, frame_len):
                return None

        combo = Composite([CompositeStage(Opaque(1_000))])
        assert combo.expected_gap_ps(128) is None
        assert combo.mean_load(128) is None


# -- API + engine integration -------------------------------------------


class TestGeneratorIntegration:
    def _run(self, configure, duration=us(200)):
        sim = Simulator()
        tester = OSNT(sim, root_seed=9)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(udp_template(128))
        configure(generator)
        generator.for_duration(duration)
        generator.start()
        sim.run()
        return generator, _osnt_state(sim, tester)

    def test_use_model_accepts_json(self):
        spec = '{"model": "burst_train", "params": {"frames_per_burst": 4, "inter_burst_gap": "8us"}}'
        generator, state = self._run(lambda g: g.use_model(spec))
        assert generator.packets_sent > 0
        assert state["p1.rx"][0] == generator.packets_sent

    def test_fluent_burst_train_matches_spec(self):
        _, fluent = self._run(lambda g: g.burst_train(4, "8us"))
        _, declarative = self._run(
            lambda g: g.use_model(
                {
                    "model": "burst_train",
                    "params": {"frames_per_burst": 4, "inter_burst_gap": "8us"},
                }
            )
        )
        assert fluent == declarative

    def test_periodic_phase_delays_first_frame(self):
        """A phase inside the OFF window must push the first TX to the
        next ON edge — the engine honors Schedule.initial_gap()."""
        _, base = self._run(lambda g: g.periodic("1us", "9us"))
        _, shifted = self._run(lambda g: g.periodic("1us", "9us", phase="4us"))
        first = lambda state: state["p0.tx"][7]  # first_activity_ps
        assert first(shifted) - first(base) == 6_000_000  # the next ON edge

    def test_stochastic_models_pinned_by_device_seed(self):
        results = [
            self._run(lambda g: g.use_model(
                {"model": "markov_onoff",
                 "params": {"mean_on": "3us", "mean_off": "6us"}}
            ))[1]
            for _ in range(2)
        ]
        assert results[0] == results[1]


# -- datapath bit-identity ----------------------------------------------


class TestDatapathEquivalence:
    """The new schedules through REPRO_DATAPATH=packet|burst."""

    def _loopback(self, configure):
        sim = Simulator()
        tester = OSNT(sim, root_seed=4)
        connect(tester.port(0), tester.port(1))
        generator = tester.generator(0)
        generator.load_template(udp_template(128))
        configure(generator)
        generator.for_duration(us(300))
        generator.start()
        sim.run()
        return _osnt_state(sim, tester)

    def test_burst_train_closed_form_window(self, monkeypatch):
        state = _assert_equivalent(
            lambda: self._loopback(lambda g: g.burst_train(8, "5us")),
            monkeypatch,
        )
        assert state["g0.stats"][0] > 0

    def test_burst_train_ramp_falls_back(self, monkeypatch):
        _assert_equivalent(
            lambda: self._loopback(lambda g: g.burst_train(8, "5us", ramp_bursts=3)),
            monkeypatch,
        )

    def test_periodic_square_wave(self, monkeypatch):
        _assert_equivalent(
            lambda: self._loopback(lambda g: g.periodic("10us", "15us")),
            monkeypatch,
        )

    def test_periodic_with_off_phase(self, monkeypatch):
        state = _assert_equivalent(
            lambda: self._loopback(
                lambda g: g.periodic("10us", "15us", phase="12us")
            ),
            monkeypatch,
        )
        assert state["g0.stats"][0] > 0

    def test_composite_falls_back_per_packet(self, monkeypatch):
        spec = TrafficModelSpec("composite", EXAMPLES["composite"])
        _assert_equivalent(
            lambda: self._loopback(lambda g: g.use_model(spec)),
            monkeypatch,
        )

    def test_markov_onoff_stream_draws(self, monkeypatch):
        spec = {"model": "markov_onoff", "params": {"mean_on": "4us", "mean_off": "8us"}}
        _assert_equivalent(
            lambda: self._loopback(lambda g: g.use_model(spec)),
            monkeypatch,
        )
