"""Attack-workload scenarios: T1 ``syn_flood_flowmod``, T2 ``incast_burst``.

Point-level behavior (churn really contends with the measured
flow_mods; bursts really pile into the egress FIFO; per-flow RTT rows
carry the p99.9 column), plus the runner-level acceptance criteria:
merged sweep reports bit-identical across worker counts, across
kill-and-resume, and across the packet|burst datapath backends.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.osnt.generator.trafficspec import TrafficModelSpec
from repro.runner import ExperimentSpec, run_spec
from repro.testbed.attacks import incast_burst_point, syn_flood_flowmod_point
from repro.units import ms, us

P_COLUMNS = ("p50", "p90", "p99", "p999")


# -- T1: flow_mod latency under SYN churn -------------------------------


class TestSynFloodPoint:
    def _point(self, **kwargs):
        kwargs.setdefault("n_flows", 64)
        kwargs.setdefault("n_rules", 4)
        kwargs.setdefault("duration", ms(1))
        return syn_flood_flowmod_point(**kwargs)

    def test_churn_contends_with_measured_rules(self):
        row, extras = self._point()
        # The SYNs really miss: every churn frame crosses the table and
        # queues a packet-in job on the firmware the flow_mods need.
        assert row.churn_sent > 0
        assert row.datapath_misses > 0
        assert row.packet_ins_sent > 0
        assert row.firmware_queue_peak > 0
        # All measured rules landed and the data plane confirmed them.
        assert not row.degraded
        assert row.control_latency_ps > 0
        assert len(row.rule_activation_ps) == row.n_rules
        assert all(t > 0 for t in row.rule_activation_ps)
        assert extras == {}

    def test_per_flow_rtt_rows_have_p999(self):
        row, __ = self._point()
        # One row per probed rule port, keyed by UDP destination port.
        assert len(row.flow_rtt_rows) == row.n_rules
        for flow in row.flow_rtt_rows:
            assert isinstance(flow["key"], str)
            for column in P_COLUMNS:
                assert column in flow
        assert row.rtt_p999_us is not None
        assert row.rtt_p999_us >= row.rtt_p50_us > 0

    def test_queue_limit_drops_packet_ins(self):
        limited, __ = self._point(packet_in_queue_limit=8)
        unlimited, __ = self._point(packet_in_queue_limit=None)
        assert limited.packet_ins_dropped > 0
        assert unlimited.packet_ins_dropped == 0
        # Dropped misses are still misses.
        assert limited.datapath_misses > 0

    def test_burstier_churn_piles_up_the_firmware_queue(self):
        """Same average miss rate, arranged as trains instead of smooth
        arrivals → the firmware queue peaks far higher. The load is kept
        below the firmware's service rate so the peak reflects
        burstiness, not saturation (and no queue cap clips it)."""
        smooth, __ = self._point(
            traffic={"model": "cbr", "params": {"rate": "50Mbps"}},
            packet_in_queue_limit=None,
        )
        bursty, __ = self._point(
            traffic={
                "model": "burst_train",
                "params": {"frames_per_burst": 64, "inter_burst_gap": "850us"},
            },
            packet_in_queue_limit=None,
        )
        assert bursty.firmware_queue_peak > 2 * smooth.firmware_queue_peak

    def test_row_reports_traffic_fingerprint(self):
        traffic = {"model": "cbr", "params": {"rate": "2Gbps"}}
        row, __ = self._point(traffic=traffic)
        assert row.traffic == TrafficModelSpec.from_any(traffic).fingerprint()

    def test_observation_does_not_perturb(self):
        plain, __ = self._point()
        observed, __ = self._point(observe=True)
        assert observed == plain

    def test_composes_with_faults(self):
        impairments = [
            {"name": "loss", "model": "link_loss",
             "params": {"rate": 0.02, "burst": 2.0}}
        ]
        row, extras = self._point(impairments=impairments, deadline=ms(50))
        assert "fault_timeline_digest" in extras
        assert row.churn_sent > 0


# -- T2: synchronized incast --------------------------------------------


class TestIncastPoint:
    def _point(self, **kwargs):
        kwargs.setdefault("duration", ms(1))
        return incast_burst_point(**kwargs)

    def test_bursts_fill_the_egress_queue(self):
        row, __ = self._point(senders=3, buffer_bytes=16 * 1024)
        assert row.sent > 0
        assert 0 < row.received <= row.sent
        assert 0 < row.queue_peak_bytes <= 16 * 1024
        assert 0 < row.delivery_fraction <= 1.0

    def test_per_sender_rtt_rows(self):
        row, __ = self._point(senders=3)
        assert len(row.flow_rtt_rows) == 3
        keys = {flow["key"] for flow in row.flow_rtt_rows}
        assert keys == {"10.0.10.1", "10.0.11.1", "10.0.12.1"}
        for flow in row.flow_rtt_rows:
            for column in P_COLUMNS:
                assert column in flow
        assert row.rtt_p999_us is not None

    def test_more_buffer_fewer_drops(self):
        small, __ = self._point(senders=3, buffer_bytes=8 * 1024)
        large, __ = self._point(senders=3, buffer_bytes=256 * 1024)
        assert small.egress_drops >= large.egress_drops
        assert small.delivery_fraction <= large.delivery_fraction

    def test_phase_stagger_flattens_the_queue(self):
        """Identical offered load; staggering the senders' periodic
        phases must lower the shared egress FIFO's peak occupancy."""
        traffic = {"model": "periodic", "params": {"on": "20us", "off": "40us"}}
        synced, __ = self._point(
            senders=3, traffic=traffic, buffer_bytes=256 * 1024
        )
        staggered, __ = self._point(
            senders=3, traffic=traffic, buffer_bytes=256 * 1024,
            phase_step=us(20),
        )
        assert staggered.queue_peak_bytes < synced.queue_peak_bytes
        # Staggered senders start later (their initial phase gap eats
        # into the same duration window) but the load is comparable.
        assert staggered.sent == pytest.approx(synced.sent, rel=0.05)

    def test_sender_count_validated(self):
        with pytest.raises(ConfigError):
            self._point(senders=0)
        with pytest.raises(ConfigError):
            self._point(senders=4)

    def test_observation_does_not_perturb(self):
        plain, __ = self._point(senders=2)
        observed, __ = self._point(senders=2, observe=True)
        assert observed == plain


# -- runner acceptance: sweepable, deterministic, backend-agnostic ------


def incast_spec(**overrides):
    base = dict(
        name="incast-determinism",
        scenario="incast_burst",
        params={"senders": 2, "frame_size": 256, "duration": "500us"},
        axes={
            "traffic": [
                {"model": "cbr", "params": {"rate": "2Gbps"}},
                {
                    "model": "burst_train",
                    "params": {"frames_per_burst": 8, "inter_burst_gap": "20us"},
                },
            ]
        },
        retries=1,
        timeout_s=120.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def syn_flood_spec(**overrides):
    base = dict(
        name="synflood-determinism",
        scenario="syn_flood_flowmod",
        params={"n_flows": 32, "duration": "1ms", "deadline": "50ms"},
        axes={"n_rules": [2, 4]},
        retries=1,
        timeout_s=120.0,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSweepDeterminism:
    def test_incast_merged_identical_at_any_worker_count(self):
        spec = incast_spec()
        inline = run_spec(spec, workers=0).merged_json()
        serial = run_spec(spec, workers=1).merged_json()
        parallel = run_spec(spec, workers=4).merged_json()
        assert inline == serial == parallel
        rows = [shard["result"] for shard in json.loads(inline)["shards"]]
        assert all(row["rtt_p999_us"] is not None for row in rows)
        assert all("delivery_fraction" in row for row in rows)

    def test_syn_flood_merged_identical_at_any_worker_count(self):
        spec = syn_flood_spec()
        inline = run_spec(spec, workers=0).merged_json()
        parallel = run_spec(spec, workers=2).merged_json()
        assert inline == parallel
        rows = [shard["result"] for shard in json.loads(inline)["shards"]]
        assert all(not row["degraded"] for row in rows)
        for row in rows:
            assert len(row["flow_rtt_rows"]) == row["n_rules"]
            assert all("p999" in flow for flow in row["flow_rtt_rows"])

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        spec = incast_spec()
        baseline = run_spec(spec, workers=1).merged_json()
        ckpt = tmp_path / "ckpt"
        partial = run_spec(spec, workers=1, checkpoint_dir=ckpt, max_shards=1)
        assert not partial.complete
        resumed = run_spec(spec, workers=2, checkpoint_dir=ckpt)
        assert resumed.complete
        assert resumed.merged_json() == baseline

    @pytest.mark.parametrize("make_spec", [incast_spec, syn_flood_spec])
    def test_merged_identical_across_datapath_backends(
        self, make_spec, monkeypatch
    ):
        spec = make_spec()
        monkeypatch.setenv("REPRO_DATAPATH", "packet")
        packet = run_spec(spec, workers=0).merged_json()
        monkeypatch.setenv("REPRO_DATAPATH", "burst")
        burst = run_spec(spec, workers=0).merged_json()
        assert packet == burst
