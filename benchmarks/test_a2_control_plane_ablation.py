"""A2 (ablation) — control-plane implementation parameters.

The paper's Part II promises to "elaborate on the impact of the control
plane implementation on the network performance". Two ablations over
the switch-firmware knobs DESIGN.md calls out:

* rule-install latency vs the firmware/TCAM delay split, and
* flow_mod latency inflation under packet-in load (shared management
  CPU) plus expiry-scan coarseness.
"""

from conftest import emit, run_once

from repro.analysis import format_table
from repro.devices import SwitchProfile
from repro.oflops import ModuleRunner, OflopsContext
from repro.oflops.modules import ControlInteractionModule, FlowExpiryModule
from repro.testbed import flowmod_latency_point
from repro.units import us

DELAY_SPLITS = [
    ("fast fw / fast table", us(5), us(10)),
    ("fast fw / slow table", us(5), us(200)),
    ("slow fw / fast table", us(100), us(10)),
    ("slow fw / slow table", us(100), us(200)),
]


def test_a2a_delay_split_ablation(benchmark):
    def sweep():
        results = []
        for label, firmware, write in DELAY_SPLITS:
            result = flowmod_latency_point(
                n_rules=16,
                barrier_mode="spec",
                firmware_delay=firmware,
                table_write=write,
            )
            results.append((label, firmware, write, result))
        return results

    results = run_once(benchmark, sweep)
    emit(
        format_table(
            ["firmware profile", "fw us/msg", "write us/rule", "all rules live us", "us per rule"],
            [
                [
                    label,
                    firmware / 1e6,
                    write / 1e6,
                    round(result["data_plane_complete_ps"] / 1e6, 1),
                    round(result["data_plane_complete_ps"] / 1e6 / result["n_rules"], 1),
                ]
                for label, firmware, write, result in results
            ],
            title="A2a: install completion vs firmware/TCAM delay split (16 rules)",
        )
    )
    by_label = {label: result for label, __, __, result in results}
    # Install time is governed by the *slower* stage (pipeline bottleneck):
    fast_fast = by_label["fast fw / fast table"]["data_plane_complete_ps"]
    fast_slow = by_label["fast fw / slow table"]["data_plane_complete_ps"]
    slow_fast = by_label["slow fw / fast table"]["data_plane_complete_ps"]
    slow_slow = by_label["slow fw / slow table"]["data_plane_complete_ps"]
    assert fast_fast < fast_slow
    assert fast_fast < slow_fast
    # Both slow stages together are no faster than either alone.
    assert slow_slow >= max(fast_slow, slow_fast) - us(50)


def test_a2b_packet_in_interference(benchmark):
    def run():
        profile = SwitchProfile(firmware_delay_ps=us(30), table_write_ps=us(20))
        return ModuleRunner(OflopsContext(profile=profile)).run(
            ControlInteractionModule()
        )

    result = run_once(benchmark, run)
    emit(
        format_table(
            ["condition", "install latency us"],
            [
                ["quiet switch", round(result["quiet_install_us"], 1)],
                ["under packet-in storm", round(result["loaded_install_us"], 1)],
            ],
            title=(
                "A2b: rule-install latency vs management-CPU contention "
                f"({result['packet_ins_during_run']} packet-ins in flight)"
            ),
        )
    )
    assert result["inflation"] > 2.0


def test_a2c_expiry_scan_coarseness(benchmark):
    result = run_once(
        benchmark,
        lambda: ModuleRunner().run(FlowExpiryModule(timeouts_s=[1, 2, 3])),
    )
    emit(
        format_table(
            ["configured s", "observed s", "lateness ms"],
            [
                [row["configured_s"], round(row["observed_s"], 3), round(row["lateness_ms"], 1)]
                for row in result["expiries"]
            ],
            title="A2c: hard-timeout expiry vs the firmware's 1 s scan period",
        )
    )
    # Lateness is bounded by the scan period, never negative.
    for row in result["expiries"]:
        assert 0 <= row["lateness_ms"] <= 1_001
