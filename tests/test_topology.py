"""Tests for repro.topology: the declarative topology builder, its
dict/JSON round-trip, fingerprinting, device construction, endpoint
resolution, and the testbed factories built on it."""

import json
import warnings

import pytest

from repro.devices import LegacySwitch, SimpleHost
from repro.errors import TopologyError
from repro.hw.port import DEFAULT_PROPAGATION_PS
from repro.sim import Simulator
from repro.testbed import LegacySwitchTestbed, legacy_testbed, openflow_testbed
from repro.topology import LinkSpec, NODE_KINDS, NodeSpec, Topology
from repro.units import ns, us


def pair_topology():
    return (
        Topology(name="pair")
        .host("h1")
        .host("h2")
        .node("s1", "legacy_switch", ports=2, seed=1)
        .link("h1", "s1:0")
        .link("s1:1", "h2", delay=ns(20), rate="10Gbps")
    )


# -- specs and validation -----------------------------------------------------


class TestSpecs:
    def test_node_kinds_are_closed(self):
        with pytest.raises(TopologyError):
            NodeSpec(name="x", kind="router9000")
        for kind in NODE_KINDS:
            assert NodeSpec(name="x", kind=kind).kind == kind

    def test_node_needs_name(self):
        with pytest.raises(TopologyError):
            NodeSpec(name="", kind="host")

    def test_node_dict_roundtrip(self):
        spec = NodeSpec(name="s1", kind="legacy_switch", params={"ports": 4})
        assert NodeSpec.from_dict(spec.to_dict()) == spec

    def test_node_rejects_unknown_fields(self):
        with pytest.raises(TopologyError):
            NodeSpec.from_dict({"name": "x", "kind": "host", "colour": "red"})

    def test_link_dict_roundtrip(self):
        spec = LinkSpec(a="h1", b="s1:0", delay="20ns", rate="40Gbps")
        again = LinkSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.delay_ps == ns(20)

    def test_link_needs_endpoints(self):
        with pytest.raises(TopologyError):
            LinkSpec(a="h1", b="")

    def test_bad_endpoint_reference(self):
        topo = Topology().host("h1").host("h2").link("h1", "h2:first")
        with pytest.raises(TopologyError):
            topo.build()

    def test_duplicate_node_name(self):
        with pytest.raises(TopologyError):
            Topology().host("h1").host("h1")

    def test_switch_kind_validation(self):
        with pytest.raises(TopologyError):
            Topology().switch("s1", kind="quantum")
        topo = Topology().switch("a").switch("b", kind="openflow")
        assert [n.kind for n in topo.nodes] == ["legacy_switch", "openflow_switch"]


# -- serialization ------------------------------------------------------------


class TestSerialization:
    def test_dict_roundtrip(self):
        topo = pair_topology()
        again = Topology.from_dict(topo.to_dict())
        assert again.to_dict() == topo.to_dict()
        assert again.fingerprint() == topo.fingerprint()

    def test_json_roundtrip(self):
        topo = pair_topology()
        again = Topology.from_json(topo.to_json(indent=2))
        assert again.fingerprint() == topo.fingerprint()

    def test_from_any(self):
        topo = pair_topology()
        assert Topology.from_any(topo) is topo
        assert Topology.from_any(topo.to_dict()).fingerprint() == topo.fingerprint()
        assert Topology.from_any(topo.to_json()).fingerprint() == topo.fingerprint()
        assert Topology.from_any(None).nodes == []
        with pytest.raises(TopologyError):
            Topology.from_any(42)

    def test_from_json_rejects_garbage(self):
        with pytest.raises(TopologyError):
            Topology.from_json("{not json")
        with pytest.raises(TopologyError):
            Topology.from_dict({"name": "x", "wires": []})

    def test_fingerprint_tracks_content(self):
        assert pair_topology().fingerprint() == pair_topology().fingerprint()
        changed = pair_topology().host("h3")
        assert changed.fingerprint() != pair_topology().fingerprint()
        # Params matter too.
        a = Topology().node("s", "legacy_switch", ports=2)
        b = Topology().node("s", "legacy_switch", ports=4)
        assert a.fingerprint() != b.fingerprint()

    def test_roundtripped_topology_builds(self):
        built = Topology.from_json(pair_topology().to_json()).build()
        assert isinstance(built.node("h1"), SimpleHost)
        assert isinstance(built.node("s1"), LegacySwitch)
        assert len(built.links) == 2


# -- construction -------------------------------------------------------------


class TestBuild:
    def test_hosts_get_deterministic_addresses(self):
        built = pair_topology().build()
        assert built.node("h1").mac == "02:00:00:00:00:01"
        assert built.node("h1").ip == "10.0.0.1"
        assert built.node("h2").mac == "02:00:00:00:00:02"
        assert built.node("h2").ip == "10.0.0.2"

    def test_link_rate_and_delay_applied(self):
        built = pair_topology().build()
        dirty = built.link_between("s1", "h2")
        assert dirty.propagation_ps == ns(20)
        assert built.node("h2").port.tx.rate_bps == 10e9
        clean = built.link_between("h1", "s1")
        assert clean.propagation_ps == DEFAULT_PROPAGATION_PS

    def test_reuses_caller_simulator(self):
        sim = Simulator()
        built = pair_topology().build(sim)
        assert built.sim is sim
        assert built.node("h1").sim is sim

    def test_device_injection(self):
        sim = Simulator()
        mine = LegacySwitch(sim, num_ports=2)
        built = pair_topology().build(sim, devices={"s1": mine})
        assert built.node("s1") is mine

    def test_injection_must_match_declared_names(self):
        sim = Simulator()
        with pytest.raises(TopologyError):
            pair_topology().build(sim, devices={"sx": object()})

    def test_endpoint_resolution_errors(self):
        built = pair_topology().build()
        with pytest.raises(TopologyError):
            built.node("nope")
        with pytest.raises(TopologyError):
            built.endpoint("h1:1")  # hosts have a single NIC
        with pytest.raises(TopologyError):
            built.endpoint("s1:7")
        with pytest.raises(TopologyError):
            built.link_between("h1", "h2")

    def test_auto_port_pick_is_first_unconnected(self):
        topo = (
            Topology()
            .host("h1")
            .host("h2")
            .node("s1", "legacy_switch", ports=2, seed=1)
            .link("h1", "s1")
            .link("s1", "h2")
        )
        built = topo.build()
        assert built.node("s1").ports[0].link is built.links[0]
        assert built.node("s1").ports[1].link is built.links[1]

    def test_all_ports_connected_error(self):
        topo = (
            Topology()
            .host("h1")
            .host("h2")
            .host("h3")
            .node("s1", "legacy_switch", ports=2, seed=1)
            .link("h1", "s1")
            .link("s1", "h2")
            .link("s1", "h3")
        )
        with pytest.raises(TopologyError):
            topo.build()

    def test_openflow_switch_gets_control_channel(self):
        topo = Topology().switch("ofsw", kind="openflow", ports=4)
        built = topo.build()
        assert built.control_channel("ofsw") is not None
        with pytest.raises(TopologyError):
            built.control_channel("nope")

    def test_snmp_needs_declared_switch(self):
        with pytest.raises(TopologyError):
            Topology().node("agent", "snmp").build()
        with pytest.raises(TopologyError):
            Topology().snmp("agent", switch="ghost").build()

    def test_bad_device_params_are_topology_errors(self):
        with pytest.raises(TopologyError):
            Topology().host("h1", warp_factor=9).build()


# -- testbed factories --------------------------------------------------------


class TestTestbedShims:
    def test_factories_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            legacy_testbed(Simulator())
            openflow_testbed(Simulator())

    def test_factory_matches_old_constructor(self):
        """The class wraps a built topology; the factory does just that."""
        from repro.testbed.topology import legacy_switch_topology

        sim = Simulator()
        old = LegacySwitchTestbed(sim, legacy_switch_topology(True).build(sim))
        new = legacy_testbed(Simulator(), wire_cross_ports=True)
        assert len(old.links) == len(new.links) == 4
        assert type(old.switch) is type(new.switch)
        assert new.topology.topology.fingerprint() == (
            old.topology.topology.fingerprint()
        )

    def test_openflow_factory_surface(self):
        bed = openflow_testbed(Simulator(), control_latency_ps=us(10))
        assert bed.channel is bed.topology.control_channel("ofsw")
        assert bed.controller is bed.channel.controller
        assert bed.snmp is bed.topology.node("snmp")
        assert bed.ingress_of_port == 1 and bed.egress_of_port == 2

    def test_declared_testbeds_serialize(self):
        from repro.testbed.topology import legacy_switch_topology, openflow_topology

        for topo in (legacy_switch_topology(True), openflow_topology()):
            again = Topology.from_json(topo.to_json())
            assert again.fingerprint() == topo.fingerprint()
            assert json.loads(topo.to_json())["nodes"]
