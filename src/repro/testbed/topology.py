"""Testbed topologies — the wiring in the demo's Figure 2.

Both demo parts use the same physical shape: one OSNT port transmits
into the device under test, another OSNT port captures what comes out.
Part II adds the OpenFlow control channel (OFLOPS-turbo host ↔ switch)
and an SNMP channel.

Both shapes are declared through :class:`repro.topology.Topology` and
materialized by :func:`legacy_testbed` / :func:`openflow_testbed` (or
declare your own :class:`~repro.topology.Topology`).
"""

from __future__ import annotations

from typing import Optional

from ..devices.legacy_switch import LegacySwitch
from ..devices.openflow_switch import SwitchProfile
from ..osnt.api import TrafficGenerator, TrafficMonitor
from ..sim import Simulator
from ..topology import BuiltTopology, Topology
from ..units import us


def legacy_switch_topology(wire_cross_ports: bool = False) -> Topology:
    """The Part-I shape as a declarative, serializable Topology."""
    topo = (
        Topology(name="legacy-switch-testbed")
        .tester("osnt")
        .node("sw", "legacy_switch")
        .link("osnt:0", "sw:0")
        .link("osnt:1", "sw:1")
    )
    if wire_cross_ports:
        topo.link("osnt:2", "sw:2").link("osnt:3", "sw:3")
    return topo


def openflow_topology(
    control_latency_ps: int = us(50),
    num_switch_ports: int = 4,
    wire_cross_ports: bool = False,
) -> Topology:
    """The Part-II shape as a declarative, serializable Topology."""
    topo = (
        Topology(name="openflow-testbed")
        .node(
            "ofsw",
            "openflow_switch",
            ports=num_switch_ports,
            control_latency=control_latency_ps,
        )
        .tester("osnt")
        .link("osnt:0", "ofsw:0")
        .link("osnt:1", "ofsw:1")
    )
    if wire_cross_ports and num_switch_ports >= 4:
        topo.link("osnt:2", "ofsw:2").link("osnt:3", "ofsw:3")
    topo.snmp("snmp", switch="ofsw")
    return topo


class LegacySwitchTestbed:
    """Part I: OSNT ↔ legacy switch, as built by :func:`legacy_testbed`.

    * OSNT port 0 → switch port 0 (traffic in)
    * switch port 1 → OSNT port 1 (traffic out, captured)
    * optionally OSNT ports 2/3 ↔ switch ports 2/3 for cross traffic
    """

    def __init__(self, sim: Simulator, built: BuiltTopology) -> None:
        self.sim = sim
        self.topology = built
        self.tester = built.node("osnt")
        self.switch = built.node("sw")
        #: The wired cables, in wiring order — fault models attach here
        #: (``links[0]`` is the ingress OSNT→switch cable).
        self.links = built.links
        self.generator: TrafficGenerator = self.tester.generator(0)
        self.monitor: TrafficMonitor = self.tester.monitor(1)

    def teach_mac_table(self, dst_mac: str) -> None:
        """Prime the switch so test traffic is unicast, not flooded.

        Sends one frame *from* ``dst_mac`` out of the capture-side OSNT
        port, exactly as the OSNT tools do before a latency run.
        """
        from ..net.builder import build_udp

        learning = build_udp(src_mac=dst_mac, dst_mac="02:ff:ff:ff:ff:fe")
        self.tester.port(1).send(learning)
        self.sim.run(until=self.sim.now + us(10))


class OpenFlowTestbed:
    """Part II: OSNT ↔ OpenFlow switch + control channel + SNMP, as built
    by :func:`openflow_testbed`.

    The controller endpoint is left unwired (``on_message`` unset): the
    OFLOPS-turbo context claims it when a measurement module starts.
    """

    def __init__(self, sim: Simulator, built: BuiltTopology) -> None:
        self.sim = sim
        self.topology = built
        self.channel = built.control_channel("ofsw")
        self.switch = built.node("ofsw")
        self.tester = built.node("osnt")
        #: The wired cables, in wiring order — fault models attach here
        #: (``links[0]`` is the ingress OSNT→switch cable).
        self.links = built.links
        self.snmp = built.node("snmp")
        self.generator: TrafficGenerator = self.tester.generator(0)
        self.monitor: TrafficMonitor = self.tester.monitor(1)
        #: OF port numbers of the wired data path (1-based).
        self.ingress_of_port = 1
        self.egress_of_port = 2

    @property
    def controller(self):
        """The controller end of the OpenFlow control channel."""
        return self.channel.controller


def legacy_testbed(
    sim: Simulator,
    switch: Optional[LegacySwitch] = None,
    wire_cross_ports: bool = False,
    **osnt_kwargs,
) -> LegacySwitchTestbed:
    """Build the Part-I testbed."""
    topo = legacy_switch_topology(wire_cross_ports)
    if osnt_kwargs:
        topo.nodes[0].params.update(osnt_kwargs)
    devices = {"sw": switch} if switch is not None else None
    return LegacySwitchTestbed(sim, topo.build(sim, devices=devices))


def openflow_testbed(
    sim: Simulator,
    profile: Optional[SwitchProfile] = None,
    control_latency_ps: int = us(50),
    num_switch_ports: int = 4,
    wire_cross_ports: bool = False,
    **osnt_kwargs,
) -> OpenFlowTestbed:
    """Build the Part-II testbed."""
    topo = openflow_topology(
        control_latency_ps=control_latency_ps,
        num_switch_ports=num_switch_ports,
        wire_cross_ports=wire_cross_ports,
    )
    if profile is not None:
        topo.nodes[0].params["profile"] = profile
    if osnt_kwargs:
        topo.nodes[1].params.update(osnt_kwargs)
    return OpenFlowTestbed(sim, topo.build(sim))
