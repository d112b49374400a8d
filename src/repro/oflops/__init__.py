"""OFLOPS-turbo: OpenFlow switch evaluation on top of OSNT.

"an holistic OpenFlow switch evaluation framework which takes advantage
of the OSNT high-precision measurement capabilities ... measurement
modules which can access information from multiple measurement channels
(data and control plane and SNMP)."
"""

from .channels import (
    ControlChannelHandle,
    DataChannelHandle,
    SnmpChannelHandle,
    TimedMessage,
)
from .context import OflopsContext
from .module import MeasurementModule, ModuleRunner, oflops_point
from .modules import (
    ALL_MODULES,
    EchoLatencyModule,
    FlowModLatencyModule,
    ForwardingConsistencyModule,
    PacketInLatencyModule,
    ThroughputModule,
)
from .report import render_result, render_results

__all__ = [
    "ALL_MODULES",
    "ControlChannelHandle",
    "DataChannelHandle",
    "EchoLatencyModule",
    "FlowModLatencyModule",
    "ForwardingConsistencyModule",
    "MeasurementModule",
    "ModuleRunner",
    "OflopsContext",
    "PacketInLatencyModule",
    "SnmpChannelHandle",
    "ThroughputModule",
    "TimedMessage",
    "oflops_point",
    "render_result",
    "render_results",
]
