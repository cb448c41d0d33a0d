"""Network-on-chip performance-modelling substrate (Sec. III-C).

Contains a cycle-level packet-switched NoC simulator (mesh topology, XY
routing, per-link output queues), synthetic traffic generators, a
queuing-theory analytical latency model, and an SVR-based learned latency
model that combines analytical waiting-time features with simulator
observations — the three modelling approaches the paper contrasts.
"""

from repro.noc.topology import MeshTopology
from repro.noc.packet import Packet
from repro.noc.router import RouterConfig
from repro.noc.traffic import (
    TrafficPattern,
    UniformRandomTraffic,
)
from repro.noc.simulator import NoCSimulator, NoCSimulationResult
from repro.noc.analytical import AnalyticalNoCModel, AnalyticalEstimate
from repro.noc.svr_model import SVRNoCLatencyModel, build_noc_training_set

__all__ = [
    "MeshTopology",
    "Packet",
    "RouterConfig",
    "TrafficPattern",
    "UniformRandomTraffic",
    "NoCSimulator",
    "NoCSimulationResult",
    "AnalyticalNoCModel",
    "AnalyticalEstimate",
    "SVRNoCLatencyModel",
    "build_noc_training_set",
]
