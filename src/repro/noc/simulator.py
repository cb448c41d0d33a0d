"""Cycle-level packet-switched NoC simulator.

The simulator models each directed link as a FIFO server: a packet occupies
the link for ``service_cycles`` (its size in flits divided by the link
bandwidth), and traverses routers with a fixed pipeline delay.  Packets
follow XY routes hop by hop, queueing when a link is busy.  This
store-and-forward packet-level abstraction captures the queueing behaviour
the analytical and SVR models try to predict while staying fast enough for
parameter sweeps inside unit tests and benchmarks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.noc.packet import Packet
from repro.noc.router import RouterConfig
from repro.noc.topology import Link, MeshTopology
from repro.noc.traffic import TrafficPattern


@dataclass
class NoCSimulationResult:
    """Latency and throughput statistics of one simulation run."""

    delivered_packets: List[Packet] = field(default_factory=list)
    undelivered_count: int = 0
    simulated_cycles: int = 0

    @property
    def n_delivered(self) -> int:
        return len(self.delivered_packets)

    def latencies(self) -> np.ndarray:
        return np.array([p.latency_cycles for p in self.delivered_packets], dtype=float)

    @property
    def average_latency_cycles(self) -> float:
        lats = self.latencies()
        return float(np.mean(lats)) if lats.size else float("nan")

    def average_hops(self) -> float:
        if not self.delivered_packets:
            return float("nan")
        return float(np.mean([p.hops for p in self.delivered_packets]))


class NoCSimulator:
    """Event-driven simulator over the per-link FIFO abstraction."""

    def __init__(self, topology: MeshTopology,
                 router: Optional[RouterConfig] = None) -> None:
        self.topology = topology
        self.router = router or RouterConfig()

    def run(self, traffic: TrafficPattern, n_cycles: int,
            drain: bool = True, max_drain_cycles: int = 100000) -> NoCSimulationResult:
        """Inject traffic for ``n_cycles`` cycles and simulate until drained."""
        packets = traffic.generate(n_cycles)
        return self.run_packets(packets, n_cycles, drain=drain,
                                max_drain_cycles=max_drain_cycles)

    def run_packets(self, packets: List[Packet], n_cycles: int,
                    drain: bool = True,
                    max_drain_cycles: int = 100000) -> NoCSimulationResult:
        """Simulate an explicit packet list (events sorted by injection time).

        The input packets are mutated in place (``route``, ``hops`` and — for
        delivered packets — ``ejection_cycle``) and the delivered list holds
        the same objects, as it always did.
        """
        ordered = sorted(packets, key=lambda p: p.injection_cycle)
        # Route every packet once, as link ids over a dense link numbering.
        link_index: Dict[Link, int] = {}
        link_ids: List[np.ndarray] = []
        for packet in ordered:
            route = self.topology.xy_route(packet.source, packet.destination)
            packet.route = route
            packet.hops = len(route) - 1
            ids = np.empty(len(route) - 1, dtype=np.int64)
            for hop in range(len(route) - 1):
                link = (route[hop], route[hop + 1])
                ids[hop] = link_index.setdefault(link, len(link_index))
            link_ids.append(ids)
        n_packets = len(ordered)
        router = self.router
        # Service time is constant per packet under one configuration; go
        # through the router's own service model (one call per distinct
        # packet size).
        sizes = np.array([p.size_flits for p in ordered], dtype=np.int64)
        unique_sizes, inverse = np.unique(sizes, return_inverse=True)
        service = np.array(
            [router.service_cycles(int(size)) for size in unique_sizes],
            dtype=np.int64,
        )[inverse] if n_packets else np.empty(0, dtype=np.int64)
        per_hop_delay = router.link_delay_cycles + router.router_delay_cycles
        link_free = np.zeros(len(link_index), dtype=np.int64)
        hop_progress = np.zeros(n_packets, dtype=np.int64)
        ejection = np.zeros(n_packets, dtype=np.int64)
        # Events are (time, sequence, packet index); the packets are
        # injection-sorted, so the initial list is already a valid heap and
        # the sequence numbers replicate the historical tie-breaking.
        events: List[Tuple[int, int, int]] = [
            (int(packet.injection_cycle), k, k)
            for k, packet in enumerate(ordered)
        ]
        sequence = n_packets
        delivered_indices: List[int] = []
        horizon = n_cycles + max_drain_cycles if drain else n_cycles
        last_cycle = 0
        while events:
            time, _, index = heapq.heappop(events)
            if time > horizon:
                break
            last_cycle = max(last_cycle, time)
            links = link_ids[index]
            hop = hop_progress[index]
            if hop >= links.shape[0]:
                # Final router reached: packet ejects into the local core.
                ejection[index] = time
                delivered_indices.append(index)
                continue
            link = links[hop]
            start = max(time, int(link_free[link]))
            finish = start + int(service[index])
            link_free[link] = finish
            hop_progress[index] = hop + 1
            heapq.heappush(events, (finish + per_hop_delay, sequence, index))
            sequence += 1

        delivered: List[Packet] = []
        for index in delivered_indices:
            source = ordered[index]
            source.ejection_cycle = int(ejection[index])
            delivered.append(source)
        return NoCSimulationResult(
            delivered_packets=delivered,
            undelivered_count=n_packets - len(delivered),
            simulated_cycles=max(n_cycles, last_cycle),
        )

    def zero_load_latency(self, source: int, destination: int,
                          size_flits: int = 4) -> int:
        """Latency of a packet on an empty network (no queueing)."""
        hops = self.topology.hop_count(source, destination)
        per_hop = self.router.per_hop_latency(size_flits)
        return hops * per_hop
