"""Synthetic NoC traffic generators.

Each pattern produces a stream of packets with Bernoulli-per-cycle injection
at every source node (the standard NoC evaluation methodology), plus the
(src, dst) rate matrix the analytical model needs.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Tuple

from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.utils.rng import SeedLike, make_rng


class TrafficPattern(abc.ABC):
    """Base class for synthetic traffic patterns."""

    def __init__(self, topology: MeshTopology, injection_rate: float,
                 packet_size_flits: int = 4, seed: SeedLike = None) -> None:
        if not 0.0 < injection_rate <= 1.0:
            raise ValueError("injection_rate must be in (0, 1] packets/node/cycle")
        if packet_size_flits < 1:
            raise ValueError("packet_size_flits must be >= 1")
        self.topology = topology
        self.injection_rate = float(injection_rate)
        self.packet_size_flits = int(packet_size_flits)
        self.rng = make_rng(seed)

    @abc.abstractmethod
    def destination_for(self, source: int) -> int:
        """Pick a destination for a packet injected at ``source``."""

    def generate(self, n_cycles: int) -> List[Packet]:
        """Generate all packets injected during ``n_cycles`` cycles."""
        if n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        packets: List[Packet] = []
        packet_id = 0
        for cycle in range(n_cycles):
            for source in range(self.topology.n_nodes):
                if self.rng.random() < self.injection_rate:
                    destination = self.destination_for(source)
                    if destination == source:
                        continue
                    packets.append(
                        Packet(
                            packet_id=packet_id,
                            source=source,
                            destination=destination,
                            size_flits=self.packet_size_flits,
                            injection_cycle=cycle,
                        )
                    )
                    packet_id += 1
        return packets

    def rate_matrix(self) -> Dict[Tuple[int, int], float]:
        """Expected per-pair packet rates (packets/cycle), for the analytical model."""
        matrix: Dict[Tuple[int, int], float] = {}
        n = self.topology.n_nodes
        for source in range(n):
            probabilities = self.destination_probabilities(source)
            for destination, probability in probabilities.items():
                if destination == source or probability <= 0:
                    continue
                matrix[(source, destination)] = self.injection_rate * probability
        return matrix

    @abc.abstractmethod
    def destination_probabilities(self, source: int) -> Dict[int, float]:
        """Probability of each destination given a packet injected at ``source``."""


class UniformRandomTraffic(TrafficPattern):
    """Each packet targets a uniformly random other node."""

    def destination_for(self, source: int) -> int:
        n = self.topology.n_nodes
        destination = int(self.rng.integers(0, n - 1))
        if destination >= source:
            destination += 1
        return destination

    def destination_probabilities(self, source: int) -> Dict[int, float]:
        n = self.topology.n_nodes
        probability = 1.0 / (n - 1)
        return {d: probability for d in range(n) if d != source}
