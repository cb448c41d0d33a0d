"""Zero-load latency of an XY-routed mesh, the NoC tests' oracle.

A packet alone on the network crosses its source-to-destination
Manhattan distance in hops, each at the router's per-hop latency.
"""

from __future__ import annotations


def manhattan_hops(topology, source: int, destination: int) -> int:
    sx, sy = topology.coordinates(source)
    dx, dy = topology.coordinates(destination)
    return abs(sx - dx) + abs(sy - dy)


def zero_load_latency(simulator, source: int, destination: int,
                      size_flits: int) -> int:
    """Latency of a packet on an empty network (no queueing)."""
    hops = manhattan_hops(simulator.topology, source, destination)
    return hops * simulator.router.per_hop_latency(size_flits)
