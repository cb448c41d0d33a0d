"""Mesh NoC topology with dimension-ordered (XY) routing."""

from __future__ import annotations

from typing import Dict, List, Tuple

Coordinate = Tuple[int, int]
Link = Tuple[int, int]


class MeshTopology:
    """A 2-D mesh of routers with one core attached to each router.

    Nodes are numbered row-major: node ``id = y * width + x``.  Links are
    directed ``(src_node, dst_node)`` pairs between adjacent routers; XY
    routing first moves along the x dimension, then along y, which is
    deadlock-free on a mesh and is what the analytical model assumes.
    """

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError("mesh dimensions must be >= 1")
        self.width = int(width)
        self.height = int(height)

    @property
    def n_nodes(self) -> int:
        return self.width * self.height

    def coordinates(self, node: int) -> Coordinate:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range")
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"coordinate ({x}, {y}) out of range")
        return y * self.width + x

    def links(self) -> List[Link]:
        """All directed router-to-router links."""
        result: List[Link] = []
        for y in range(self.height):
            for x in range(self.width):
                node = self.node_at(x, y)
                if x + 1 < self.width:
                    east = self.node_at(x + 1, y)
                    result.append((node, east))
                    result.append((east, node))
                if y + 1 < self.height:
                    north = self.node_at(x, y + 1)
                    result.append((node, north))
                    result.append((north, node))
        return result

    def xy_route(self, source: int, destination: int) -> List[int]:
        """Router sequence (inclusive) from ``source`` to ``destination``."""
        sx, sy = self.coordinates(source)
        dx, dy = self.coordinates(destination)
        path = [source]
        x, y = sx, sy
        while x != dx:
            x += 1 if dx > x else -1
            path.append(self.node_at(x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append(self.node_at(x, y))
        return path

    def route_links(self, source: int, destination: int) -> List[Link]:
        """Directed links traversed by the XY route."""
        path = self.xy_route(source, destination)
        return list(zip(path[:-1], path[1:]))

    def hop_count(self, source: int, destination: int) -> int:
        sx, sy = self.coordinates(source)
        dx, dy = self.coordinates(destination)
        return abs(sx - dx) + abs(sy - dy)

    def link_usage(self, traffic_matrix: Dict[Tuple[int, int], float]) -> Dict[Link, float]:
        """Aggregate per-link load from a (src, dst) -> rate traffic matrix."""
        usage: Dict[Link, float] = {link: 0.0 for link in self.links()}
        for (src, dst), rate in traffic_matrix.items():
            if src == dst or rate <= 0:
                continue
            for link in self.route_links(src, dst):
                usage[link] += rate
        return usage
