"""NoC packets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Packet:
    """One network packet travelling from ``source`` to ``destination``.

    Timing fields are filled in by the simulator: ``injection_cycle`` is when
    the packet entered the source queue, ``ejection_cycle`` when its last flit
    left the destination router.
    """

    packet_id: int
    source: int
    destination: int
    size_flits: int
    injection_cycle: int
    ejection_cycle: Optional[int] = None
    hops: int = 0
    route: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError("size_flits must be >= 1")
        if self.injection_cycle < 0:
            raise ValueError("injection_cycle must be non-negative")

    @property
    def latency_cycles(self) -> Optional[int]:
        """End-to-end latency, or None if the packet is still in flight."""
        if self.ejection_cycle is None:
            return None
        return self.ejection_cycle - self.injection_cycle
