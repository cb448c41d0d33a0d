"""Operating performance points (voltage/frequency pairs).

Each CPU cluster and the integrated GPU expose a discrete table of OPPs.
Voltage scales roughly linearly with frequency over the usable DVFS range,
which gives the classic cubic relation between frequency and dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence


@dataclass(frozen=True)
class OperatingPoint:
    """A single voltage/frequency operating point."""

    frequency_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if self.voltage_v <= 0:
            raise ValueError(f"voltage must be positive, got {self.voltage_v}")

    @property
    def frequency_ghz(self) -> float:
        return self.frequency_hz / 1e9

    @property
    def frequency_mhz(self) -> float:
        return self.frequency_hz / 1e6


class OPPTable:
    """Ordered table of operating points (lowest frequency first)."""

    def __init__(self, points: Sequence[OperatingPoint]) -> None:
        if not points:
            raise ValueError("OPPTable requires at least one operating point")
        ordered = sorted(points, key=lambda p: p.frequency_hz)
        freqs = [p.frequency_hz for p in ordered]
        if len(set(freqs)) != len(freqs):
            raise ValueError("OPPTable frequencies must be unique")
        self._points: List[OperatingPoint] = list(ordered)

    @classmethod
    def from_frequency_range(
        cls,
        min_frequency_hz: float,
        max_frequency_hz: float,
        n_levels: int,
        min_voltage_v: float = 0.9,
        max_voltage_v: float = 1.25,
    ) -> "OPPTable":
        """Build a table with linearly spaced frequencies and voltages."""
        if n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {n_levels}")
        if min_frequency_hz <= 0 or max_frequency_hz < min_frequency_hz:
            raise ValueError("invalid frequency range")
        points = []
        for i in range(n_levels):
            fraction = i / max(1, n_levels - 1)
            freq = min_frequency_hz + fraction * (max_frequency_hz - min_frequency_hz)
            volt = min_voltage_v + fraction * (max_voltage_v - min_voltage_v)
            points.append(OperatingPoint(frequency_hz=freq, voltage_v=volt))
        return cls(points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[OperatingPoint]:
        return iter(self._points)

    def __getitem__(self, index: int) -> OperatingPoint:
        return self._points[index]

    @property
    def max_frequency_hz(self) -> float:
        return self._points[-1].frequency_hz

    def frequencies_hz(self) -> List[float]:
        return [p.frequency_hz for p in self._points]

    def index_of_frequency(self, frequency_hz: float) -> int:
        """Return the index of the OPP whose frequency is closest to the input."""
        best_index = 0
        best_gap = float("inf")
        for i, point in enumerate(self._points):
            gap = abs(point.frequency_hz - frequency_hz)
            if gap < best_gap:
                best_gap = gap
                best_index = i
        return best_index

    def clamp_index(self, index: int) -> int:
        """Clamp an arbitrary integer index into the valid OPP range."""
        return max(0, min(len(self._points) - 1, int(index)))
