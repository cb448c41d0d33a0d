"""Light-weight run records used by policy sessions and experiments.

A :class:`RunRecord` is a single named observation (a dict of scalars), and a
:class:`RunLog` is an append-only sequence of records with accessors for
turning the log into column arrays.  A policy session keeps one record per
executed step (energy, time, power, the executed configuration and, with an
Oracle table, the Oracle's choice), without depending on pandas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

import numpy as np


@dataclass
class RunRecord:
    """One observation: a step index plus a mapping of named scalar values."""

    step: int
    values: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def _from_values(cls, step: int, values: Dict[str, float]) -> "RunRecord":
        """Hot-path constructor bypassing the generated ``__init__``.

        ``values`` must already be plain floats.
        """
        record = cls.__new__(cls)
        record.step = step
        record.values = values
        return record

    def __getitem__(self, key: str) -> float:
        return self.values[key]

    def get(self, key: str, default: float = float("nan")) -> float:
        return self.values.get(key, default)


class RunLog:
    """Append-only log of :class:`RunRecord` objects."""

    def __init__(self) -> None:
        self._records: List[RunRecord] = []

    def append_record(self, record: RunRecord) -> RunRecord:
        """Append a record whose values are already plain floats."""
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> RunRecord:
        return self._records[index]

    def column(self, key: str, default: float = float("nan")) -> np.ndarray:
        """Return the values of ``key`` across all records as an array."""
        return np.array([r.get(key, default) for r in self._records], dtype=float)

    def to_dict(self) -> Dict[str, List[float]]:
        """Return the log as a column-oriented dictionary."""
        keys: List[str] = []
        for record in self._records:
            for key in record.values:
                if key not in keys:
                    keys.append(key)
        out: Dict[str, List[float]] = {"step": [float(r.step) for r in self._records]}
        for key in keys:
            out[key] = [r.get(key) for r in self._records]
        return out
