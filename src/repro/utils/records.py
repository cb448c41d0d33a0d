"""The per-step run log that policy sessions and experiments read.

A :class:`RunLog` is one fixed-schema table: a row per executed step (the
step is the row index) and one little-endian float64 column per name in
:data:`COLUMNS`, preallocated to the trace length.  Every row carries
every column; a value a step has none for (no Oracle entry, a
configuration outside the session's space) is NaN.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

#: Column names, in row order.
COLUMNS = (
    "energy_j",
    "time_s",
    "power_w",
    "big_opp",
    "little_opp",
    "config_index",
    "throttled",
    "oracle_big_opp",
    "oracle_match",
    "oracle_energy_j",
)

_COLUMN_INDEX = {name: index for index, name in enumerate(COLUMNS)}


class RunLog:
    """Append-only table of up to ``capacity`` rows of :data:`COLUMNS`."""

    def __init__(self, capacity: int) -> None:
        self._rows = np.empty((capacity, len(COLUMNS)), dtype="<f8")
        self._length = 0

    def append(self, row: Sequence[float]) -> None:
        """Append one step's values, in :data:`COLUMNS` order."""
        self._rows[self._length] = row
        self._length += 1

    def __len__(self) -> int:
        return self._length

    def table(self) -> np.ndarray:
        """The filled rows as a read-only ``(steps, len(COLUMNS))`` view."""
        table = self._rows[:self._length]
        table.flags.writeable = False
        return table

    def column(self, name: str) -> np.ndarray:
        """A copy of column ``name``; raises :class:`KeyError` outside
        :data:`COLUMNS`."""
        return self._rows[:self._length, _COLUMN_INDEX[name]].copy()

    def to_dict(self) -> Dict[str, List[float]]:
        """The log as ``{"step": [...], column: [...]}`` lists of floats."""
        out: Dict[str, List[float]] = {
            "step": [float(step) for step in range(self._length)]
        }
        for name, values in zip(COLUMNS, self.table().T.tolist()):
            out[name] = values
        return out

    def splice(self, start: int, rows: np.ndarray) -> None:
        """Replace the rows from ``start`` on with ``rows``.

        ``start`` may be at most the current length, and the result must
        fit the capacity; otherwise :class:`ValueError` is raised.  A
        recovery rebuilds a log from its snapshot rotations' rows this
        way.
        """
        end = start + len(rows)
        if not 0 <= start <= self._length or end > len(self._rows):
            raise ValueError(
                f"rows {start}..{end} do not continue a {self._length}-row "
                f"log of capacity {len(self._rows)}"
            )
        self._rows[start:end] = rows
        self._length = end

    def __getstate__(self):
        return len(self._rows), self.table()

    def __setstate__(self, state) -> None:
        capacity, table = state
        self.__init__(capacity)
        self.splice(0, table)
