"""Workload snippets.

Following DyPO [3] and the offline-IL works [18, 19], applications are
segmented into *workload-conservative snippets* — windows containing a fixed
number of dynamic instructions.  A snippet carries the micro-architectural
characteristics that determine how it responds to frequency, core-count and
cluster-assignment decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import Any, Dict, List, Sequence

import numpy as np

#: Default snippet length (dynamic instructions) used by the IL experiments.
DEFAULT_SNIPPET_INSTRUCTIONS: float = 20e6

#: The least positive float: ``v > 0`` is ``v >= _ABOVE_ZERO``.
_ABOVE_ZERO = 5e-324

#: Each checked field's lowest and highest valid value and its error, in
#: the order the constructors check them (a characteristics object is made
#: before its snippet).  A value is valid when ``low <= value <= high``,
#: which NaN never is.
_CHARACTERISTIC_RANGES = (
    ("memory_intensity", 0.0, np.inf, "memory_intensity must be non-negative"),
    ("memory_access_rate", 0.0, 1.0, "memory_access_rate must be in [0, 1]"),
    ("external_request_rate", 0.0, 1.0,
     "external_request_rate must be in [0, 1]"),
    ("branch_misprediction_mpki", 0.0, np.inf,
     "branch_misprediction_mpki must be non-negative"),
    ("ilp_factor", _ABOVE_ZERO, 1.0, "ilp_factor must be in (0, 1]"),
    ("parallel_fraction", 0.0, 1.0, "parallel_fraction must be in [0, 1]"),
    ("thread_count", 1.0, np.inf, "thread_count must be >= 1"),
    ("big_fraction", 0.0, 1.0, "big_fraction must be in [0, 1]"),
)
_SNIPPET_RANGES = (
    ("n_instructions", _ABOVE_ZERO, np.inf, "n_instructions must be positive"),
    ("index", 0.0, np.inf, "index must be non-negative"),
)
_RANGES = _CHARACTERISTIC_RANGES + _SNIPPET_RANGES
_LOWEST = np.array([[low] for _, low, _, _ in _RANGES])
_HIGHEST = np.array([[high] for _, _, high, _ in _RANGES])


def _check_ranges(obj: Any, ranges: Sequence[tuple]) -> None:
    for name, low, high, error in ranges:
        if not low <= getattr(obj, name) <= high:
            raise ValueError(error)


@dataclass
class SnippetCharacteristics:
    """Micro-architectural characteristics of one snippet.

    Parameters
    ----------
    memory_intensity:
        L2 misses per kilo-instruction (MPKI) — the main driver of
        memory-boundedness and therefore of the optimal frequency.
    memory_access_rate:
        L1 data accesses per instruction (0-1).
    external_request_rate:
        Fraction of L2 misses that reach DRAM (non-cache external requests).
    branch_misprediction_mpki:
        Branch mispredictions per kilo-instruction.
    ilp_factor:
        Fraction of the cluster's peak IPC this snippet can sustain (0-1].
    parallel_fraction:
        Amdahl parallel fraction of the snippet (0 = fully serial).
    thread_count:
        Number of software threads the snippet exposes.
    big_fraction:
        Fraction of instructions executed on the big cluster (thread-affinity
        of the workload; the remainder runs on the LITTLE cluster).
    """

    memory_intensity: float = 2.0
    memory_access_rate: float = 0.3
    external_request_rate: float = 0.6
    branch_misprediction_mpki: float = 4.0
    ilp_factor: float = 0.8
    parallel_fraction: float = 0.1
    thread_count: int = 1
    big_fraction: float = 0.85

    def __post_init__(self) -> None:
        _check_ranges(self, _CHARACTERISTIC_RANGES)

    def as_dict(self) -> Dict[str, float]:
        return {
            "memory_intensity": self.memory_intensity,
            "memory_access_rate": self.memory_access_rate,
            "external_request_rate": self.external_request_rate,
            "branch_misprediction_mpki": self.branch_misprediction_mpki,
            "ilp_factor": self.ilp_factor,
            "parallel_fraction": self.parallel_fraction,
            "thread_count": float(self.thread_count),
            "big_fraction": self.big_fraction,
        }


@dataclass
class Snippet:
    """One fixed-instruction-count window of an application."""

    application: str
    index: int
    n_instructions: float = DEFAULT_SNIPPET_INSTRUCTIONS
    characteristics: SnippetCharacteristics = field(default_factory=SnippetCharacteristics)

    def __post_init__(self) -> None:
        _check_ranges(self, _SNIPPET_RANGES)

    @property
    def name(self) -> str:
        return f"{self.application}[{self.index}]"


#: ``SnippetCharacteristics`` fields in declaration order.
CHARACTERISTIC_FIELDS = tuple(f.name for f in fields(SnippetCharacteristics))


def _per_snippet(value: Any) -> bool:
    return isinstance(value, (list, tuple, range, np.ndarray))


def make_snippets(
    application: Any,
    index: Sequence[int],
    n_instructions: Any,
    **characteristics: Any,
) -> List[Snippet]:
    """Build snippets column by column, validated in bulk.

    ``index`` holds one index per snippet; every other argument, and each
    ``SnippetCharacteristics`` field (all given by keyword), is either one
    value for all snippets or one per snippet (a list, tuple, range or
    1-D array; arrays are read with ``tolist()``, so every field holds a
    Python number).  The result equals ``Snippet(application, index,
    n_instructions, SnippetCharacteristics(...))`` row by row, attribute
    order included.

    The constructors' range checks run first, on one float matrix of the
    checked columns; an invalid value raises the ``ValueError`` the
    dataclass constructors raise for the first invalid snippet.  Objects
    are then made with ``__new__`` and their fields assigned in
    declaration order, which keeps each instance ``__dict__``
    key-sharing: assigning a ready dict would double the memory of a
    trace.
    """
    if characteristics.keys() != set(CHARACTERISTIC_FIELDS):
        raise TypeError(f"make_snippets takes the characteristics "
                        f"{list(CHARACTERISTIC_FIELDS)}, not "
                        f"{sorted(characteristics)}")
    count = len(index)
    columns = {"application": application, "index": index,
               "n_instructions": n_instructions,
               **{name: characteristics[name]
                  for name in CHARACTERISTIC_FIELDS}}
    for name, value in columns.items():
        if _per_snippet(value) and len(value) != count:
            raise ValueError(f"{name} has {len(value)} values for "
                             f"{count} snippets")
    checked = np.empty((len(_RANGES), count))
    for row, (name, _, _, _) in enumerate(_RANGES):
        checked[row] = columns[name]
    invalid = ~((checked >= _LOWEST) & (checked <= _HIGHEST))
    if invalid.any():
        first = int(invalid.any(axis=0).argmax())
        raise ValueError(_RANGES[int(invalid[:, first].argmax())][3])
    iterables = []
    for value in columns.values():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        iterables.append(value if _per_snippet(value)
                         else repeat(value, count))
    new = object.__new__
    snippets: List[Snippet] = []
    append = snippets.append
    for (app, idx, instructions, intensity, access_rate, external_rate,
         mpki, ilp, parallel, threads, big) in zip(*iterables):
        chars = new(SnippetCharacteristics)
        chars.memory_intensity = intensity
        chars.memory_access_rate = access_rate
        chars.external_request_rate = external_rate
        chars.branch_misprediction_mpki = mpki
        chars.ilp_factor = ilp
        chars.parallel_fraction = parallel
        chars.thread_count = threads
        chars.big_fraction = big
        snippet = new(Snippet)
        snippet.application = app
        snippet.index = idx
        snippet.n_instructions = instructions
        snippet.characteristics = chars
        append(snippet)
    return snippets
