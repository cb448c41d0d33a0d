"""The per-configuration Oracle sweep (oracle of ``build_oracle``).

:func:`~repro.core.oracle.build_oracle` sweeps all of a call's snippets
together, in array passes of
:meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_batch` over
(snippet, configuration) pairs.  These two functions are the loop it
replaced: for each snippet, one noise-free evaluation per configuration
(the scalar model's :func:`~scalar_reference.soc_scalar.evaluate_expected`),
keeping the first configuration whose energy is strictly lower than every
earlier one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.oracle import OracleTable
from repro.core.oracle_store import ORACLE_COLUMNS
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet

from scalar_reference.soc_scalar import evaluate_expected


def sweep_snippet(simulator: SoCSimulator, space: ConfigurationSpace,
                  snippet: Snippet) -> Tuple[int, SnippetResult]:
    """Sweep one snippet over the space: the index and noise-free result
    of its energy-minimising configuration."""
    best: Optional[Tuple[int, SnippetResult]] = None
    best_energy = float("inf")
    for index, config in enumerate(space):
        result = evaluate_expected(simulator, snippet, config)
        if result.energy_j < best_energy:
            best_energy = result.energy_j
            best = (index, result)
    assert best is not None
    return best


def build_oracle(simulator: SoCSimulator, space: ConfigurationSpace,
                 snippets: Iterable[Snippet]) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``."""
    snippets = list(snippets)
    rows = []
    for snippet in snippets:
        index, result = sweep_snippet(simulator, space, snippet)
        rows.append((index, result.energy_j, result.execution_time_s))
    return OracleTable(space,
                       {snippet.name: i for i, snippet in enumerate(snippets)},
                       np.array(rows, dtype=ORACLE_COLUMNS))
