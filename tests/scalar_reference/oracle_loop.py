"""The per-configuration Oracle sweep (oracle of ``build_oracle``).

:func:`~repro.core.oracle.build_oracle` sweeps all of a call's snippets
together, in array passes of
:meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_batch` over
(snippet, configuration) pairs.  These two functions are the loop it
replaced: for each snippet, one noise-free ``evaluate_expected`` per
configuration, keeping the first configuration whose cost is strictly
lower than every earlier one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.core.objectives import ENERGY, Objective
from repro.core.oracle import OracleTable
from repro.core.oracle_store import ORACLE_COLUMNS
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet


def sweep_snippet(simulator: SoCSimulator, space: ConfigurationSpace,
                  snippet: Snippet, objective: Objective
                  ) -> Tuple[int, float, SnippetResult]:
    """Sweep one snippet over the space: the index, cost and noise-free
    result of its minimising configuration."""
    best: Optional[Tuple[int, SnippetResult]] = None
    best_cost = float("inf")
    for index, config in enumerate(space):
        result = simulator.evaluate_expected(snippet, config)
        cost = objective(result)
        if cost < best_cost:
            best_cost = cost
            best = (index, result)
    assert best is not None
    return best[0], best_cost, best[1]


def build_oracle(simulator: SoCSimulator, space: ConfigurationSpace,
                 snippets: Iterable[Snippet],
                 objective: Objective = ENERGY) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``."""
    snippets = list(snippets)
    rows = []
    for snippet in snippets:
        index, cost, result = sweep_snippet(simulator, space, snippet,
                                            objective)
        rows.append((index, cost, result.energy_j, result.execution_time_s))
    return OracleTable(objective.name, space,
                       {snippet.name: i for i, snippet in enumerate(snippets)},
                       np.array(rows, dtype=ORACLE_COLUMNS))
