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

from typing import Iterable, Optional

from repro.core.objectives import ENERGY, Objective
from repro.core.oracle import OracleEntry, OracleTable
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet


def best_entry(simulator: SoCSimulator, space: ConfigurationSpace,
               snippet: Snippet, objective: Objective) -> OracleEntry:
    """Sweep one snippet over the space and return its minimising entry."""
    best_config: Optional[SoCConfiguration] = None
    best_cost = float("inf")
    best_result: Optional[SnippetResult] = None
    for config in space:
        result = simulator.evaluate_expected(snippet, config)
        cost = objective(result)
        if cost < best_cost:
            best_cost = cost
            best_config = config
            best_result = result
    assert best_config is not None and best_result is not None
    return OracleEntry(
        snippet_name=snippet.name,
        best_configuration=best_config,
        best_cost=best_cost,
        best_result=best_result,
    )


def build_oracle(simulator: SoCSimulator, space: ConfigurationSpace,
                 snippets: Iterable[Snippet],
                 objective: Objective = ENERGY) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``."""
    table = OracleTable(objective_name=objective.name)
    for snippet in snippets:
        table.entries[snippet.name] = best_entry(simulator, space, snippet,
                                                 objective)
    return table
