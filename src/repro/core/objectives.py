"""Optimisation objectives for DRM policies.

The Oracle policies of the offline-IL works "optimize different objectives
(e.g., energy consumption, performance-per-watt)".  An :class:`Objective`
assigns a scalar cost to a snippet execution result; lower is better, so the
Oracle picks the configuration minimising the cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.soc.simulator import SnippetResult, SoCBatchResult


@dataclass(frozen=True)
class Objective:
    """A named, lower-is-better cost over snippet execution results.

    ``vector_cost``, when provided, evaluates the cost over a whole
    :class:`~repro.soc.simulator.SoCBatchResult` sweep in one array
    operation, returning its ``(snippets, configurations)`` costs; the
    built-in objectives all define it, which is what lets the Oracle sweep
    run vectorized.  Objectives without a vector form still work everywhere —
    :meth:`batch_cost` falls back to materialising per-pair results.
    """

    name: str
    cost: Callable[[SnippetResult], float]
    description: str = ""
    vector_cost: Optional[Callable[[SoCBatchResult], np.ndarray]] = None

    def __call__(self, result: SnippetResult) -> float:
        return float(self.cost(result))

    def batch_cost(self, batch: SoCBatchResult) -> np.ndarray:
        """Cost of every (snippet, configuration) pair of a sweep.

        Returns a ``(snippets, configurations)`` array, lower is better.
        Without ``vector_cost`` each configuration column is materialised
        as one lane batch and costed result by result.
        """
        if self.vector_cost is not None:
            return np.asarray(self.vector_cost(batch), dtype=float)
        rows, columns = batch.shape
        return np.array([
            [self(result)
             for result in batch.take(np.full(rows, column)).lane_results()]
            for column in range(columns)
        ], dtype=float).T


def _energy(result: SnippetResult) -> float:
    return result.energy_j


def _energy_vec(batch: SoCBatchResult) -> np.ndarray:
    return batch.energy_j


def _edp(result: SnippetResult) -> float:
    return result.energy_delay_product


def _edp_vec(batch: SoCBatchResult) -> np.ndarray:
    return batch.energy_delay_product


def _performance(result: SnippetResult) -> float:
    # Lower cost = faster execution.
    return result.execution_time_s


def _performance_vec(batch: SoCBatchResult) -> np.ndarray:
    return batch.execution_time_s


def _negative_ppw(result: SnippetResult) -> float:
    return -result.performance_per_watt


def _negative_ppw_vec(batch: SoCBatchResult) -> np.ndarray:
    return -(batch.performance_ips / np.maximum(batch.average_power_w, 1e-9))


#: Minimise total energy consumption (the objective of Table II / Figs. 3-4).
ENERGY = Objective("energy", _energy, "Total energy consumption (J)", _energy_vec)

#: Minimise the energy-delay product.
EDP = Objective("edp", _edp, "Energy-delay product (J*s)", _edp_vec)

#: Minimise execution time (maximise performance).
PERFORMANCE = Objective("performance", _performance, "Execution time (s)",
                        _performance_vec)

#: Maximise performance-per-watt (instructions per second per watt).
PPW = Objective("ppw", _negative_ppw, "Negative performance-per-watt",
                _negative_ppw_vec)

ALL_OBJECTIVES = {obj.name: obj for obj in (ENERGY, EDP, PERFORMANCE, PPW)}
