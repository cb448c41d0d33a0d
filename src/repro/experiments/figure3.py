"""Figure 3 — convergence of online-IL vs RL to the Oracle policy.

Both policies are trained offline on Mi-Bench, then run over a sequence of
Cortex + PARSEC applications.  The paper plots the accuracy of the
big-cluster frequency decisions with respect to the Oracle against time: the
online-IL policy converges to ~100 % within ~6 s (about 4 % of the sequence)
while the RL policy does not converge over the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.experiments.common import (
    ExperimentScale,
    QUICK,
    OnlineAdaptationStudy,
    run_online_adaptation_study,
)
from repro.utils.rng import SeedLike
from repro.utils.stats import trailing_nanmean
from repro.utils.tables import format_table


@dataclass
class Figure3Result:
    """Accuracy-vs-time series for the online-IL and RL policies."""

    time_axis_s: np.ndarray
    online_il_accuracy: np.ndarray
    rl_accuracy: np.ndarray
    online_il_near_optimal: np.ndarray
    rl_near_optimal: np.ndarray

    def final_accuracies(self) -> Dict[str, float]:
        return {
            "online_il": float(self.online_il_accuracy[-1]),
            "rl": float(self.rl_accuracy[-1]),
            "online_il_near_optimal": float(self.online_il_near_optimal[-1]),
            "rl_near_optimal": float(self.rl_near_optimal[-1]),
        }


def _near_optimal_series(study: OnlineAdaptationStudy, run, window: int,
                         tolerance: float = 0.02) -> np.ndarray:
    """Moving-average rate of decisions within ``tolerance`` of Oracle energy.

    The run's executed configurations are evaluated noise free in one lane
    call."""
    framework = study.framework
    snippets = study.sequence.snippets
    results = framework.simulator.execute_in_space(
        snippets, framework.space,
        run.log.column("config_index").astype(np.intp),
        np.ones((len(snippets), 2)))
    achieved = np.array([result.energy_j for result in results])
    near = achieved <= run.log.column("oracle_energy_j") * (1.0 + tolerance)
    return trailing_nanmean(near.astype(float), window) * 100.0


def run_figure3(scale: ExperimentScale = QUICK, seed: SeedLike = 0,
                window: int = 15,
                study: OnlineAdaptationStudy = None) -> Figure3Result:
    """Produce the accuracy-vs-time series of Figure 3."""
    if study is None:
        study = run_online_adaptation_study(scale, seed=seed,
                                            include_offline_apps=False)
    il_run = study.online_il_run
    rl_run = study.rl_run
    return Figure3Result(
        time_axis_s=il_run.time_axis_s(),
        online_il_accuracy=il_run.accuracy_series(window=window),
        rl_accuracy=rl_run.accuracy_series(window=window),
        online_il_near_optimal=_near_optimal_series(study, il_run, window),
        rl_near_optimal=_near_optimal_series(study, rl_run, window),
    )


def format_figure3(result: Figure3Result, n_points: int = 10) -> str:
    indices = np.linspace(0, len(result.time_axis_s) - 1, n_points).astype(int)
    rows = [
        (
            float(result.time_axis_s[i]),
            float(result.online_il_accuracy[i]),
            float(result.rl_accuracy[i]),
            float(result.online_il_near_optimal[i]),
            float(result.rl_near_optimal[i]),
        )
        for i in indices
    ]
    return format_table(
        ["time (s)", "online-IL acc (%)", "RL acc (%)",
         "online-IL near-opt (%)", "RL near-opt (%)"],
        rows, precision=1,
        title="Figure 3 — accuracy w.r.t. Oracle over the online sequence",
    )
