"""Figure 4 — per-application energy of online-IL and RL, normalised to Oracle.

The paper evaluates all sixteen applications: the Mi-Bench group ("offline")
is executed with the design-time policies, while the Cortex + PARSEC group
("online") is executed while the policies adapt over the application
sequence.  Online-IL stays within a few percent of the Oracle everywhere; RL
reaches up to 1.4x the Oracle energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.experiments.common import (
    ExperimentScale,
    QUICK,
    OnlineAdaptationStudy,
    figure4_application_order,
    run_online_adaptation_study,
)
from repro.utils.rng import SeedLike
from repro.utils.tables import format_table


@dataclass
class Figure4Result:
    """Per-application normalised energies for the IL and RL policies."""

    il_normalized: Dict[str, float] = field(default_factory=dict)
    rl_normalized: Dict[str, float] = field(default_factory=dict)
    groups: Dict[str, str] = field(default_factory=dict)

    def applications(self) -> List[str]:
        order = figure4_application_order()
        return [app for app in order if app in self.il_normalized]

    def worst(self, policy: str = "rl") -> float:
        table = self.rl_normalized if policy == "rl" else self.il_normalized
        return max(table.values())

    def mean(self, policy: str = "il") -> float:
        table = self.rl_normalized if policy == "rl" else self.il_normalized
        return sum(table.values()) / len(table)


def run_figure4(scale: ExperimentScale = QUICK, seed: SeedLike = 0,
                study: OnlineAdaptationStudy = None) -> Figure4Result:
    """Produce the per-application normalised energy bars of Figure 4."""
    if study is None:
        study = run_online_adaptation_study(scale, seed=seed,
                                            include_offline_apps=True)
    result = Figure4Result()
    # Offline group: Mi-Bench applications under the design-time policies.
    for app, energy in study.offline_il_per_app.items():
        oracle = study.oracle_offline_per_app[app]
        result.il_normalized[app] = energy / oracle
        result.groups[app] = "offline"
    for app, energy in study.rl_offline_per_app.items():
        oracle = study.oracle_offline_per_app[app]
        result.rl_normalized[app] = energy / oracle
    # Online group: Cortex + PARSEC applications during the adaptation run.
    il_online = study.online_per_app_normalized(study.online_il_run)
    rl_online = study.online_per_app_normalized(study.rl_run)
    for app, value in il_online.items():
        result.il_normalized[app] = value
        result.groups[app] = "online"
    for app, value in rl_online.items():
        result.rl_normalized[app] = value
    return result


def format_figure4(result: Figure4Result) -> str:
    rows = []
    for app in result.applications():
        rows.append(
            (
                app,
                result.groups.get(app, "?"),
                result.il_normalized.get(app, float("nan")),
                result.rl_normalized.get(app, float("nan")),
            )
        )
    rows.append(("(mean)", "", result.mean("il"), result.mean("rl")))
    return format_table(
        ["application", "group", "online-IL / Oracle", "RL / Oracle"],
        rows, precision=3,
        title="Figure 4 — energy normalised to the Oracle policy",
    )
