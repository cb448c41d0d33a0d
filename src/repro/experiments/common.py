"""Shared experiment infrastructure: the online adaptation study.

Scale presets live in :mod:`repro.experiments.scales` (``QUICK`` and
``ExperimentScale`` are re-exported here for the figure and ablation
modules).  ``OnlineAdaptationStudy`` performs the shared
heavy lifting behind Figures 3 and 4: train the IL and RL policies offline on
Mi-Bench, then adapt both online over a Cortex+PARSEC application sequence
while tracking accuracy and energy against the Oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.control.rl import QLearningController
from repro.core.framework import OnlineLearningFramework, PolicyRunResult
from repro.core.online_il import OnlineILPolicy
from repro.experiments.scales import (  # noqa: F401  (re-exported)
    QUICK,
    ExperimentScale,
)
from repro.utils.rng import SeedLike
from repro.workloads.sequences import ApplicationSequence, build_online_sequence
from repro.workloads.suites import (
    figure4_workloads,
    training_workloads,
    unseen_workloads,
)


def build_trained_framework(scale: ExperimentScale = QUICK,
                            seed: SeedLike = 0,
                            allow_core_gating: bool = False) -> OnlineLearningFramework:
    """Framework with the offline IL policy trained on the Mi-Bench suite."""
    framework = OnlineLearningFramework(seed=seed,
                                        allow_core_gating=allow_core_gating)
    workloads = [w.scaled(scale.train_snippet_factor) for w in training_workloads()]
    framework.train_offline(workloads, epochs=scale.offline_epochs)
    return framework


@dataclass
class OnlineAdaptationStudy:
    """Shared Figure-3 / Figure-4 study results."""

    framework: OnlineLearningFramework
    sequence: ApplicationSequence
    online_il_run: PolicyRunResult
    rl_run: PolicyRunResult
    offline_il_per_app: Dict[str, float] = field(default_factory=dict)
    rl_offline_per_app: Dict[str, float] = field(default_factory=dict)
    oracle_offline_per_app: Dict[str, float] = field(default_factory=dict)

    def online_per_app_normalized(self, run: PolicyRunResult) -> Dict[str, float]:
        """Per-application energy of an online run normalised to the Oracle.

        Steps whose snippet was missing from the Oracle table have a NaN
        ``oracle_energy_j``; those snippets are excluded from the
        denominator, and applications with no Oracle energy at all are
        dropped from the result rather than producing NaN arithmetic.
        The per-application sums accumulate in step order.
        """
        per_app: Dict[str, float] = {}
        oracle_per_app: Dict[str, float] = {}
        for snippet, energy, oracle_energy in zip(
                self.sequence.snippets, run.log.column("energy_j").tolist(),
                run.log.column("oracle_energy_j").tolist()):
            if not np.isfinite(oracle_energy):
                continue
            app = snippet.application
            per_app[app] = per_app.get(app, 0.0) + energy
            oracle_per_app[app] = oracle_per_app.get(app, 0.0) + oracle_energy
        return {
            app: per_app[app] / oracle_per_app[app]
            for app in per_app
            if oracle_per_app.get(app, 0.0) > 0.0
        }


def run_online_adaptation_study(
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
    include_offline_apps: bool = True,
) -> OnlineAdaptationStudy:
    """Train offline on Mi-Bench, adapt online over Cortex + PARSEC.

    Returns the per-policy sequence runs (for Fig. 3 accuracy curves) and the
    per-application energies (for Fig. 4), including the Mi-Bench "offline"
    group evaluated with the design-time policies when requested.
    """
    framework = build_trained_framework(scale, seed=seed)

    online_policy: OnlineILPolicy = framework.build_online_il_policy(
        buffer_capacity=scale.buffer_capacity,
        update_epochs=scale.update_epochs,
    )
    rl_policy: QLearningController = framework.build_rl_policy()
    framework.train_rl_offline(
        rl_policy,
        [w.scaled(scale.train_snippet_factor) for w in training_workloads()],
        episodes=scale.rl_offline_episodes,
    )

    offline_il_per_app: Dict[str, float] = {}
    rl_offline_per_app: Dict[str, float] = {}
    oracle_offline_per_app: Dict[str, float] = {}
    if include_offline_apps:
        for workload in training_workloads():
            spec = workload.scaled(scale.eval_snippet_factor)
            il_run = framework.evaluate_policy(framework.offline_policy, spec)
            rl_eval = framework.evaluate_policy(rl_policy, spec,
                                                reset_policy=False)
            offline_il_per_app[workload.name] = il_run.total_energy_j
            rl_offline_per_app[workload.name] = rl_eval.total_energy_j
            oracle_offline_per_app[workload.name] = float(il_run.oracle_energy_j)

    sequence = build_online_sequence(
        specs=unseen_workloads(),
        snippet_factor=scale.sequence_snippet_factor,
        seed=seed,
    )
    online_run = framework.evaluate_policy_on_snippets(online_policy,
                                                       sequence.snippets)
    rl_run = framework.evaluate_policy_on_snippets(rl_policy, sequence.snippets,
                                                   reset_policy=False)
    return OnlineAdaptationStudy(
        framework=framework,
        sequence=sequence,
        online_il_run=online_run,
        rl_run=rl_run,
        offline_il_per_app=offline_il_per_app,
        rl_offline_per_app=rl_offline_per_app,
        oracle_offline_per_app=oracle_offline_per_app,
    )


def figure4_application_order() -> List[str]:
    """Application names in the paper's Figure-4 x-axis order."""
    return [w.name for w in figure4_workloads()]
