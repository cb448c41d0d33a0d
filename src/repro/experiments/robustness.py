"""Robustness sweep: policies vs the registered stress scenarios.

The paper's figures evaluate adaptation on a *static* sequence of unseen
applications.  This driver replays that sequence through every registered
scenario transform (phase churn, bursty arrivals, concurrent interleaving,
thermal throttling, characteristic drift, composed stress) and compares

* **online-il** — the adaptive policy (isolated per scenario, so online
  updates never leak between scenarios),
* **offline-il** — the frozen design-time policy,
* **ondemand** / **powersave** — classic governor baselines,

against the scenario-aware Oracle.  The (scenario, policy) cells run as
the devices of one lockstep fleet.  All Oracle sweeps run through the
vectorized batch engine paths and share the framework's
:class:`~repro.core.oracle.OracleCache` (restriction-aware keys), so
scenarios that merely reorder the base trace are nearly free.

Per-scenario results report energy normalised to the Oracle and final
Oracle-decision accuracy — the adaptation-robustness analogue of the
paper's Table II / Figure 3 metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.control.policy import DRMPolicy, GovernorPolicy
from repro.core.framework import OnlineLearningFramework, PolicyRunResult
from repro.experiments.common import build_trained_framework
from repro.experiments.scales import ExperimentScale, QUICK
from repro.fleet.device import DeviceSpec, build_fleet
from repro.scenarios import (
    ScenarioTrace,
    available_scenarios,
    build_scenario_oracle,
    get_scenario,
)
from repro.soc.governors import OndemandGovernor, PowersaveGovernor
from repro.utils.rng import SeedLike, derive_seed, make_rng, stable_name_id
from repro.utils.tables import format_table
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

#: Policy arms of the sweep, in report order.
ROBUSTNESS_POLICIES = ("online-il", "offline-il", "ondemand", "powersave")


@dataclass
class RobustnessRow:
    """One (scenario, policy) cell of the sweep."""

    scenario: str
    policy: str
    total_energy_j: float
    oracle_energy_j: float
    normalized_energy: float
    final_accuracy_percent: float
    n_snippets: int
    throttled_steps: int


@dataclass
class RobustnessResult:
    """All rows of the sweep plus lookup/aggregation helpers."""

    rows: List[RobustnessRow] = field(default_factory=list)

    def scenarios(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.scenario not in seen:
                seen.append(row.scenario)
        return seen

    def policies(self) -> List[str]:
        seen: List[str] = []
        for row in self.rows:
            if row.policy not in seen:
                seen.append(row.policy)
        return seen

    def row(self, scenario: str, policy: str) -> RobustnessRow:
        for candidate in self.rows:
            if candidate.scenario == scenario and candidate.policy == policy:
                return candidate
        raise KeyError(f"no row for scenario={scenario!r} policy={policy!r}")

    def normalized(self, scenario: str, policy: str) -> float:
        return self.row(scenario, policy).normalized_energy

    def online_advantage(self, scenario: str) -> float:
        """Offline-IL minus online-IL normalised energy (>0: online wins)."""
        return (self.normalized(scenario, "offline-il")
                - self.normalized(scenario, "online-il"))

    def mean_normalized(self, policy: str) -> float:
        values = [row.normalized_energy for row in self.rows
                  if row.policy == policy]
        if not values:
            raise KeyError(f"no rows for policy {policy!r}")
        return sum(values) / len(values)


def _policy_factories(
    framework: OnlineLearningFramework, scale: ExperimentScale
) -> Dict[str, Callable[[], DRMPolicy]]:
    return {
        "online-il": lambda: framework.build_online_il_policy(
            buffer_capacity=scale.buffer_capacity,
            update_epochs=scale.update_epochs,
            isolated=True,
        ),
        "offline-il": lambda: framework.isolated_copy(
            framework.offline_policy),
        "ondemand": lambda: GovernorPolicy(OndemandGovernor(framework.space)),
        "powersave": lambda: GovernorPolicy(PowersaveGovernor(framework.space)),
    }


def run_robustness(
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
    scenarios: Optional[Sequence[str]] = None,
    policies: Sequence[str] = ROBUSTNESS_POLICIES,
) -> RobustnessResult:
    """Sweep the policies across the (selected) registered scenarios.

    One framework is trained offline per call and reused for every
    scenario.  Every (scenario, policy) cell is one device of a single
    :class:`~repro.fleet.engine.FleetEngine` run: it has its own policy
    objects (an isolated online-IL policy, a copy of the offline-IL
    policy or a fresh governor) and draws its measurement noise from a
    seed derived from ``(seed, scenario, policy)``.  Cells share no
    mutable state, so each row is bitwise the cell's own sequential run
    and does not depend on which other cells are swept.
    """
    names = list(scenarios) if scenarios is not None else available_scenarios()
    if not names:
        raise ValueError("run_robustness needs at least one scenario "
                         "(pass scenarios=None to sweep all registered ones)")
    specs = [get_scenario(name) for name in names]
    unknown = [p for p in policies if p not in ROBUSTNESS_POLICIES]
    if unknown:
        raise KeyError(
            f"unknown policies {unknown}; available: {list(ROBUSTNESS_POLICIES)}"
        )
    framework = build_trained_framework(scale, seed=seed)
    factories = _policy_factories(framework, scale)
    base_sequence = build_online_sequence(
        specs=unseen_workloads(),
        snippet_factor=scale.sequence_snippet_factor,
        seed=seed,
    )
    devices: List[DeviceSpec] = []
    cells: List[Tuple[str, str]] = []
    for spec in specs:
        scenario_rng = make_rng(derive_seed(seed, [stable_name_id(spec.name)]))
        trace = spec.apply(base_sequence.snippets, scenario_rng)
        oracle_table = build_scenario_oracle(
            framework.simulator, framework.space, trace,
            cache=framework.oracle_cache,
        )
        for policy_name in policies:
            devices.append(DeviceSpec(
                name=f"{spec.name}/{policy_name}",
                policy=factories[policy_name](),
                scenario=trace,
                rng=make_rng(derive_seed(seed, [
                    stable_name_id(spec.name), stable_name_id(policy_name),
                ])),
                oracle_table=oracle_table,
            ))
            cells.append((spec.name, policy_name))
    runs = build_fleet(devices, framework.simulator, framework.space).run()
    return RobustnessResult(rows=[
        _row_from_run(scenario, policy_name, device.scenario, run)
        for (scenario, policy_name), device, run in zip(cells, devices, runs)
    ])


def _row_from_run(scenario: str, policy: str, trace: ScenarioTrace,
                  run: PolicyRunResult) -> RobustnessRow:
    return RobustnessRow(
        scenario=scenario,
        policy=policy,
        total_energy_j=run.total_energy_j,
        oracle_energy_j=float(run.oracle_energy_j),
        normalized_energy=run.normalized_energy,
        final_accuracy_percent=run.final_accuracy(),
        n_snippets=len(trace),
        throttled_steps=trace.throttled_steps(),
    )


def format_robustness(result: RobustnessResult) -> str:
    """Render the sweep as per-scenario blocks plus a policy summary."""
    headers = ["Scenario", "Policy", "Norm. energy", "Accuracy %",
               "Snippets", "Throttled"]
    rows = [
        [row.scenario, row.policy, row.normalized_energy,
         row.final_accuracy_percent, row.n_snippets, row.throttled_steps]
        for row in result.rows
    ]
    table = format_table(headers, rows, precision=3,
                         title="Robustness — policies vs stress scenarios")
    summary_lines = ["", "Mean normalised energy per policy:"]
    for policy in result.policies():
        summary_lines.append(
            f"  {policy:12s} {result.mean_normalized(policy):.3f}"
        )
    advantage_lines = ["", "Online-IL advantage (offline minus online):"]
    for scenario in result.scenarios():
        try:
            advantage_lines.append(
                f"  {scenario:22s} {result.online_advantage(scenario):+.3f}"
            )
        except KeyError:
            continue
    return "\n".join([table] + summary_lines + advantage_lines)
