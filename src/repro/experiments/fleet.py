"""Fleet experiment — lockstep multi-device rollout of the trained policy.

The paper's deployment story puts the online-IL governor on *every* device
of a fleet; this driver simulates that rollout.  One framework is trained
offline (the design-time phase happens once, like shipping a firmware
image), then ``N`` heterogeneous devices each receive an isolated copy of
the online-IL policy and adapt independently over their own snippet
sequence — with their own seed, their own measurement-noise stream, and a
rotating per-device scenario (including thermal throttling, whose space
restrictions are enforced per step).  All devices advance in lockstep
through the :class:`~repro.fleet.engine.FleetEngine`, whose per-step
executions are batched across the fleet; Oracle entries flow through the
framework's shared :class:`~repro.core.oracle.OracleCache` (and the
on-disk store when one is installed), so overlapping sweeps are computed
once for the whole fleet.

The report is fleet-centric: per-device energy/accuracy plus fleet
aggregate percentiles of Oracle-normalised energy and final decision
accuracy — the numbers an operator of millions of devices would watch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import build_trained_framework
from repro.experiments.scales import ExperimentScale, get_scale
from repro.fleet import DeviceSpec, ShardedFleetEngine, build_fleet
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.runtime import build_scenario_oracle
from repro.utils.rng import SeedLike, derive_seed, make_rng, stable_name_id
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

#: Devices simulated when ``--devices`` is not given.
DEFAULT_FLEET_DEVICES = 6

#: Seed-stream key of everything this driver derives (trace seeds, noise
#: streams, scenario seeds) — stable across processes by construction.
_FLEET_STREAM = stable_name_id("fleet-experiment")


@dataclass
class FleetDeviceReport:
    """Per-device outcome of one fleet rollout."""

    name: str
    policy: str
    scenario: str
    steps: int
    throttled_steps: int
    total_energy_j: float
    total_time_s: float
    normalized_energy: float
    final_accuracy: float


@dataclass
class FleetStudy:
    """Result of the ``fleet`` experiment."""

    scale_name: str
    n_devices: int
    total_steps: int
    batched_execution_fraction: float
    batched_decision_fraction: float
    batched_observe_fraction: float = 0.0
    devices: List[FleetDeviceReport] = field(default_factory=list)
    aggregates: Dict[str, float] = field(default_factory=dict)

    def seed_run_metadata(self) -> Dict[str, float]:
        """Batching hit rates for the runner's per-seed metadata.

        Surfaced next to the Oracle cache counters in
        ``SeedRun.metadata``: what fraction of the fleet's session-steps
        went through the batched decide/execute/observe paths versus the
        per-session scalar fallbacks.
        """
        return {
            "fleet_batched_decide_fraction": self.batched_decision_fraction,
            "fleet_batched_execute_fraction": self.batched_execution_fraction,
            "fleet_batched_observe_fraction": self.batched_observe_fraction,
        }


def _fleet_aggregates(reports: Sequence[FleetDeviceReport]) -> Dict[str, float]:
    """Fleet percentiles over the per-device reports.

    Aggregation is NaN-aware: a device whose ``final_accuracy`` is NaN
    (e.g. an all-NaN oracle-match prefix shorter than the smoothing
    window) must not poison every percentile — it is dropped from the
    accuracy statistics, and ``n_devices_reported`` records how many
    devices actually contributed.  An empty report list has no meaningful
    aggregate and raises instead of emitting a mean-of-empty-slice
    RuntimeWarning with NaN values.
    """
    if not reports:
        raise ValueError(
            "fleet aggregation needs at least one device report"
        )
    normalized = np.array([r.normalized_energy for r in reports])
    accuracy = np.array([r.final_accuracy for r in reports])
    aggregates = {
        "n_devices_reported": float(len(reports)),
        "fleet_energy_j": float(sum(r.total_energy_j for r in reports)),
        "fleet_time_s": float(sum(r.total_time_s for r in reports)),
    }
    # np.nanmean/np.nanpercentile still warn (and return NaN) when *every*
    # entry is NaN — guard each column so a fully-NaN metric yields NaN
    # silently while its n_* count makes the gap explicit.
    valid_normalized = normalized[~np.isnan(normalized)]
    aggregates["n_normalized_energy_reported"] = float(valid_normalized.size)
    if valid_normalized.size:
        aggregates.update({
            "normalized_energy_mean": float(np.mean(valid_normalized)),
            "normalized_energy_p50": float(np.percentile(valid_normalized, 50)),
            "normalized_energy_p90": float(np.percentile(valid_normalized, 90)),
            "normalized_energy_p99": float(np.percentile(valid_normalized, 99)),
        })
    else:
        aggregates.update({
            "normalized_energy_mean": float("nan"),
            "normalized_energy_p50": float("nan"),
            "normalized_energy_p90": float("nan"),
            "normalized_energy_p99": float("nan"),
        })
    valid_accuracy = accuracy[~np.isnan(accuracy)]
    aggregates["n_final_accuracy_reported"] = float(valid_accuracy.size)
    if valid_accuracy.size:
        aggregates.update({
            "final_accuracy_mean": float(np.mean(valid_accuracy)),
            "final_accuracy_p10": float(np.percentile(valid_accuracy, 10)),
            "final_accuracy_p50": float(np.percentile(valid_accuracy, 50)),
        })
    else:
        aggregates.update({
            "final_accuracy_mean": float("nan"),
            "final_accuracy_p10": float("nan"),
            "final_accuracy_p50": float("nan"),
        })
    return aggregates


def run_fleet(
    scale: ExperimentScale,
    seed: SeedLike = 0,
    n_devices: Optional[int] = None,
    scenarios: Optional[Sequence[str]] = None,
    n_shards: Optional[int] = None,
) -> FleetStudy:
    """Train once, roll the online-IL policy out to a lockstep device fleet.

    ``scenarios`` restricts the per-device scenario rotation (devices cycle
    through an unperturbed baseline plus the selected scenarios; default:
    every registered scenario).

    ``n_shards`` routes the rollout through a
    :class:`~repro.fleet.sharding.ShardedFleetEngine`, one child process
    per shard, instead of the in-process engine.  Every per-device report
    value is bitwise identical either way (and invariant to the shard
    count); only the batching-fraction metadata may differ, because
    batch-group membership is evaluated per shard.
    """
    scale = get_scale(scale)
    n = int(n_devices) if n_devices is not None else DEFAULT_FLEET_DEVICES
    if n < 1:
        raise ValueError(f"fleet needs at least one device, got {n}")
    framework = build_trained_framework(scale, seed=seed)
    simulator = framework.simulator
    space = framework.space
    rotation: List[Optional[str]] = [None]
    rotation.extend(scenarios if scenarios is not None else available_scenarios())

    devices: List[DeviceSpec] = []
    scenario_of: Dict[str, str] = {}
    for i in range(n):
        trace_seed = derive_seed(seed, (_FLEET_STREAM, 0, i))
        sequence = build_online_sequence(
            specs=unseen_workloads(),
            snippet_factor=scale.sequence_snippet_factor,
            seed=trace_seed,
        )
        policy = framework.build_online_il_policy(
            buffer_capacity=scale.buffer_capacity,
            update_epochs=scale.update_epochs,
            isolated=True,
        )
        noise_rng = make_rng(derive_seed(seed, (_FLEET_STREAM, 1, i)))
        name = f"device-{i:02d}"
        scenario_name = rotation[i % len(rotation)]
        if scenario_name is None:
            scenario_of[name] = ""
            oracle = framework.build_oracle_for(sequence.snippets)
            devices.append(DeviceSpec(
                name=name, policy=policy, snippets=sequence.snippets,
                rng=noise_rng, oracle_table=oracle,
            ))
        else:
            scenario_of[name] = scenario_name
            trace = get_scenario(scenario_name).apply(
                sequence.snippets, derive_seed(seed, (_FLEET_STREAM, 2, i))
            )
            oracle = build_scenario_oracle(
                simulator, space, trace, framework.objective,
                cache=framework.oracle_cache,
            )
            devices.append(DeviceSpec(
                name=name, policy=policy, scenario=trace,
                rng=noise_rng, oracle_table=oracle,
            ))

    reports: List[FleetDeviceReport] = []
    if n_shards is not None:
        engine = ShardedFleetEngine(devices, simulator, space,
                                    n_shards=n_shards, collect="summaries")
        for summary in engine.run():
            reports.append(FleetDeviceReport(
                name=summary.name,
                policy=summary.policy_name,
                scenario=scenario_of[summary.name],
                steps=summary.steps,
                throttled_steps=summary.throttled_steps,
                total_energy_j=summary.total_energy_j,
                total_time_s=summary.total_time_s,
                normalized_energy=summary.normalized_energy,
                final_accuracy=summary.final_accuracy,
            ))
    else:
        engine = build_fleet(devices, simulator, space)
        runs = engine.run()
        for device, run in zip(devices, runs):
            throttled = run.log.column("throttled", default=0.0)
            reports.append(FleetDeviceReport(
                name=device.name,
                policy=run.policy_name,
                scenario=scenario_of[device.name],
                steps=len(run.log),
                throttled_steps=int(np.nansum(throttled)),
                total_energy_j=run.total_energy_j,
                total_time_s=run.total_time_s,
                normalized_energy=run.normalized_energy,
                final_accuracy=run.final_accuracy(),
            ))
    total_steps = engine.steps_executed
    return FleetStudy(
        scale_name=scale.name,
        n_devices=n,
        total_steps=total_steps,
        batched_execution_fraction=(
            engine.batched_executions / total_steps if total_steps else 0.0
        ),
        batched_decision_fraction=(
            engine.batched_decisions / total_steps if total_steps else 0.0
        ),
        batched_observe_fraction=(
            engine.batched_observes / total_steps if total_steps else 0.0
        ),
        devices=reports,
        aggregates=_fleet_aggregates(reports),
    )


def format_fleet(study: FleetStudy) -> str:
    """Human-readable fleet report (CLI output)."""
    lines = [
        f"fleet of {study.n_devices} devices — {study.total_steps} lockstep "
        f"steps ({study.batched_execution_fraction:.0%} batched executions)",
    ]
    for report in study.devices:
        scenario = report.scenario or "baseline"
        lines.append(
            f"  {report.name}  {scenario:20s} steps={report.steps:4d} "
            f"throttled={report.throttled_steps:3d} "
            f"energy/oracle={report.normalized_energy:6.3f} "
            f"accuracy={report.final_accuracy:5.1f}%"
        )
    agg = study.aggregates
    lines.append(
        "  aggregate: energy/oracle p50={p50:.3f} p90={p90:.3f} "
        "p99={p99:.3f}; accuracy p10={a10:.1f}% p50={a50:.1f}%".format(
            p50=agg["normalized_energy_p50"],
            p90=agg["normalized_energy_p90"],
            p99=agg["normalized_energy_p99"],
            a10=agg["final_accuracy_p10"],
            a50=agg["final_accuracy_p50"],
        )
    )
    return "\n".join(lines)
