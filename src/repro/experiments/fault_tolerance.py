"""Fault-tolerance experiment — supervised fleets under injected faults.

The robustness question behind the paper's deployment story: when the
online-IL governor ships to a fleet of real devices, telemetry drops out,
sensors saturate, devices crash mid-run and stragglers hang.  This driver
sweeps a deterministic fault rate over a mixed fleet (online-IL and
ondemand devices, baseline and thermally-throttled scenarios) driven by
the :class:`~repro.fleet.supervisor.FleetSupervisor`, and reports what an
operator would watch: survival fraction, recovery counts, replay overhead
and the energy cost of supervision — per fault-rate cell, with fleet
percentiles of Oracle-normalised energy over the surviving devices.

Determinism: every stochastic input is derived from the experiment seed
via named streams — per-device trace/noise/scenario seeds are shared
across fault-rate cells (so Oracle tables are computed once and a cell
differs from its neighbour *only* by the injected faults), and each cell's
:class:`~repro.fleet.faults.FaultPlan` comes from its own derived seed.
Identical plan seeds produce identical fault schedules regardless of
``--jobs`` fan-out or host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.policy import GovernorPolicy
from repro.experiments.common import build_trained_framework
from repro.experiments.scales import ExperimentScale, get_scale
from repro.fleet import (DeviceSpec, FaultPlan, FleetSupervisor,
                         ShardedFleetEngine)
from repro.scenarios import get_scenario
from repro.scenarios.runtime import build_scenario_oracle
from repro.soc.governors import OndemandGovernor
from repro.utils.rng import SeedLike, derive_seed, make_rng, stable_name_id
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

#: Devices simulated when ``--devices`` is not given.
DEFAULT_FT_DEVICES = 4

#: Fault rates swept by default: fault-free control, half the fleet
#: faulted in expectation, and every device faulted.
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.5, 1.0)

#: Scenario assigned to the throttled half of the rotation.
_THROTTLE_SCENARIO = "thermal_throttle"

#: Seed-stream key of everything this driver derives.
_FT_STREAM = stable_name_id("fault-tolerance-experiment")


@dataclass
class FaultDeviceOutcome:
    """One device's fate in one fault-rate cell."""

    name: str
    policy: str
    scenario: str
    health: str
    completed: bool
    steps: int
    trace_steps: int
    crashes: int
    stalls: int
    restarts: int
    replayed_steps: int
    corrupted_observations: int
    watchdog_flags: int
    total_energy_j: float
    wasted_energy_j: float
    normalized_energy: Optional[float]


@dataclass
class FaultRateCell:
    """Fleet outcome at one injected fault rate."""

    fault_rate: float
    n_faults: int
    survival_fraction: float
    recovered: int
    quarantined: int
    crashes: int
    stalls: int
    restarts: int
    replayed_steps: int
    corrupted_observations: int
    watchdog_flags: int
    devices: List[FaultDeviceOutcome] = field(default_factory=list)
    aggregates: Dict[str, float] = field(default_factory=dict)


@dataclass
class FaultToleranceStudy:
    """Result of the ``fault-tolerance`` experiment."""

    scale_name: str
    n_devices: int
    fault_rates: List[float] = field(default_factory=list)
    cells: List[FaultRateCell] = field(default_factory=list)


def _cell_aggregates(outcomes: Sequence[FaultDeviceOutcome],
                     total_steps: int) -> Dict[str, float]:
    """Operator-facing percentiles for one fault-rate cell.

    Energy overhead is the supervision tax: ``(final + wasted) / final``
    per device, where *wasted* is energy spent on steps later replayed
    from a snapshot.  Normalised-energy percentiles cover only devices
    that completed their trace (partial runs would skew the quality
    numbers that the survival fraction already captures).
    """
    overhead = np.array([
        (outcome.total_energy_j + outcome.wasted_energy_j)
        / outcome.total_energy_j
        for outcome in outcomes if outcome.total_energy_j > 0
    ])
    completed = [outcome.normalized_energy for outcome in outcomes
                 if outcome.completed and outcome.normalized_energy is not None]
    aggregates = {
        "energy_overhead_mean": float(np.mean(overhead)) if overhead.size else 1.0,
        "energy_overhead_p50": (
            float(np.percentile(overhead, 50)) if overhead.size else 1.0
        ),
        "energy_overhead_p90": (
            float(np.percentile(overhead, 90)) if overhead.size else 1.0
        ),
        "replay_overhead": (
            sum(outcome.replayed_steps for outcome in outcomes) / total_steps
            if total_steps else 0.0
        ),
    }
    if completed:
        normalized = np.array(completed)
        aggregates.update({
            "normalized_energy_p50": float(np.percentile(normalized, 50)),
            "normalized_energy_p90": float(np.percentile(normalized, 90)),
        })
    return aggregates


def run_fault_tolerance(
    scale: ExperimentScale,
    seed: SeedLike = 0,
    n_devices: Optional[int] = None,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    n_shards: Optional[int] = None,
) -> FaultToleranceStudy:
    """Sweep fault rate over a supervised mixed fleet.

    Device ``i`` rotates policy (even: isolated online-IL, odd: ondemand
    governor) and scenario (first half of each policy pair: baseline,
    second half: thermal throttling).  Traces, noise streams and scenario
    perturbations are identical across cells; only the fault plan varies.

    ``n_shards`` accelerates the *fault-free* cells only: a cell whose
    plan injects nothing is, by the supervisor's documented zero-fault
    identity, bitwise equal to a bare engine run — so it can route
    through a :class:`~repro.fleet.sharding.ShardedFleetEngine` (one
    child process per shard) with synthesized all-healthy outcomes.
    Cells with injected faults stay single-process: the supervisor
    injects them as per-round held rows and result transforms of its
    in-process engine, which the sharded engine does not take.
    """
    scale = get_scale(scale)
    n = int(n_devices) if n_devices is not None else DEFAULT_FT_DEVICES
    if n < 1:
        raise ValueError(f"fault-tolerance needs at least one device, got {n}")
    rates = [float(rate) for rate in fault_rates]
    if not rates:
        raise ValueError("fault_rates must not be empty")
    framework = build_trained_framework(scale, seed=seed)
    simulator = framework.simulator
    space = framework.space

    # Per-device inputs, fixed across every fault-rate cell.
    blueprints = []
    for i in range(n):
        trace_seed = derive_seed(seed, (_FT_STREAM, 0, i))
        sequence = build_online_sequence(
            specs=unseen_workloads(),
            snippet_factor=scale.sequence_snippet_factor,
            seed=trace_seed,
        )
        scenario_name = _THROTTLE_SCENARIO if (i // 2) % 2 else ""
        if scenario_name:
            scenario = get_scenario(scenario_name).apply(
                sequence.snippets, derive_seed(seed, (_FT_STREAM, 2, i))
            )
            oracle = build_scenario_oracle(
                simulator, space, scenario, cache=framework.oracle_cache,
            )
            snippets: Sequence = scenario.snippets
        else:
            scenario = None
            oracle = framework.build_oracle_for(sequence.snippets)
            snippets = sequence.snippets
        blueprints.append({
            "name": f"device-{i:02d}",
            "index": i,
            "scenario_name": scenario_name,
            "scenario": scenario,
            "snippets": sequence.snippets,
            "oracle": oracle,
            "steps": len(snippets),
        })
    names = [blueprint["name"] for blueprint in blueprints]
    horizon = min(blueprint["steps"] for blueprint in blueprints)

    study = FaultToleranceStudy(scale_name=scale.name, n_devices=n,
                                fault_rates=rates)
    for j, rate in enumerate(rates):
        plan = FaultPlan.generate(
            names, rate,
            seed=derive_seed(seed, (_FT_STREAM, 3, j)),
            horizon=max(horizon, 2),
        )
        devices: List[DeviceSpec] = []
        policy_of: Dict[str, str] = {}
        for blueprint in blueprints:
            i = blueprint["index"]
            if i % 2 == 0:
                policy = framework.build_online_il_policy(
                    buffer_capacity=scale.buffer_capacity,
                    update_epochs=scale.update_epochs,
                    isolated=True,
                )
            else:
                policy = GovernorPolicy(OndemandGovernor(space))
            policy_of[blueprint["name"]] = policy.name
            noise_rng = make_rng(derive_seed(seed, (_FT_STREAM, 1, i)))
            if blueprint["scenario"] is not None:
                devices.append(DeviceSpec(
                    name=blueprint["name"], policy=policy,
                    scenario=blueprint["scenario"], rng=noise_rng,
                    oracle_table=blueprint["oracle"],
                ))
            else:
                devices.append(DeviceSpec(
                    name=blueprint["name"], policy=policy,
                    snippets=blueprint["snippets"], rng=noise_rng,
                    oracle_table=blueprint["oracle"],
                ))
        outcomes: List[FaultDeviceOutcome] = []
        if n_shards is not None and len(plan) == 0:
            # Zero-fault identity: an empty plan makes the supervisor a
            # bitwise pass-through over the bare engine, so the cell can
            # run sharded; every device trivially completes healthy.
            engine = ShardedFleetEngine(devices, simulator, space,
                                        n_shards=n_shards,
                                        collect="summaries")
            for blueprint, summary in zip(blueprints, engine.run()):
                outcomes.append(FaultDeviceOutcome(
                    name=summary.name,
                    policy=policy_of[summary.name],
                    scenario=blueprint["scenario_name"],
                    health="healthy",
                    completed=True,
                    steps=summary.steps,
                    trace_steps=blueprint["steps"],
                    crashes=0,
                    stalls=0,
                    restarts=0,
                    replayed_steps=0,
                    corrupted_observations=0,
                    watchdog_flags=0,
                    total_energy_j=summary.total_energy_j,
                    wasted_energy_j=0.0,
                    normalized_energy=(summary.normalized_energy
                                       if summary.oracle_energy_j
                                       else None),
                ))
            survival_fraction = 1.0
        else:
            supervisor = FleetSupervisor(
                devices, simulator, space, plan=plan,
                snapshot_every=4, watchdog_rounds=2, max_restarts=2,
            )
            runs = supervisor.run()
            reports = supervisor.reports()
            for blueprint, run, report in zip(blueprints, runs, reports):
                outcomes.append(FaultDeviceOutcome(
                    name=report.name,
                    policy=policy_of[report.name],
                    scenario=blueprint["scenario_name"],
                    health=report.health,
                    completed=report.completed,
                    steps=report.steps_completed,
                    trace_steps=report.trace_steps,
                    crashes=report.crashes,
                    stalls=report.stalls,
                    restarts=report.restarts,
                    replayed_steps=report.replayed_steps,
                    corrupted_observations=report.corrupted_observations,
                    watchdog_flags=report.watchdog_flags,
                    total_energy_j=run.total_energy_j,
                    wasted_energy_j=report.wasted_energy_j,
                    normalized_energy=(run.normalized_energy
                                       if report.completed
                                       and run.oracle_energy_j else None),
                ))
            survival_fraction = supervisor.survival_fraction
        total_steps = sum(outcome.steps for outcome in outcomes)
        study.cells.append(FaultRateCell(
            fault_rate=rate,
            n_faults=len(plan),
            survival_fraction=survival_fraction,
            recovered=sum(1 for o in outcomes if o.health == "recovered"),
            quarantined=sum(1 for o in outcomes if o.health == "quarantined"),
            crashes=sum(o.crashes for o in outcomes),
            stalls=sum(o.stalls for o in outcomes),
            restarts=sum(o.restarts for o in outcomes),
            replayed_steps=sum(o.replayed_steps for o in outcomes),
            corrupted_observations=sum(o.corrupted_observations
                                       for o in outcomes),
            watchdog_flags=sum(o.watchdog_flags for o in outcomes),
            devices=outcomes,
            aggregates=_cell_aggregates(outcomes, total_steps),
        ))
    return study


def format_fault_tolerance(study: FaultToleranceStudy) -> str:
    """Human-readable fault-tolerance report (CLI output)."""
    lines = [
        f"fault-tolerance sweep over {study.n_devices} devices, "
        f"rates {', '.join(f'{rate:.2f}' for rate in study.fault_rates)}",
    ]
    for cell in study.cells:
        agg = cell.aggregates
        lines.append(
            f"  rate={cell.fault_rate:4.2f}  faults={cell.n_faults:2d} "
            f"survival={cell.survival_fraction:5.0%} "
            f"recovered={cell.recovered} quarantined={cell.quarantined} "
            f"replayed={cell.replayed_steps:3d} "
            f"overhead p90={agg['energy_overhead_p90']:.3f}"
        )
        for outcome in cell.devices:
            scenario = outcome.scenario or "baseline"
            lines.append(
                f"    {outcome.name}  {outcome.policy:12s} {scenario:16s} "
                f"{outcome.health:11s} steps={outcome.steps:3d}/"
                f"{outcome.trace_steps:3d} restarts={outcome.restarts} "
                f"corrupted={outcome.corrupted_observations}"
            )
    return "\n".join(lines)
