"""Lockstep multi-device fleet simulation.

Public surface:

* :class:`~repro.fleet.device.DeviceSpec` — one device's policy, trace,
  seed, and optional scenario / restricted space.
* :func:`~repro.fleet.device.build_fleet` /
  :func:`~repro.fleet.device.device_session` — lower device specs onto
  sessions and a ready engine (warning about RNG hazards via
  :class:`~repro.fleet.device.FleetBuildWarning`).
* :class:`~repro.fleet.engine.FleetEngine` — advance N sessions in
  lockstep with cross-session batched decides and executions, bitwise
  identical to N independent sequential runs.
* :func:`~repro.fleet.kernels.lockstep_execute` /
  :class:`~repro.fleet.kernels.TraceArrays` — the vectorized
  many-device execution kernel.
* :class:`~repro.fleet.faults.FaultPlan` and the
  :class:`~repro.fleet.faults.FaultSpec` family — deterministic,
  seedable fault injection (counter dropout, telemetry corruption,
  crashes, stragglers, snapshot-restarts).
* :class:`~repro.fleet.supervisor.FleetSupervisor` — health state
  machine, flatline watchdog, quarantine and snapshot-restart recovery
  layered over the engine without disturbing its bitwise contract.
* :class:`~repro.fleet.sharding.ShardedFleetEngine` — partition the
  device list into shards, each run by a child process of the engine
  (O(devices) streamed summaries), bitwise identical to the
  single-process engine and invariant to the shard count.
"""

from repro.fleet.device import (
    DeviceSpec,
    FleetBuildWarning,
    build_fleet,
    device_session,
)
from repro.fleet.engine import FleetEngine
from repro.fleet.faults import (
    CounterDropout,
    DeviceCrash,
    FaultPlan,
    FaultSpec,
    ObservationFault,
    SnapshotRestart,
    StragglerStall,
    TelemetryCorruption,
    fault_from_dict,
)
from repro.fleet.kernels import TraceArrays, lockstep_execute
from repro.fleet.sharding import (
    ShardDeviceSummary,
    ShardedFleetEngine,
    ShardExecutionError,
)
from repro.fleet.supervisor import (
    DeviceCrashError,
    DeviceHealth,
    DeviceStatus,
    FleetSupervisor,
)

__all__ = [
    "CounterDropout",
    "DeviceCrash",
    "DeviceCrashError",
    "DeviceHealth",
    "DeviceSpec",
    "DeviceStatus",
    "FaultPlan",
    "FaultSpec",
    "FleetBuildWarning",
    "FleetEngine",
    "FleetSupervisor",
    "ObservationFault",
    "ShardDeviceSummary",
    "ShardExecutionError",
    "ShardedFleetEngine",
    "SnapshotRestart",
    "StragglerStall",
    "TelemetryCorruption",
    "TraceArrays",
    "build_fleet",
    "device_session",
    "fault_from_dict",
    "lockstep_execute",
]
