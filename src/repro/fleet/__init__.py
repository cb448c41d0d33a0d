"""Lockstep multi-device fleet simulation.

Public surface:

* :class:`~repro.fleet.device.DeviceSpec` — one device's policy, trace
  or scenario trace, private noise generator and optional Oracle table.
* :func:`~repro.fleet.device.build_fleet` /
  :func:`~repro.fleet.device.device_session` — lower device specs onto
  sessions (each drawing its noise from its device's generator) and a
  prepared engine; ``build_fleet`` refuses, naming the devices, a device
  without a noise generator of its own.
* :class:`~repro.fleet.engine.FleetEngine` — advance N sessions in
  lockstep with cross-session batched decides and executions, bitwise
  identical to N independent sequential runs.  It refuses, naming the
  devices, a fleet outside its one input shape: one stock simulator and
  one space content with each policy over its session's space.
* :class:`~repro.fleet.faults.FaultPlan` and the
  :class:`~repro.fleet.faults.FaultSpec` family — deterministic,
  seedable fault injection (counter dropout, telemetry corruption,
  crashes, stragglers, snapshot-restarts).
* :class:`~repro.fleet.supervisor.FleetSupervisor` — health state
  machine, flatline watchdog, quarantine and snapshot-restart recovery
  over one engine, injecting faults as its per-round held rows and
  result transforms without disturbing its bitwise contract.
* :class:`~repro.fleet.sharding.ShardedFleetEngine` — partition the
  device list into shards, each run by a child process of the engine
  (O(devices) streamed summaries), bitwise identical to the
  single-process engine and invariant to the shard count.
"""

from repro.fleet.device import (
    DeviceSpec,
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
from repro.fleet.sharding import (
    ShardDeviceSummary,
    ShardedFleetEngine,
    ShardExecutionError,
)
from repro.fleet.supervisor import (
    DeviceHealth,
    DeviceStatus,
    FleetSupervisor,
)

__all__ = [
    "CounterDropout",
    "DeviceCrash",
    "DeviceHealth",
    "DeviceSpec",
    "DeviceStatus",
    "FaultPlan",
    "FaultSpec",
    "FleetEngine",
    "FleetSupervisor",
    "ObservationFault",
    "ShardDeviceSummary",
    "ShardExecutionError",
    "ShardedFleetEngine",
    "SnapshotRestart",
    "StragglerStall",
    "TelemetryCorruption",
    "build_fleet",
    "device_session",
    "fault_from_dict",
]
