"""Fleet supervision: health tracking, fault injection, graceful recovery.

:class:`FleetSupervisor` drives one lockstep :class:`~repro.fleet.engine
.FleetEngine` over the whole fleet with the control-plane behaviour a
real deployment needs (the gridworks-scada precedent: per-device health,
flatline detection, snapshot/restart):

* **Faults as per-round engine inputs.**  Before each round the
  supervisor applies the faults due at the cursor of every device named
  in the :class:`~repro.fleet.faults.FaultPlan`: a crash, a stall, a
  restart or a standing quarantine holds the device's fleet row out of
  the round, and observation faults become the row's result transform
  (see :meth:`~repro.fleet.engine.FleetEngine.step`).  On every other
  round a faulted device batches with the rest of the fleet.  Two
  robustness invariants follow:

  - **zero-fault identity** — with an empty plan nothing is held or
    transformed and the supervisor adds nothing but read-only health
    scans, so a supervised run is *bitwise identical* to a bare
    ``FleetEngine`` run;
  - **quarantine isolation** — a held row leaves every batched group,
    sessions share no mutable state, and per-device noise/fault streams
    are derived independently of fleet membership, so the surviving
    devices of a fleet where K devices crash are *bitwise identical* to a
    fleet built without the crashed devices.

* **Health state machine.**  Every device is ``HEALTHY`` until the
  watchdog flags it ``DEGRADED`` (its log flatlined for
  ``watchdog_rounds`` lockstep rounds), and is ``QUARANTINED`` on a crash
  or a sustained flatline.  Quarantine never disturbs the other devices:
  the supervisor simply holds the device's row.  A quarantined device
  with restart budget left restores from its last snapshot and becomes
  ``RECOVERED``; replayed steps re-execute deterministically, so a
  recovered device's final log is bitwise identical to an uninterrupted
  run.

* **Snapshots.**  Each plan-named device gets a baseline snapshot before
  the first step, refreshed every ``snapshot_every`` completed steps and
  after a policy swap or a dispatched OPP cap, as checksummed in-memory
  bytes (:meth:`~repro.core.session.PolicySession.snapshot_bytes`).  A
  snapshot holds the session's state only (the dispatched cap included);
  a restart restores it onto the session it replaces, which supplies the
  definition — trace, Oracle table, noise, trace caps — and the restored
  session takes its row of the engine in place
  (:meth:`~repro.fleet.engine.FleetEngine.replace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.session import PolicySession
from repro.fleet.device import DeviceSpec, build_fleet
from repro.fleet.engine import FleetEngine, ResultTransform
from repro.fleet.faults import FaultPlan, FaultSpec, ObservationFault
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SnippetResult, SoCSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> core)
    from repro.core.framework import PolicyRunResult


class DeviceHealth(Enum):
    """Per-device supervision state."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    RECOVERED = "recovered"


@dataclass
class DeviceStatus:
    """Snapshot of one device's supervision outcome (JSON-friendly).

    ``supervised`` says whether the fault plan names the device.
    """

    name: str
    health: str
    supervised: bool
    steps_completed: int
    trace_steps: int
    completed: bool
    crashes: int = 0
    stalls: int = 0
    restarts: int = 0
    replayed_steps: int = 0
    wasted_energy_j: float = 0.0
    corrupted_observations: int = 0
    watchdog_flags: int = 0


class _DeviceRecord:
    """Supervision book-keeping of one device (``faults`` empty unless the
    plan names it)."""

    __slots__ = (
        "device", "row", "faults", "fired", "health", "history",
        "stall_remaining", "restarts_used", "snapshot", "last_cursor",
        "no_progress_rounds", "crashes", "stalls", "replayed_steps",
        "wasted_energy_j", "corrupted_observations", "watchdog_flags",
    )

    def __init__(self, device: DeviceSpec, row: int, cursor: int,
                 faults: Tuple[FaultSpec, ...]) -> None:
        self.device = device
        self.row = row
        self.faults = faults
        self.fired: set = set()
        self.health = DeviceHealth.HEALTHY
        self.history: List[DeviceHealth] = [DeviceHealth.HEALTHY]
        self.stall_remaining = 0
        self.restarts_used = 0
        self.snapshot: Optional[bytes] = None
        self.last_cursor = cursor
        self.no_progress_rounds = 0
        self.crashes = 0
        self.stalls = 0
        self.replayed_steps = 0
        self.wasted_energy_j = 0.0
        self.corrupted_observations = 0
        self.watchdog_flags = 0

    def transition(self, health: DeviceHealth) -> None:
        if health is not self.health:
            self.health = health
            self.history.append(health)


def _corrupt(faults: Tuple[ObservationFault, ...],
             result: SnippetResult) -> SnippetResult:
    for fault in faults:
        result = fault.corrupt(result)
    return result


class FleetSupervisor:
    """Drive a device fleet to completion under supervision and faults.

    Every device steps inside one :class:`~repro.fleet.engine
    .FleetEngine`; ``plan`` names the devices whose faults the supervisor
    injects (``None`` or an empty plan injects nothing and is bitwise
    identical to a bare engine).  ``snapshot_every`` is the snapshot
    cadence in completed steps (a baseline snapshot at step 0 is always
    taken); ``watchdog_rounds`` is how many lockstep rounds a plan-named
    device's log may flatline before it is flagged ``DEGRADED``
    (quarantine follows at twice that); ``max_restarts`` bounds
    snapshot-restarts per device — a device that exhausts it stays
    ``QUARANTINED`` and the fleet completes without it.  ``sessions``
    (the restore path) are adopted as-is instead of lowering ``devices``.
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
        base_space: ConfigurationSpace,
        plan: Optional[FaultPlan] = None,
        snapshot_every: int = 5,
        watchdog_rounds: int = 3,
        max_restarts: int = 2,
        sessions: Optional[Sequence[PolicySession]] = None,
    ) -> None:
        self.devices: List[DeviceSpec] = list(devices)
        if not self.devices:
            raise ValueError("FleetSupervisor needs at least one device")
        names = [device.name for device in self.devices]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate device names in fleet: {names}")
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if watchdog_rounds < 1:
            raise ValueError(
                f"watchdog_rounds must be >= 1, got {watchdog_rounds}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.plan = plan if plan is not None else FaultPlan()
        unknown = set(self.plan.device_names()) - set(names)
        if unknown:
            raise ValueError(
                f"fault plan names devices not in the fleet: {sorted(unknown)}"
            )
        self.simulator = simulator
        self.base_space = base_space
        self.snapshot_every = int(snapshot_every)
        self.watchdog_rounds = int(watchdog_rounds)
        self.max_restarts = int(max_restarts)
        self.rounds = 0

        if sessions is None:
            self.engine = build_fleet(self.devices, simulator, base_space)
        elif len(sessions) != len(self.devices):
            raise ValueError(
                f"sessions count {len(sessions)} does not match device "
                f"count {len(self.devices)}"
            )
        else:
            # Restored sessions: skip build_fleet's session construction;
            # the engine's prepare() checks them like a fresh fleet.
            self.engine = FleetEngine(sessions)
        #: One record per device, in fleet order (a record's row is its
        #: device's position in engine.sessions).
        self._records = [
            _DeviceRecord(device, row, session.step_index,
                          self.plan.for_device(device.name))
            for row, (device, session)
            in enumerate(zip(self.devices, self.engine.sessions))
        ]
        self._by_name: Dict[str, _DeviceRecord] = {
            record.device.name: record for record in self._records
        }
        #: The records of the devices the plan names.
        self._supervised = [record for record in self._records
                            if record.faults]
        # Baseline snapshot: every supervised device can restart
        # from step 0 even if it crashes before the first cadence point.
        for record in self._supervised:
            self._take_snapshot(record)

    # ------------------------------------------------------------------ #
    # Snapshots and restarts
    # ------------------------------------------------------------------ #
    def _take_snapshot(self, record: _DeviceRecord) -> None:
        record.snapshot = self.engine.sessions[record.row].snapshot_bytes()

    def _restart(self, record: _DeviceRecord) -> None:
        """Replace the live session with its last snapshot (``RECOVERED``)."""
        old = self.engine.sessions[record.row]
        assert record.snapshot is not None
        session = PolicySession.restore(record.snapshot, old)
        record.replayed_steps += old.step_index - session.step_index
        record.wasted_energy_j += old.total_energy_j - session.total_energy_j
        self.engine.replace(record.row, session)
        record.stall_remaining = 0
        record.no_progress_rounds = 0
        record.last_cursor = session.step_index
        record.restarts_used += 1
        record.transition(DeviceHealth.RECOVERED)

    # ------------------------------------------------------------------ #
    # Health transitions
    # ------------------------------------------------------------------ #
    def _quarantine(self, record: _DeviceRecord) -> None:
        """Isolate a dead/hung device, then attempt a snapshot-restart.

        Quarantine touches nothing but this device's own record and row:
        a held row leaves the engine's batched groups, and no other
        device's state or noise stream depends on it.
        """
        record.transition(DeviceHealth.QUARANTINED)
        if record.restarts_used < self.max_restarts:
            self._restart(record)
        # Otherwise it stays quarantined; the fleet completes without it.

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _inject_faults(self, record: _DeviceRecord,
                       transforms: Dict[int, ResultTransform]) -> bool:
        """Apply one plan-named device's faults due at its cursor.

        Returns whether the device steps this round.  A finished or
        quarantined device, a crash, a stall and a restart hold it;
        observation faults become its row's result transform.
        """
        if self._terminal(record):
            return False
        if record.stall_remaining > 0:
            record.stall_remaining -= 1
            return False  # hung: no progress, the log flatlines
        cursor = self.engine.sessions[record.row].step_index
        observation_faults: List[ObservationFault] = []
        for index, fault in enumerate(record.faults):
            if index in record.fired or fault.step != cursor:
                continue
            record.fired.add(index)
            if fault.kind == "crash":
                record.crashes += 1
                self._quarantine(record)
                return False
            if fault.kind == "stall":
                record.stalls += 1
                record.stall_remaining = fault.rounds  # type: ignore[attr-defined]
                return False
            if fault.kind == "restart":
                self._restart(record)
                return False
            assert isinstance(fault, ObservationFault)
            observation_faults.append(fault)
        if observation_faults:
            record.corrupted_observations += len(observation_faults)
            transforms[record.row] = partial(_corrupt,
                                             tuple(observation_faults))
        return True

    def _watchdog_scan(self) -> None:
        """Flatline detection over the supervised devices.

        A supervised device whose log made no progress for
        ``watchdog_rounds`` rounds is flagged ``DEGRADED``; at twice that
        it is quarantined (and restarted, budget permitting).  A device
        the plan does not name is never held, so it advances every round
        until it finishes and cannot flatline; the watchdog only scans
        supervised devices.
        """
        for record in self._supervised:
            if self._terminal(record):
                continue
            cursor = self.engine.sessions[record.row].step_index
            if cursor > record.last_cursor:
                record.last_cursor = cursor
                record.no_progress_rounds = 0
                if record.health is DeviceHealth.DEGRADED:
                    # The hang cleared on its own before quarantine.
                    record.transition(DeviceHealth.HEALTHY)
                continue
            record.no_progress_rounds += 1
            if record.no_progress_rounds >= 2 * self.watchdog_rounds:
                self._quarantine(record)
            elif (record.no_progress_rounds >= self.watchdog_rounds
                    and record.health in (DeviceHealth.HEALTHY,
                                          DeviceHealth.RECOVERED)):
                record.watchdog_flags += 1
                record.transition(DeviceHealth.DEGRADED)

    def _terminal(self, record: _DeviceRecord) -> bool:
        """Whether this device will never advance again."""
        return (self.engine.sessions[record.row].done
                or record.health is DeviceHealth.QUARANTINED)

    @property
    def done(self) -> bool:
        return all(self._terminal(record) for record in self._records)

    def step_round(self) -> int:
        """Advance the whole fleet by one lockstep round."""
        transforms: Dict[int, ResultTransform] = {}
        held = {record.row for record in self._supervised
                if not self._inject_faults(record, transforms)}
        advanced = self.engine.step(held, transforms)
        for record in self._supervised:
            session = self.engine.sessions[record.row]
            if (record.row not in held and not session.done
                    and session.step_index % self.snapshot_every == 0):
                self._take_snapshot(record)
        self._watchdog_scan()
        self.rounds += 1
        return advanced

    def run(self) -> List["PolicyRunResult"]:
        """Drive the fleet to completion; per-device results in input order.

        Quarantined devices that exhausted their restart budget contribute
        their partial (pre-crash snapshot-replayed) results.
        """
        while not self.done:
            self.step_round()
        return [session.result() for session in self.engine.sessions]

    # ------------------------------------------------------------------ #
    # Control-plane surface (the service layer drives these)
    # ------------------------------------------------------------------ #
    def _record(self, name: str) -> _DeviceRecord:
        record = self._by_name.get(name)
        if record is None:
            raise KeyError(f"unknown device {name!r}")
        return record

    @property
    def sessions(self) -> List[PolicySession]:
        """Live sessions in device input order."""
        return list(self.engine.sessions)

    def session_named(self, name: str) -> PolicySession:
        """The live session of one device."""
        return self.engine.sessions[self._record(name).row]

    def health_map(self) -> Dict[str, DeviceHealth]:
        """Current health of every device, keyed by name (device order)."""
        return {name: record.health for name, record in self._by_name.items()}

    def replace_policy(self, name: str, policy) -> None:
        """Swap one device's policy at a round boundary (dispatch path).

        ``policy`` must be built over the target session's own space
        (``policy.space is session.space``), or the engine's batched
        decide would reason over the wrong configuration set.  The
        engine regroups the session in place
        (:meth:`~repro.fleet.engine.FleetEngine.replace`), and a supervised
        device's snapshot is refreshed, so a later restore resumes under
        the new policy.
        """
        record = self._record(name)
        session = self.engine.sessions[record.row]
        if session.pending is not None:
            raise RuntimeError(
                f"device {name!r} has an unobserved pending step; policies "
                "can only be swapped at a round boundary"
            )
        if policy.space is not session.space:
            raise ValueError(
                f"replacement policy for {name!r} must be built over the "
                "session's own configuration space"
            )
        session.policy = policy
        self.engine.replace(record.row, session)
        if record.faults:
            self._take_snapshot(record)

    def restrict_space(self, name: str, cap: Optional[int]) -> None:
        """Cap one device's OPP indices from its next decision on (``None``
        lifts the cap; dispatch path).

        The cap is session state (:attr:`~repro.core.session.PolicySession
        .dispatched_cap`), composed with the trace's caps at every step; a
        supervised device's snapshot is refreshed, so a later restart
        keeps it.
        """
        record = self._record(name)
        self.engine.sessions[record.row].dispatched_cap = cap
        if record.faults:
            self._take_snapshot(record)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def reports(self) -> List[DeviceStatus]:
        """Per-device supervision outcomes, in input order."""
        return [
            DeviceStatus(
                name=record.device.name,
                health=record.health.value,
                supervised=bool(record.faults),
                steps_completed=session.step_index,
                trace_steps=len(session),
                completed=session.done,
                crashes=record.crashes,
                stalls=record.stalls,
                restarts=record.restarts_used,
                replayed_steps=record.replayed_steps,
                wasted_energy_j=record.wasted_energy_j,
                corrupted_observations=record.corrupted_observations,
                watchdog_flags=record.watchdog_flags,
            )
            for record, session in zip(self._records, self.engine.sessions)
        ]

    def health_of(self, name: str) -> DeviceHealth:
        """Current health of one device."""
        return self._record(name).health

    def health_history(self, name: str) -> List[DeviceHealth]:
        """Transition history of one device."""
        return list(self._record(name).history)

    @property
    def survival_fraction(self) -> float:
        """Fraction of devices that completed their full trace."""
        done = sum(1 for session in self.engine.sessions if session.done)
        return done / len(self.devices)
