"""Fleet supervision: health tracking, fault injection, graceful recovery.

:class:`FleetSupervisor` wraps the lockstep :class:`~repro.fleet.engine
.FleetEngine` with the control-plane behaviour a real deployment needs
(the gridworks-scada precedent: per-device health, flatline detection,
snapshot/restart):

* **Partitioned execution.**  Devices named in the :class:`~repro.fleet
  .faults.FaultPlan` are driven *scalar* by the supervisor (fault
  injection needs per-phase access); all fault-free devices run inside an
  untouched inner ``FleetEngine`` with full cross-device batching.  This
  partition is what makes the two robustness invariants provable rather
  than aspirational:

  - **zero-fault identity** — with an empty plan every device lives in
    the inner engine and the supervisor adds nothing but read-only health
    scans, so a supervised run is *bitwise identical* to a bare
    ``FleetEngine`` run;
  - **quarantine isolation** — faulted devices never enter the engine, and
    per-device noise/fault streams are derived independently of fleet
    membership, so the surviving devices of a fleet where K devices crash
    are *bitwise identical* to a fleet built without the crashed devices.

* **Health state machine.**  Every device is ``HEALTHY`` until the
  watchdog flags it ``DEGRADED`` (its log flatlined for
  ``watchdog_rounds`` lockstep rounds), and is ``QUARANTINED`` on a crash
  or a sustained flatline.  Quarantine never disturbs the other devices:
  the supervisor simply stops driving the session.  A quarantined device
  with restart budget left restores from its last snapshot and becomes
  ``RECOVERED``; replayed steps re-execute deterministically, so a
  recovered device's final log is bitwise identical to an uninterrupted
  run.

* **Snapshots.**  A baseline snapshot is taken before the first step and
  refreshed every ``snapshot_every`` completed steps, as checksummed
  in-memory bytes (:meth:`~repro.core.session.PolicySession
  .snapshot_bytes`).  A snapshot holds the session's state only; the
  restore takes the trace and Oracle table from the session it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.session import PolicySession
from repro.fleet.device import DeviceSpec, build_fleet, device_session
from repro.fleet.engine import FleetEngine
from repro.fleet.faults import FaultPlan, FaultSpec, ObservationFault
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> core)
    from repro.core.framework import PolicyRunResult


class DeviceHealth(Enum):
    """Per-device supervision state."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    RECOVERED = "recovered"


class DeviceCrashError(RuntimeError):
    """A supervised device died mid-step (injected or real)."""


@dataclass
class DeviceStatus:
    """Snapshot of one device's supervision outcome (JSON-friendly)."""

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


class _Supervised:
    """Book-keeping for one scalar-driven (fault-plan) device."""

    __slots__ = (
        "device", "session", "faults", "fired", "health", "history",
        "stall_remaining", "restarts_used", "snapshot", "last_cursor",
        "no_progress_rounds", "crashes", "stalls", "replayed_steps",
        "wasted_energy_j", "corrupted_observations", "watchdog_flags",
    )

    def __init__(self, device: DeviceSpec, session: PolicySession,
                 faults: Tuple[FaultSpec, ...]) -> None:
        self.device = device
        self.session = session
        self.faults = faults
        self.fired: set = set()
        self.health = DeviceHealth.HEALTHY
        self.history: List[DeviceHealth] = [DeviceHealth.HEALTHY]
        self.stall_remaining = 0
        self.restarts_used = 0
        self.snapshot: Optional[bytes] = None
        self.last_cursor = session.step_index
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


class FleetSupervisor:
    """Drive a device fleet to completion under supervision and faults.

    ``plan`` selects which devices are scalar-supervised (those it names)
    versus batched through the inner engine (everyone else); ``None`` or
    an empty plan supervises nothing and is bitwise identical to a bare
    :class:`~repro.fleet.engine.FleetEngine`.  ``snapshot_every`` is the
    snapshot cadence in completed steps (a baseline snapshot at
    step 0 is always taken); ``watchdog_rounds`` is how many lockstep
    rounds a supervised device's log may flatline before it is flagged
    ``DEGRADED`` (quarantine follows at twice that); ``max_restarts``
    bounds snapshot-restarts per device — a device that exhausts it stays
    ``QUARANTINED`` and the fleet completes without it.
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
        #: Device names in fleet order, for membership checks.
        self._names = dict.fromkeys(names)
        if len(self._names) != len(names):
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

        if sessions is not None and len(sessions) != len(self.devices):
            raise ValueError(
                f"sessions count {len(sessions)} does not match device "
                f"count {len(self.devices)}"
            )
        faulted = set(self.plan.device_names())
        self._supervised: List[_Supervised] = []
        self._by_name: Dict[str, _Supervised] = {}
        engine_devices: List[DeviceSpec] = []
        engine_sessions: List[PolicySession] = []
        #: Original order: ("engine", engine_index) | ("supervised", index).
        self._slots: List[Tuple[str, int]] = []
        for index, device in enumerate(self.devices):
            if device.name in faulted:
                # A pre-built session (restore path) is adopted as-is —
                # its policy/log/rng state must not be reset; a fresh run
                # lowers the DeviceSpec the usual way.
                session = (sessions[index] if sessions is not None
                           else device_session(device, simulator, base_space))
                supervised = _Supervised(
                    device, session, self.plan.for_device(device.name)
                )
                self._slots.append(("supervised", len(self._supervised)))
                self._supervised.append(supervised)
                self._by_name[device.name] = supervised
            else:
                self._slots.append(("engine", len(engine_devices)))
                engine_devices.append(device)
                if sessions is not None:
                    engine_sessions.append(sessions[index])
        if not engine_devices:
            self.engine: Optional[FleetEngine] = None
        elif sessions is not None:
            # Restored sessions: skip build_fleet's session construction
            # (and its hazard validation, which targets fresh fleets).
            self.engine = FleetEngine(engine_sessions)
        else:
            self.engine = build_fleet(engine_devices, simulator, base_space)
        # Baseline snapshot: every supervised device can restart
        # from step 0 even if it crashes before the first cadence point.
        for supervised in self._supervised:
            self._take_snapshot(supervised)

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def _take_snapshot(self, supervised: _Supervised) -> None:
        supervised.snapshot = supervised.session.snapshot_bytes()

    def _restore_snapshot(self, supervised: _Supervised) -> None:
        """Replace the live session with its last snapshot."""
        old = supervised.session
        assert supervised.snapshot is not None
        session = PolicySession.restore(supervised.snapshot, self.simulator,
                                        old.snippets,
                                        oracle_table=old.oracle_table)
        if supervised.device.scenario is not None:
            # The schedule is a closure over the space object; rebuild it
            # over the *restored* space so throttle-window identity
            # comparisons keep working (see PolicySession.restore).
            from repro.scenarios.runtime import make_space_schedule

            session.space_schedule = make_space_schedule(
                session.space, supervised.device.scenario
            )
        supervised.replayed_steps += old.step_index - session.step_index
        supervised.wasted_energy_j += (old.total_energy_j
                                       - session.total_energy_j)
        supervised.session = session
        supervised.stall_remaining = 0
        supervised.no_progress_rounds = 0
        supervised.last_cursor = session.step_index

    # ------------------------------------------------------------------ #
    # Health transitions
    # ------------------------------------------------------------------ #
    def _quarantine(self, supervised: _Supervised) -> None:
        """Isolate a dead/hung device, then attempt a snapshot-restart.

        Quarantine touches nothing but this device's own record — the
        engine's groups, tensors and the other devices' RNG streams are
        untouched by construction (the device was never part of them).
        """
        supervised.transition(DeviceHealth.QUARANTINED)
        if supervised.restarts_used >= self.max_restarts:
            return  # stays quarantined; the fleet completes without it
        self._restore_snapshot(supervised)
        supervised.restarts_used += 1
        supervised.transition(DeviceHealth.RECOVERED)

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def _advance_supervised(self, supervised: _Supervised) -> int:
        """One lockstep round of one supervised device (with injection).

        Returns the number of steps completed (0 when stalled, crashed,
        restarting, or quarantined).  Raises :class:`DeviceCrashError`
        for an injected crash; the caller quarantines.
        """
        session = supervised.session
        if supervised.stall_remaining > 0:
            supervised.stall_remaining -= 1
            return 0  # hung: no progress, the log flatlines
        cursor = session.step_index
        observation_faults: List[ObservationFault] = []
        for index, fault in enumerate(supervised.faults):
            if index in supervised.fired or fault.step != cursor:
                continue
            if fault.kind == "crash":
                supervised.fired.add(index)
                supervised.crashes += 1
                raise DeviceCrashError(
                    f"device {supervised.device.name!r} crashed at step "
                    f"{cursor}"
                )
            if fault.kind == "stall":
                supervised.fired.add(index)
                supervised.stalls += 1
                supervised.stall_remaining = fault.rounds  # type: ignore[attr-defined]
                return 0
            if fault.kind == "restart":
                supervised.fired.add(index)
                self._restore_snapshot(supervised)
                supervised.restarts_used += 1
                supervised.transition(DeviceHealth.RECOVERED)
                return 0
            assert isinstance(fault, ObservationFault)
            supervised.fired.add(index)
            observation_faults.append(fault)
        step = session.decide()
        result = session.execute(step)
        for fault in observation_faults:
            result = fault.corrupt(result)
            supervised.corrupted_observations += 1
        session.observe(step, result)
        if (not session.done
                and session.step_index % self.snapshot_every == 0):
            self._take_snapshot(supervised)
        return 1

    def _watchdog_scan(self) -> None:
        """Flatline detection over the supervised devices.

        A supervised device whose log made no progress for
        ``watchdog_rounds`` rounds is flagged ``DEGRADED``; at twice that
        it is quarantined (and restarted, budget permitting).  Inner
        engine sessions are advanced synchronously every round and cannot
        flatline while unfinished, so the watchdog only scans supervised
        sessions.
        """
        for supervised in self._supervised:
            session = supervised.session
            if session.done or self._terminal(supervised):
                continue
            cursor = session.step_index
            if cursor > supervised.last_cursor:
                supervised.last_cursor = cursor
                supervised.no_progress_rounds = 0
                if supervised.health is DeviceHealth.DEGRADED:
                    # The hang cleared on its own before quarantine.
                    supervised.transition(DeviceHealth.HEALTHY)
                continue
            supervised.no_progress_rounds += 1
            if supervised.no_progress_rounds >= 2 * self.watchdog_rounds:
                self._quarantine(supervised)
            elif (supervised.no_progress_rounds >= self.watchdog_rounds
                    and supervised.health in (DeviceHealth.HEALTHY,
                                              DeviceHealth.RECOVERED)):
                supervised.watchdog_flags += 1
                supervised.transition(DeviceHealth.DEGRADED)

    def _terminal(self, supervised: _Supervised) -> bool:
        """Whether this device will never advance again."""
        return (supervised.session.done
                or supervised.health is DeviceHealth.QUARANTINED)

    @property
    def done(self) -> bool:
        engine_done = self.engine is None or self.engine.done
        return engine_done and all(
            self._terminal(supervised) for supervised in self._supervised
        )

    def step_round(self) -> int:
        """Advance the whole fleet by one lockstep round."""
        advanced = 0
        if self.engine is not None and not self.engine.done:
            advanced += self.engine.step()
        for supervised in self._supervised:
            if self._terminal(supervised):
                continue
            try:
                advanced += self._advance_supervised(supervised)
            except DeviceCrashError:
                self._quarantine(supervised)
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
        return [self._session_at(slot).result() for slot in self._slots]

    def _session_at(self, slot: Tuple[str, int]) -> PolicySession:
        kind, index = slot
        if kind == "engine":
            assert self.engine is not None
            return self.engine.sessions[index]
        return self._supervised[index].session

    # ------------------------------------------------------------------ #
    # Control-plane surface (the service layer drives these)
    # ------------------------------------------------------------------ #
    @property
    def sessions(self) -> List[PolicySession]:
        """Live sessions in device input order."""
        return [self._session_at(slot) for slot in self._slots]

    def session_named(self, name: str) -> PolicySession:
        """The live session of one device."""
        for device, slot in zip(self.devices, self._slots):
            if device.name == name:
                return self._session_at(slot)
        raise KeyError(f"unknown device {name!r}")

    def sequential_rng_state(self, session: PolicySession):
        """Sequential-equivalent noise generator of one fleet session.

        Engine-resident sessions delegate to :meth:`~repro.fleet.engine
        .FleetEngine.sequential_rng_state` (their streams were pre-drawn
        at adoption); supervised sessions step scalar, so their live
        generator already is sequential.
        """
        if self.engine is not None:
            return self.engine.sequential_rng_state(session)
        return session.rng

    def health_map(self) -> Dict[str, DeviceHealth]:
        """Current health of every device, keyed by name (device order)."""
        health = dict.fromkeys(self._names, DeviceHealth.HEALTHY)
        for name, supervised in self._by_name.items():
            health[name] = supervised.health
        return health

    def replace_policy(self, name: str, policy) -> None:
        """Swap one device's policy at a round boundary (dispatch path).

        ``policy`` must be built over the target session's own space
        (``policy.space is session.space``), or the engine's batched
        decide would reason over the wrong configuration set.  For an
        engine-resident device the engine is rebuilt around the same
        session objects: every session's generator is first restored to
        its sequential-equivalent state (:meth:`~repro.fleet.engine
        .FleetEngine.release_sessions`), so the new engine's pre-draw
        reproduces exactly the draws the old engine had in store and all
        other devices continue bitwise unchanged.
        """
        session = self.session_named(name)
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
        kind = next(slot[0] for device, slot
                    in zip(self.devices, self._slots) if device.name == name)
        if kind == "engine":
            assert self.engine is not None
            old = self.engine
            old.release_sessions()
            session.policy = policy
            self.engine = FleetEngine(old.sessions)
            # Keep cumulative batching counters meaningful across rebuilds.
            self.engine.steps_executed = old.steps_executed
            self.engine.batched_decisions = old.batched_decisions
            self.engine.batched_executions = old.batched_executions
            self.engine.batched_observes = old.batched_observes
        else:
            session.policy = policy

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def reports(self) -> List[DeviceStatus]:
        """Per-device supervision outcomes, in input order."""
        out: List[DeviceStatus] = []
        for device, slot in zip(self.devices, self._slots):
            session = self._session_at(slot)
            if slot[0] == "engine":
                out.append(DeviceStatus(
                    name=device.name,
                    health=DeviceHealth.HEALTHY.value,
                    supervised=False,
                    steps_completed=session.step_index,
                    trace_steps=len(session),
                    completed=session.done,
                ))
                continue
            supervised = self._supervised[slot[1]]
            out.append(DeviceStatus(
                name=device.name,
                health=supervised.health.value,
                supervised=True,
                steps_completed=session.step_index,
                trace_steps=len(session),
                completed=session.done,
                crashes=supervised.crashes,
                stalls=supervised.stalls,
                restarts=supervised.restarts_used,
                replayed_steps=supervised.replayed_steps,
                wasted_energy_j=supervised.wasted_energy_j,
                corrupted_observations=supervised.corrupted_observations,
                watchdog_flags=supervised.watchdog_flags,
            ))
        return out

    def health_of(self, name: str) -> DeviceHealth:
        """Current health of one device (engine devices are HEALTHY)."""
        supervised = self._by_name.get(name)
        if supervised is not None:
            return supervised.health
        if name not in self._names:
            raise KeyError(f"unknown device {name!r}")
        return DeviceHealth.HEALTHY

    def health_history(self, name: str) -> List[DeviceHealth]:
        """Transition history of one supervised device."""
        supervised = self._by_name.get(name)
        if supervised is None:
            raise KeyError(f"device {name!r} is not supervised")
        return list(supervised.history)

    @property
    def survival_fraction(self) -> float:
        """Fraction of devices that completed their full trace."""
        done = sum(1 for slot in self._slots
                   if self._session_at(slot).done)
        return done / len(self.devices)
