"""Journaled fleet runs: the control plane's crash-safe state machine.

:class:`ServiceRun` wraps a :class:`~repro.fleet.supervisor.FleetSupervisor`
with the durability and dispatch semantics of the control-plane service:

* **Journal-before-apply.**  Every accepted dispatch is stamped with the
  fleet round boundary it will apply at (``apply_round``) and appended
  to the run journal, fsync'd, *before* it mutates anything.  Every
  completed fleet round appends a :class:`~repro.service.protocol
  .StepBoundary` record that is flushed but not fsync'd: recovery never
  reads one, because deterministic replay recomputes every round.
* **Snapshot rotation.**  Every ``snapshot_every`` rounds (and at round
  0), every session's state (engine-resident sessions at their
  sequential-equivalent generator state) goes into one checksummed file,
  ``snapshots/round-NNNNNNNN.snapshot``, published with
  :func:`~repro.core.session.write_durable`; only then is a
  :class:`~repro.service.protocol.SnapshotManifest` naming the file and
  its sha256 journaled.
* **Recovery invariant.**  ``kill -9`` at any instant, then
  :meth:`ServiceRun.recover`: the fleet is rebuilt deterministically
  from the genesis config, sessions restore from the newest manifest
  whose file verifies, dispatches that applied before the restore
  point are re-applied (space caps; policy swaps are already inside the
  snapshots) and later ones are replayed at their recorded boundaries —
  so the completed run's per-device logs and energy accounts are
  **bitwise identical** to an uninterrupted run.  With journaling off
  (``journal_dir=None``) the run is bitwise identical to a bare
  :class:`~repro.fleet.engine.FleetEngine` /
  :class:`~repro.fleet.supervisor.FleetSupervisor` run — the control
  plane adds zero overhead to the hot loop.

The deterministic-replay scope matches the supervisor's own invariants:
it is proven for fault-free fleets (injected-fault bookkeeping —
fired faults, in-flight stalls — intentionally lives outside session
snapshots; a recovered faulted run still completes, but already-fired
faults do not re-fire).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.control.policy import DRMPolicy, GovernorPolicy, StaticPolicy
from repro.core.session import (PolicySession, SnapshotError, pack_states,
                                unpack_states, write_durable)
from repro.fleet.device import DeviceSpec
from repro.fleet.faults import FaultPlan, fault_from_dict
from repro.fleet.supervisor import DeviceHealth, FleetSupervisor
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.runtime import make_space_schedule
from repro.service.journal import (
    Journal,
    JournalError,
    file_sha256,
    read_journal,
)
from repro.service.protocol import (
    DeviceRegistration,
    DispatchCommand,
    DispatchReceipt,
    ErrorReport,
    FlatlineAlert,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
    TelemetryReport,
    encode_message,
)
from repro.soc.configuration import ConfigurationSpace
from repro.soc.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.utils.rng import derive_seed, make_rng, stable_name_id
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

#: Journal file name inside a run directory.
JOURNAL_FILE = "journal.bin"

#: Snapshot rotations kept on disk (older ones are pruned).
SNAPSHOT_ROTATIONS_KEPT = 2

#: Journal-relative path of the snapshot rotation taken at a round.
ROTATION_FILE = "snapshots/round-{:08d}.snapshot"

#: Label of the one :class:`SnapshotManifest` entry (the rotation file).
ROTATION_LABEL = "fleet"

#: Seed-stream key of every generator the service derives per device.
_SERVICE_STREAM = stable_name_id("service-fleet")

#: Policies the service can build by name (``set-policy`` dispatches are
#: restricted to these — swapping in an online-IL policy would need the
#: trained framework, which a recovered process cannot rebuild cheaply).
SWAPPABLE_POLICIES = ("static", "ondemand", "interactive", "performance",
                      "powersave")

_GOVERNORS = {
    "ondemand": OndemandGovernor,
    "interactive": InteractiveGovernor,
    "performance": PerformanceGovernor,
    "powersave": PowersaveGovernor,
}


def build_named_policy(name: str, space: ConfigurationSpace) -> DRMPolicy:
    """Construct one of the by-name policies over ``space``."""
    if name == "static":
        return StaticPolicy(space)
    governor = _GOVERNORS.get(name)
    if governor is None:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {SWAPPABLE_POLICIES} "
            "or 'online-il'"
        )
    return GovernorPolicy(governor(space))


@dataclass(frozen=True)
class RunConfig:
    """Deterministic fleet-run configuration (the journal genesis payload).

    Everything recovery needs to rebuild the same fleet: the policy kind,
    the scale preset (trace length/training budget), the device count,
    the master seed, the scenario rotation and the snapshot cadence.
    ``faults`` optionally carries :func:`~repro.fleet.faults
    .fault_from_dict` payloads — those devices run scalar-supervised
    under the watchdog.
    """

    policy: str = "ondemand"
    scale: str = "tiny"
    n_devices: int = 4
    seed: int = 0
    scenarios: Tuple[str, ...] = ()
    snapshot_every: int = 5
    faults: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if (self.policy != "online-il"
                and self.policy not in SWAPPABLE_POLICIES):
            raise ValueError(f"unknown policy {self.policy!r}")
        unknown = set(self.scenarios) - set(available_scenarios())
        if unknown:
            raise ValueError(f"unknown scenarios {sorted(unknown)}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "scale": self.scale,
            "n_devices": self.n_devices,
            "seed": self.seed,
            "scenarios": list(self.scenarios),
            "snapshot_every": self.snapshot_every,
            "faults": [dict(f) for f in self.faults],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunConfig":
        return cls(
            policy=payload["policy"],
            scale=payload["scale"],
            n_devices=int(payload["n_devices"]),
            seed=int(payload["seed"]),
            scenarios=tuple(payload.get("scenarios", ())),
            snapshot_every=int(payload.get("snapshot_every", 5)),
            faults=tuple(dict(f) for f in payload.get("faults", ())),
        )


def build_config_devices(
    config: RunConfig,
) -> Tuple[List[DeviceSpec], SoCSimulator, ConfigurationSpace]:
    """Deterministically lower a :class:`RunConfig` onto a device fleet.

    Calling this twice with equal configs produces fleets whose runs are
    bitwise identical — every trace, policy and noise stream is derived
    from ``config.seed`` through named streams, which is what makes
    journal recovery's fleet rebuild sound.
    """
    from repro.experiments.scales import get_scale

    scale = get_scale(config.scale)
    if config.policy == "online-il":
        from repro.experiments.common import build_trained_framework

        framework = build_trained_framework(scale, seed=config.seed)
        simulator = framework.simulator
        space = framework.space
    else:
        framework = None
        platform = odroid_xu3_like()
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(
            platform, noise_scale=0.02,
            seed=derive_seed(config.seed, (_SERVICE_STREAM, 3)),
        )
    rotation: List[Optional[str]] = [None]
    rotation.extend(config.scenarios)
    devices: List[DeviceSpec] = []
    for i in range(config.n_devices):
        sequence = build_online_sequence(
            specs=unseen_workloads(),
            snippet_factor=scale.sequence_snippet_factor,
            seed=derive_seed(config.seed, (_SERVICE_STREAM, 0, i)),
        )
        if framework is not None:
            policy: DRMPolicy = framework.build_online_il_policy(
                buffer_capacity=scale.buffer_capacity,
                update_epochs=scale.update_epochs,
                isolated=True,
            )
        else:
            policy = build_named_policy(config.policy, space)
        noise_rng = make_rng(derive_seed(config.seed, (_SERVICE_STREAM, 1, i)))
        name = f"device-{i:02d}"
        scenario_name = rotation[i % len(rotation)]
        if scenario_name is None:
            devices.append(DeviceSpec(
                name=name, policy=policy, snippets=sequence.snippets,
                rng=noise_rng,
            ))
        else:
            trace = get_scenario(scenario_name).apply(
                sequence.snippets,
                derive_seed(config.seed, (_SERVICE_STREAM, 2, i)),
            )
            devices.append(DeviceSpec(
                name=name, policy=policy, scenario=trace, rng=noise_rng,
            ))
    return devices, simulator, space


class _CapSchedule:
    """Space schedule composing dispatched OPP caps with a scenario schedule.

    Installed lazily on a session by the first ``restrict-space``
    dispatch it receives; from then on it stays installed (so the log's
    ``throttled`` column keeps being recorded even after the cap lifts,
    exactly as an uninterrupted run would).  ``base`` must be the
    session's own space object — identity comparisons in
    :meth:`~repro.core.session.PolicySession.decide` depend on it.
    :meth:`~repro.soc.configuration.ConfigurationSpace.restrict` memoises
    per base space, so the per-step call returns a cached object (and the
    base itself for a non-binding cap).
    """

    def __init__(self, base: ConfigurationSpace,
                 inner: Optional[Callable[[int], ConfigurationSpace]]) -> None:
        self.base = base
        self.inner = inner
        self.cap: Optional[int] = None

    def __call__(self, step: int) -> ConfigurationSpace:
        space = self.base if self.inner is None else self.inner(step)
        if self.cap is None:
            return space
        return space.restrict(max_opp_index=self.cap)


class ServiceRun:
    """One journaled (or journal-free) fleet run driven by the control plane.

    Use the :meth:`start` / :meth:`recover` constructors.  The run is
    stepped with :meth:`step_round` (dispatches apply at these
    boundaries) and accepts :class:`~repro.service.protocol
    .DispatchCommand` mutations through :meth:`dispatch`.
    """

    def __init__(
        self,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
        space: ConfigurationSpace,
        config: Optional[RunConfig] = None,
        sessions: Optional[Sequence[PolicySession]] = None,
        journal: Optional[Journal] = None,
        journal_dir: Optional[Path] = None,
        snapshot_every: int = 5,
        rounds: int = 0,
    ) -> None:
        self.config = config
        self.devices = list(devices)
        self.simulator = simulator
        self.space = space
        self.journal = journal
        self.journal_dir = journal_dir
        self.snapshot_every = int(snapshot_every)
        self.rounds = int(rounds)
        self.paused = False
        self.alerts: List[FlatlineAlert] = []
        self.errors: List[ErrorReport] = []
        plan = None
        if config is not None and config.faults:
            plan = FaultPlan(faults=tuple(
                fault_from_dict(dict(payload)) for payload in config.faults
            ))
        self.supervisor = FleetSupervisor(
            self.devices, simulator, space, plan=plan,
            snapshot_every=self.snapshot_every, sessions=sessions,
        )
        self._device_of = {device.name: device for device in self.devices}
        self._policy_of = {device.name: device.policy.name
                           for device in self.devices}
        self._caps: Dict[str, _CapSchedule] = {}
        self._receipts: Dict[str, DispatchReceipt] = {}
        self._pending_dispatches: List[DispatchCommand] = []
        self._last_health: Dict[str, DeviceHealth] = \
            self.supervisor.health_map()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def start(
        cls,
        config: Optional[RunConfig] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        devices: Optional[Sequence[DeviceSpec]] = None,
        simulator: Optional[SoCSimulator] = None,
        space: Optional[ConfigurationSpace] = None,
        snapshot_every: Optional[int] = None,
        genesis_meta: Optional[Dict[str, Any]] = None,
    ) -> "ServiceRun":
        """Begin a fresh run (journaled when ``journal_dir`` is given).

        Either pass a :class:`RunConfig` (the fleet is built
        deterministically from it, and recovery can rebuild it from the
        journal alone) or a pre-built ``devices``/``simulator``/``space``
        fleet (external mode: :meth:`recover` must then be handed the
        same fleet again, rebuilt by the caller — the journal records
        ``genesis_meta`` so the caller can check what it was).
        """
        if config is not None:
            devices, simulator, space = build_config_devices(config)
            cadence = config.snapshot_every
            genesis: Dict[str, Any] = config.to_dict()
        else:
            if devices is None or simulator is None or space is None:
                raise ValueError(
                    "start() needs a RunConfig or devices+simulator+space"
                )
            cadence = snapshot_every if snapshot_every is not None else 5
            genesis = {"external": True, **(genesis_meta or {})}
        if snapshot_every is not None:
            cadence = snapshot_every
        journal = None
        journal_path: Optional[Path] = None
        if journal_dir is not None:
            journal_path = Path(journal_dir)
            journal = Journal(journal_path / JOURNAL_FILE, create=True)
        run = cls(devices, simulator, space, config=config, journal=journal,
                  journal_dir=journal_path, snapshot_every=cadence)
        if journal is not None:
            journal.append(RunGenesis(config=genesis))
            supervised = set(run.supervisor.plan.device_names())
            for device, session in zip(run.devices, run.supervisor.sessions):
                journal.append(DeviceRegistration(
                    device=device.name,
                    policy=device.policy.name,
                    trace_steps=len(session),
                    scenario=(device.scenario.scenario_name
                              if device.scenario is not None else ""),
                    supervised=device.name in supervised,
                ))
            run._rotate_snapshots()
        return run

    @classmethod
    def recover(
        cls,
        journal_dir: Union[str, Path],
        devices: Optional[Sequence[DeviceSpec]] = None,
        simulator: Optional[SoCSimulator] = None,
        space: Optional[ConfigurationSpace] = None,
    ) -> "ServiceRun":
        """Rebuild a run from its journal after a crash (or clean exit).

        The fleet is rebuilt from the genesis config (or taken from the
        caller in external mode), sessions restore from the newest
        snapshot manifest whose file verifies (falling back to older
        manifests, and to a from-scratch replay when none survive), and
        journaled dispatches are re-applied/queued so the continued run
        is bitwise identical to an uninterrupted one.
        """
        journal_path = Path(journal_dir)
        messages, _truncated = read_journal(journal_path / JOURNAL_FILE)
        if not messages or not isinstance(messages[0], RunGenesis):
            raise JournalError(
                f"journal in {journal_path} has no genesis record"
            )
        genesis = messages[0].config
        config: Optional[RunConfig] = None
        if genesis.get("external"):
            if devices is None or simulator is None or space is None:
                raise ValueError(
                    "this journal belongs to an externally built fleet; "
                    "recover() must be handed the same "
                    "devices+simulator+space again"
                )
            cadence = int(genesis.get("snapshot_every", 5))
        else:
            config = RunConfig.from_dict(genesis)
            devices, simulator, space = build_config_devices(config)
            cadence = config.snapshot_every
        manifests = [m for m in messages if isinstance(m, SnapshotManifest)]
        dispatches = [m for m in messages if isinstance(m, DispatchCommand)]
        sessions: Optional[List[PolicySession]] = None
        restore_round = 0
        for manifest in reversed(manifests):
            try:
                sessions = cls._restore_manifest(
                    journal_path, manifest, devices, simulator
                )
            except (SnapshotError, JournalError, OSError):
                continue
            restore_round = manifest.round
            break
        journal = Journal(journal_path / JOURNAL_FILE)
        run = cls(devices, simulator, space, config=config,
                  sessions=sessions, journal=journal,
                  journal_dir=journal_path, snapshot_every=cadence,
                  rounds=restore_round)
        for command in dispatches:
            receipt = DispatchReceipt(
                idempotency_key=command.idempotency_key,
                apply_round=(command.apply_round or 0),
                status="accepted",
            )
            if command.idempotency_key:
                run._receipts[command.idempotency_key] = receipt
            if (command.apply_round or 0) < restore_round:
                run._apply_dispatch(command, restored=True)
            else:
                run._pending_dispatches.append(command)
        return run

    @staticmethod
    def _restore_manifest(
        journal_dir: Path,
        manifest: SnapshotManifest,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
    ) -> List[PolicySession]:
        """Verify and load every session of one snapshot rotation.

        The manifest must name exactly its round's rotation file, and the
        file must match the manifest sha256 and hold these devices in
        order; anything else raises :class:`JournalError`, sending
        recovery to an older manifest.  Scenario schedules are rebuilt
        over each restored session's own space, exactly like
        :meth:`~repro.core.session.PolicySession.restore` documents.
        """
        relative = ROTATION_FILE.format(manifest.round)
        if [e[:2] for e in manifest.files] != [(ROTATION_LABEL, relative)]:
            raise JournalError(f"snapshot manifest for round "
                               f"{manifest.round} does not name {relative}")
        path = journal_dir / relative
        if file_sha256(path) != manifest.files[0][2]:
            raise JournalError(
                f"snapshot {path} does not match its manifest sha256"
            )
        states = unpack_states(path.read_bytes())
        if [state["name"] for state in states] != [d.name for d in devices]:
            raise JournalError(f"snapshot {path} holds other devices")
        sessions: List[PolicySession] = []
        for device, state in zip(devices, states):
            session = PolicySession.restore(state, simulator)
            if device.scenario is not None:
                session.space_schedule = make_space_schedule(
                    session.space, device.scenario
                )
            sessions.append(session)
        return sessions

    # ------------------------------------------------------------------ #
    # Stepping and snapshots
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.supervisor.done

    def step_round(self) -> int:
        """Apply due dispatches, advance one lockstep round, journal it."""
        self._apply_due_dispatches()
        if self.paused or self.done:
            return 0
        advanced = self.supervisor.step_round()
        self.rounds += 1
        if self.journal is not None:
            self.journal.append(StepBoundary(round=self.rounds,
                                             advanced=advanced))
        self._scan_flatlines()
        if self.journal is not None and (
                self.rounds % self.snapshot_every == 0 or self.done):
            self._rotate_snapshots()
        return advanced

    def run_to_completion(self) -> None:
        """Step until every device finished (stops early when paused)."""
        while not self.done:
            if self.step_round() == 0:  # paused, or nothing could advance
                break

    def shutdown(self, reason: str = "sigterm") -> None:
        """Graceful drain: final snapshot rotation + shutdown record."""
        if self.journal is not None:
            self._rotate_snapshots()
            self.journal.append(ShutdownNotice(round=self.rounds,
                                               reason=reason))
            self.journal.close()

    def _rotate_snapshots(self) -> SnapshotManifest:
        """Write every session into one durable file, then journal it.

        The file is published *before* its manifest is appended, so a
        manifest always names a complete rotation.  Older rotations are
        pruned afterwards; recovery skips manifests whose file is gone.
        """
        assert self.journal is not None and self.journal_dir is not None
        data = pack_states([
            session.snapshot_state(
                rng=self.supervisor.sequential_rng_state(session))
            for session in self.supervisor.sessions
        ])
        relative = ROTATION_FILE.format(self.rounds)
        path = write_durable(self.journal_dir / relative, data)
        manifest = SnapshotManifest(round=self.rounds, files=((
            ROTATION_LABEL, relative, hashlib.sha256(data).hexdigest(),
        ),))
        self.journal.append(manifest)
        # Rotations past this round were published by a crashed process
        # that never journaled them, and .tmp files are its torn writes.
        kept = sorted(other.name for other in path.parent.glob("*.snapshot")
                      if other.name <= path.name)[-SNAPSHOT_ROTATIONS_KEPT:]
        for other in path.parent.iterdir():
            if other.is_file() and other.name not in kept:
                other.unlink(missing_ok=True)
        return manifest

    # ------------------------------------------------------------------ #
    # Dispatches
    # ------------------------------------------------------------------ #
    def dispatch(self, command: DispatchCommand) -> DispatchReceipt:
        """Accept one control mutation (journal-before-apply, idempotent).

        A command whose ``idempotency_key`` was seen before returns the
        original receipt without journaling or queueing anything — a
        redelivered dispatch applies exactly once.  Accepted commands are
        stamped with the next round boundary, journaled, and applied at
        that boundary by :meth:`step_round`.
        """
        key = command.idempotency_key
        if key and key in self._receipts:
            return dataclasses.replace(self._receipts[key],
                                       status="duplicate")
        problem = self._validate_dispatch(command)
        if problem is not None:
            self.errors.append(ErrorReport(context="dispatch",
                                           message=problem))
            return DispatchReceipt(idempotency_key=key, apply_round=-1,
                                   status="rejected", detail=problem)
        stamped = dataclasses.replace(command, apply_round=self.rounds)
        if self.journal is not None:
            self.journal.append(stamped)
        self._pending_dispatches.append(stamped)
        receipt = DispatchReceipt(idempotency_key=key,
                                  apply_round=self.rounds,
                                  status="accepted")
        if key:
            self._receipts[key] = receipt
        return receipt

    def _validate_dispatch(self, command: DispatchCommand) -> Optional[str]:
        if command.command in ("restrict-space", "set-policy"):
            if command.device not in self._device_of:
                return f"unknown device {command.device!r}"
        if command.command == "restrict-space":
            if command.value is not None and not isinstance(command.value,
                                                            int):
                return "restrict-space value must be an int cap or null"
            if isinstance(command.value, int) and command.value < 0:
                return "restrict-space cap must be >= 0"
        if command.command == "set-policy":
            if command.value not in SWAPPABLE_POLICIES:
                return (f"set-policy value must be one of "
                        f"{SWAPPABLE_POLICIES}, got {command.value!r}")
        return None

    def _apply_due_dispatches(self) -> None:
        due = [c for c in self._pending_dispatches
               if (c.apply_round or 0) <= self.rounds]
        if not due:
            return
        self._pending_dispatches = [
            c for c in self._pending_dispatches
            if (c.apply_round or 0) > self.rounds
        ]
        for command in due:
            self._apply_dispatch(command)

    def _apply_dispatch(self, command: DispatchCommand,
                        restored: bool = False) -> None:
        """Apply one dispatch at its round boundary.

        ``restored`` marks a dispatch that applied before a recovery's
        restore point.  Its space cap lives in the (never-snapshotted)
        space schedule, so it is applied again; its policy swap is already
        inside the restored snapshots (swapping again would reset
        learned/governor state), so only the bookkeeping is updated.
        """
        if command.command in ("pause", "resume"):
            self.paused = command.command == "pause"
        elif command.command == "restrict-space":
            self._set_cap(command.device, command.value)
        elif command.command == "set-policy":
            session = self.supervisor.session_named(command.device)
            if not restored:
                policy = build_named_policy(command.value, session.space)
                previous = getattr(session.policy, "current", None)
                policy.reset(previous if previous is not None
                             and session.space.contains(previous) else None)
                self.supervisor.replace_policy(command.device, policy)
            self._policy_of[command.device] = session.policy.name

    def _set_cap(self, device: str, cap: Optional[int]) -> None:
        schedule = self._caps.get(device)
        if schedule is None:
            session = self.supervisor.session_named(device)
            schedule = _CapSchedule(session.space, session.space_schedule)
            session.space_schedule = schedule
            self._caps[device] = schedule
        schedule.cap = cap

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _scan_flatlines(self) -> None:
        """Emit a FlatlineAlert on every DEGRADED/QUARANTINED transition.

        Alerts are derived state (the supervisor's watchdog recomputes
        them deterministically on replay), so they are reported, not
        journaled.
        """
        current = self.supervisor.health_map()
        for name, health in current.items():
            if health is self._last_health.get(name):
                continue
            if health in (DeviceHealth.DEGRADED, DeviceHealth.QUARANTINED):
                supervised = self.supervisor._by_name.get(name)
                stalled = (supervised.no_progress_rounds
                           if supervised is not None else 0)
                self.alerts.append(FlatlineAlert(
                    device=name, round=self.rounds,
                    stalled_rounds=stalled, health=health.value,
                ))
        self._last_health = current

    def digests(self) -> Dict[str, str]:
        """Per-device state digests (the recovery-invariant equality)."""
        return {device.name: session.state_digest()
                for device, session in zip(self.devices,
                                           self.supervisor.sessions)}

    def reports(self) -> List[TelemetryReport]:
        """One telemetry report per device, in input order."""
        health = self.supervisor.health_map()
        out: List[TelemetryReport] = []
        for device, session in zip(self.devices, self.supervisor.sessions):
            out.append(TelemetryReport(
                device=device.name,
                round=self.rounds,
                steps_completed=session.step_index,
                trace_steps=len(session),
                health=health[device.name].value,
                total_energy_j=session.account.total_energy_j,
                total_time_s=session.account.total_time_s,
                state_digest=session.state_digest(),
            ))
        return out

    def status(self) -> Dict[str, Any]:
        """JSON-friendly run status (the ``GET /status`` payload)."""
        health = self.supervisor.health_map()
        return {
            "rounds": self.rounds,
            "done": self.done,
            "paused": self.paused,
            "journaled": self.journal is not None,
            "config": self.config.to_dict() if self.config is not None
            else {"external": True},
            "pending_dispatches": len(self._pending_dispatches),
            "alerts": len(self.alerts),
            "errors": [encode_message(error) for error in self.errors],
            "devices": [
                {
                    "name": device.name,
                    "policy": self._policy_of[device.name],
                    "health": health[device.name].value,
                    "steps_completed": session.step_index,
                    "trace_steps": len(session),
                    "digest": session.state_digest(),
                }
                for device, session in zip(self.devices,
                                           self.supervisor.sessions)
            ],
        }

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
