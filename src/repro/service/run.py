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
  0), every session's state (policy, dispatched OPP cap, totals, cursor)
  goes into one frame appended to the run's rotation file,
  ``rotations.bin``, framed like the journal
  (:class:`~repro.service.journal.FramedFile`).  A frame carries each
  session's log as the rows logged since the previous frame, and the
  row they start at (the whole log of a session a restart replaced), so
  a rotation writes what changed since the last one.  The frame is
  fsync'd, and only then is a :class:`~repro.service.protocol
  .SnapshotManifest` naming its round, offset and sha256 journaled.
* **Recovery invariant.**  ``kill -9`` at any instant, then
  :meth:`ServiceRun.recover`: the fleet is rebuilt deterministically
  from the genesis config and must match the journal's
  :class:`~repro.service.protocol.DeviceRegistration` records; sessions
  restore from the newest manifest whose frame, and every frame before
  it, verifies, onto the rebuilt fleet's sessions, which supply the
  traces, Oracle tables, noise and trace caps (a snapshot holds session
  state only); each log is rebuilt from the rows of those frames.  Space
  caps and policy swaps that applied before the restore point are inside
  the snapshots, so of those dispatches only the pause state is re-applied,
  and later ones are replayed at their recorded boundaries — so the
  completed run's per-device logs and energy totals are **bitwise
  identical** to an uninterrupted run.
  With journaling off (``journal_dir=None``) the run is bitwise
  identical to a bare :class:`~repro.fleet.engine.FleetEngine` /
  :class:`~repro.fleet.supervisor.FleetSupervisor` run — the control
  plane adds zero overhead to the hot loop.

The deterministic-replay scope matches the supervisor's own invariants:
digests are pinned for fault-free fleets, for one fault of each type
with a kill before and after it, and for a capped device restarted by a
crash or a snapshot-restart with a kill past the fault.  Injected-fault
bookkeeping — fired faults, in-flight stalls, health and fault counters
— lives outside session snapshots: a run killed after a fault still
completes (with the same digests in the pinned cases), but
already-fired faults do not re-fire and its health and reports can
differ.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.policy import DRMPolicy, GovernorPolicy, StaticPolicy
from repro.core.session import PolicySession, SnapshotError, load_states
from repro.fleet.device import DeviceSpec, device_session
from repro.fleet.faults import FaultPlan, fault_from_dict
from repro.fleet.supervisor import DeviceHealth, FleetSupervisor
from repro.scenarios import available_scenarios, get_scenario
from repro.service.journal import (
    Frame,
    FramedFile,
    Journal,
    JournalError,
    file_sha256,  # noqa: F401 - perfbench traces it as a journal layer
    read_journal,
    walk_frames,
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
from repro.utils.records import COLUMNS, RunLog
from repro.utils.rng import derive_seed, make_rng, stable_name_id
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

#: Journal file name inside a run directory.
JOURNAL_FILE = "journal.bin"

#: Rotation file inside a run directory: one frame per snapshot rotation.
ROTATIONS_FILE = "rotations.bin"

#: Leading magic of rotation files (identifies the frame layout).
ROTATIONS_MAGIC = b"RPROTS01"

_COUNT = struct.Struct("<q")

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
    .fault_from_dict` payloads — the supervisor injects them and watches
    those devices.
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


def _registration(device: DeviceSpec, supervised: bool) -> DeviceRegistration:
    """The journal record announcing ``device``."""
    return DeviceRegistration(
        device=device.name,
        policy=device.policy.name,
        trace_steps=len(device.trace),
        scenario=(device.scenario.scenario_name
                  if device.scenario is not None else ""),
        supervised=supervised,
    )


def _check_fleet(registrations: Sequence[DeviceRegistration],
                 devices: Sequence[DeviceSpec]) -> None:
    """Raise :class:`JournalError` unless ``devices`` is the journaled fleet.

    Each device must match its registration's name, policy, trace length
    and scenario, in order; the error names the first mismatch.
    """
    if len(devices) != len(registrations):
        raise JournalError(
            f"the journal registers {len(registrations)} devices, the fleet "
            f"to recover has {len(devices)}"
        )
    for index, (journaled, device) in enumerate(zip(registrations, devices)):
        rebuilt = _registration(device, journaled.supervised)
        for field in ("device", "policy", "trace_steps", "scenario"):
            expected = getattr(journaled, field)
            found = getattr(rebuilt, field)
            if expected != found:
                raise JournalError(
                    f"device {index} of the fleet to recover has {field} "
                    f"{found!r}; the journal registers {expected!r}"
                )


def _pack_frame(states: Sequence[Dict[str, Any]],
                chunks: Sequence[Tuple[int, np.ndarray]]) -> bytes:
    """One rotation frame's payload: session states and new log rows.

    ``chunks`` holds, per session, the row its new log rows start at and
    those rows.  The layout is the session count (int64), a ``(start,
    count)`` int64 pair per session, every session's rows back to back
    (float64, :data:`~repro.utils.records.COLUMNS` wide), then one pickle
    of the ``states`` (which leave the log out).  One pickle keeps the
    objects the states share shared, as in :func:`~repro.core.session
    .pack_states`.
    """
    spans = np.array([(start, len(rows)) for start, rows in chunks],
                     dtype="<i8")
    return b"".join((
        _COUNT.pack(len(chunks)), spans.tobytes(),
        *(rows.tobytes() for _start, rows in chunks),
        pickle.dumps(list(states), protocol=pickle.HIGHEST_PROTOCOL),
    ))


def _frame_rows(payload: bytes) -> Tuple[np.ndarray, np.ndarray, int]:
    """A :func:`_pack_frame` payload's ``(start, count)`` pairs, its rows
    and where its pickled states start; :class:`ValueError` if the
    payload is too short for them."""
    (count,) = _COUNT.unpack_from(payload)
    spans = np.frombuffer(payload, "<i8", 2 * count,
                          _COUNT.size).reshape(count, 2)
    begin = _COUNT.size + spans.nbytes
    rows = np.frombuffer(payload, "<f8",
                         int(spans[:, 1].sum()) * len(COLUMNS),
                         begin).reshape(-1, len(COLUMNS))
    return spans, rows, begin + rows.nbytes


def _read_rotations(path: Path) -> List[Frame]:
    """The intact frames of a rotation file, up to the first torn or
    corrupt one (none when the file is missing or not a rotation file)."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    if data[:len(ROTATIONS_MAGIC)] != ROTATIONS_MAGIC:
        return []
    frames, _end = walk_frames(data, len(ROTATIONS_MAGIC))
    return frames


class ServiceRun:
    """One journaled (or journal-free) fleet run driven by the control plane.

    Use the :meth:`start` / :meth:`recover` constructors.  The run is
    stepped with :meth:`step_round` (dispatches apply at these
    boundaries) and accepts :class:`~repro.service.protocol
    .DispatchCommand` mutations through :meth:`dispatch`.
    """

    def __init__(
        self,
        config: RunConfig,
        devices: Sequence[DeviceSpec],
        simulator: SoCSimulator,
        space: ConfigurationSpace,
        sessions: Optional[Sequence[PolicySession]] = None,
        journal: Optional[Journal] = None,
        journal_dir: Optional[Path] = None,
        rounds: int = 0,
    ) -> None:
        self.config = config
        self.devices = list(devices)
        self.journal = journal
        self.journal_dir = journal_dir
        self.snapshot_every = config.snapshot_every
        self.rounds = int(rounds)
        # Round of the newest journaled rotation (None: none yet), so
        # shutdown() does not rotate the same round twice.
        self._rotated_round: Optional[int] = None
        self.paused = False
        self.alerts: List[FlatlineAlert] = []
        self.errors: List[ErrorReport] = []
        plan = None
        if config.faults:
            plan = FaultPlan(faults=tuple(
                fault_from_dict(dict(payload)) for payload in config.faults
            ))
        self.supervisor = FleetSupervisor(
            self.devices, simulator, space, plan=plan,
            snapshot_every=self.snapshot_every, sessions=sessions,
        )
        self._receipts: Dict[str, DispatchReceipt] = {}
        self._pending_dispatches: List[DispatchCommand] = []
        self._last_health: Dict[str, DeviceHealth] = \
            self.supervisor.health_map()
        #: The rotation file, once a rotation created or recovery opened it.
        self._rotations: Optional[FramedFile] = None
        #: Per fleet row: the log the rotation file holds rows of, and how
        #: many (the sessions a run starts or recovers with are held).
        self._framed: List[Tuple[RunLog, int]] = [
            (session.log, len(session.log))
            for session in self.supervisor.sessions
        ]

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def start(
        cls,
        config: RunConfig,
        journal_dir: Optional[Union[str, Path]] = None,
    ) -> "ServiceRun":
        """Begin a fresh run (journaled when ``journal_dir`` is given).

        The fleet is built deterministically from ``config``, so recovery
        can rebuild it from the journal alone.
        """
        devices, simulator, space = build_config_devices(config)
        journal = None
        journal_path: Optional[Path] = None
        if journal_dir is not None:
            journal_path = Path(journal_dir)
            journal = Journal(journal_path / JOURNAL_FILE, create=True)
        run = cls(config, devices, simulator, space, journal=journal,
                  journal_dir=journal_path)
        if journal is not None:
            journal.append(RunGenesis(config=config.to_dict()))
            supervised = set(run.supervisor.plan.device_names())
            for device in run.devices:
                journal.append(_registration(device,
                                             device.name in supervised))
            run._rotate_snapshots()
        return run

    @classmethod
    def recover(cls, journal_dir: Union[str, Path]) -> "ServiceRun":
        """Rebuild a run from its journal after a crash (or clean exit).

        The fleet is rebuilt from the genesis config and must match the
        journal's device registrations — names in order, policy, trace
        length and scenario — or :class:`JournalError` names the first
        mismatch.
        Sessions restore from the newest snapshot manifest whose frame
        verifies, with every frame before it (falling back to older
        manifests, and to a replay from round 0 when none survive), and
        journaled dispatches are re-applied/queued so the continued run is
        bitwise identical to an uninterrupted one.  Frames past the
        restored one (written by the crashed process without a manifest,
        or torn) are truncated before the run appends; after a replay from
        round 0 the rotation file is deleted and the next rotation starts
        a new one.
        """
        journal_path = Path(journal_dir)
        messages, _truncated = read_journal(journal_path / JOURNAL_FILE)
        if not messages or not isinstance(messages[0], RunGenesis):
            raise JournalError(
                f"journal in {journal_path} has no genesis record"
            )
        config = RunConfig.from_dict(messages[0].config)
        devices, simulator, space = build_config_devices(config)
        _check_fleet([m for m in messages
                      if isinstance(m, DeviceRegistration)], devices)
        manifests = [m for m in messages if isinstance(m, SnapshotManifest)]
        dispatches = [m for m in messages if isinstance(m, DispatchCommand)]
        # The rebuilt fleet at round 0: each session draws its device's
        # noise once, and restores take their definitions from it.
        sessions = [device_session(device, simulator, space)
                    for device in devices]
        rotations = journal_path / ROTATIONS_FILE
        frames = _read_rotations(rotations)
        position = {frame.offset: index for index, frame in enumerate(frames)}
        restored: Optional[int] = None
        kept: Optional[Frame] = None  # the frame restored from
        for manifest in reversed(manifests):
            index = position.get(manifest.offset)
            if index is None or frames[index].digest.hex() != manifest.sha256:
                continue
            try:
                sessions = cls._restore_frames(frames[:index + 1], sessions)
            except (SnapshotError, JournalError):
                continue
            restored, kept = manifest.round, frames[index]
            break
        restore_round = restored or 0
        journal = Journal(journal_path / JOURNAL_FILE)
        run = cls(config, devices, simulator, space, sessions=sessions,
                  journal=journal, journal_dir=journal_path,
                  rounds=restore_round)
        run._rotated_round = restored
        if kept is None:
            rotations.unlink(missing_ok=True)
        else:
            run._rotations = FramedFile.open(rotations, kept.end)
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
    def _restore_frames(
        frames: Sequence[Frame],
        templates: Sequence[PolicySession],
    ) -> List[PolicySession]:
        """Restore every session from the last of ``frames``.

        Each log is rebuilt from the rows of all ``frames``, in order; the
        last one's states must hold the ``templates``' devices in order,
        each with as many steps as its rebuilt log.  Anything else raises
        :class:`JournalError` (or :class:`~repro.core.session
        .SnapshotError`), sending recovery to an older manifest.  Each
        session restores onto its device's template
        (:meth:`~repro.core.session.PolicySession.restore`).
        """
        logs = [RunLog(len(template)) for template in templates]
        for frame in frames:
            try:
                spans, rows, states_at = _frame_rows(frame.payload)
                if len(spans) != len(logs):
                    raise ValueError(f"it holds {len(spans)} devices, "
                                     f"not {len(logs)}")
                at = 0
                for log, (start, count) in zip(logs, spans.tolist()):
                    log.splice(start, rows[at:at + count])
                    at += count
            except (ValueError, struct.error) as exc:
                raise JournalError(f"rotation frame at offset "
                                   f"{frame.offset}: {exc}") from exc
        states = load_states(frames[-1].payload[states_at:])
        if [state["name"] for state in states] != [t.name for t in templates]:
            raise JournalError(f"rotation frame at offset {frames[-1].offset} "
                               "holds other devices")
        sessions = []
        for state, log, template in zip(states, logs, templates):
            if state["cursor"] != len(log):
                raise JournalError(
                    f"rotation frame at offset {frames[-1].offset}: "
                    f"{state['name']!r} is at step {state['cursor']}, its "
                    f"rebuilt log at {len(log)}"
                )
            state["log"] = log
            sessions.append(PolicySession.restore(state, template))
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
        """Graceful drain: final snapshot rotation + shutdown record.

        The rotation is skipped when the newest one already holds this
        round (a finished run rotated at its last round).
        """
        if self.journal is not None:
            if self._rotated_round != self.rounds:
                self._rotate_snapshots()
            self.journal.append(ShutdownNotice(round=self.rounds,
                                               reason=reason))
        self.close()

    def _rotate_snapshots(self) -> SnapshotManifest:
        """Append every session to the rotation file, then journal it.

        The frame holds each session's state, its log left out, and the
        log rows added since the previous frame (the whole log of a
        session whose log object changed, as a restart's does).  It is
        fsync'd *before* its manifest is appended, so a manifest always
        names a durable frame.
        """
        assert self.journal is not None and self.journal_dir is not None
        states, chunks, framed = [], [], []
        for session, (framed_log, framed_rows) in zip(
                self.supervisor.sessions, self._framed):
            state = session.snapshot_state()
            log = state.pop("log")
            start = framed_rows if log is framed_log else 0
            chunks.append((start, log.table()[start:]))
            framed.append((log, len(log)))
            states.append(state)
        if self._rotations is None:
            self._rotations = FramedFile.create(
                self.journal_dir / ROTATIONS_FILE, ROTATIONS_MAGIC)
        offset, digest = self._rotations.append(_pack_frame(states, chunks),
                                                sync=True)
        manifest = SnapshotManifest(round=self.rounds, offset=offset,
                                    sha256=digest)
        self.journal.append(manifest)
        self._framed = framed
        self._rotated_round = self.rounds
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
            if command.device not in self.supervisor.health_map():
                return f"unknown device {command.device!r}"
        if command.command == "restrict-space":
            # JSON true/false decode to bools, which subclass int.
            if command.value is not None and (
                    isinstance(command.value, bool)
                    or not isinstance(command.value, int)):
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
        restore point: its space cap or policy swap is already inside the
        restored snapshots (swapping again would reset learned/governor
        state), so only a pause or resume applies again.
        """
        if command.command in ("pause", "resume"):
            self.paused = command.command == "pause"
        elif restored:
            return
        elif command.command == "restrict-space":
            self.supervisor.restrict_space(command.device, command.value)
        elif command.command == "set-policy":
            session = self.supervisor.session_named(command.device)
            policy = build_named_policy(command.value, session.space)
            previous = getattr(session.policy, "current", None)
            policy.reset(previous if previous is not None
                         and session.space.contains(previous) else None)
            self.supervisor.replace_policy(command.device, policy)

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
                total_energy_j=session.total_energy_j,
                total_time_s=session.total_time_s,
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
            "config": self.config.to_dict(),
            "pending_dispatches": len(self._pending_dispatches),
            "alerts": len(self.alerts),
            "errors": [encode_message(error) for error in self.errors],
            "devices": [
                {
                    "name": device.name,
                    "policy": session.policy.name,
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
        if self._rotations is not None:
            self._rotations.close()
