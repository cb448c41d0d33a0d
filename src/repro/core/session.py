"""Resumable, step-addressable policy evaluation sessions.

:class:`PolicySession` decomposes the closed ``run_policy_on_snippets`` loop
into an explicit state machine over the deployment data flow::

    decide  ->  clamp/throttle  ->  execute  ->  observe

Each phase is a public method, and all loop-carried state (the
:class:`~repro.utils.records.RunLog`, the energy and time totals, the last
observed counters, the accumulated Oracle energy and the step cursor)
lives on the session object.  The log is the only per-step store: a
session keeps no executed :class:`~repro.soc.simulator.SnippetResult`.
That makes a policy run:

* **resumable** — a session can be advanced one step (or one phase) at a
  time, inspected mid-run via :meth:`result`, and continued later;
* **interleavable** — many sessions can be advanced in lockstep by an
  external driver (:class:`~repro.fleet.engine.FleetEngine`), which may
  substitute its own batched implementations for the ``decide`` and
  ``execute`` phases as long as it feeds the outcomes back through
  :meth:`observe`;
* **bitwise-faithful** — driving a fresh session to completion performs
  exactly the statements of the original loop in the original order, so
  :func:`~repro.core.framework.run_policy_on_snippets` (now a thin driver
  over one session) reproduces all prior traces unchanged.

The clamp/throttle phase is folded into :meth:`decide`'s output: the
returned :class:`SessionStep` carries both the policy's raw proposal and
the hardware-clamped configuration that will actually execute, plus the
``throttled`` flag recorded in the log.

A session's per-step inputs are data fixed when it is built: its
measurement noise is one ``(steps, 2)`` array of log-normal factors drawn
up front in the scalar draw order
(:meth:`~repro.soc.simulator.SoCSimulator.draw_noise`), and its throttle
schedule is the trace's per-step OPP caps plus a cap dispatched to the
session, resolved against the session's own space by :meth:`PolicySession
.throttle`.  A session therefore splits into its definition (simulator,
trace, Oracle table, noise, trace caps), which never changes while it
runs, and its state (policy, space, dispatched cap, log, totals,
counters, cursor).  Snapshots hold the state only; :meth:`PolicySession
.restore` takes the definition from a template session built over the
same trace.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.oracle import OracleTable
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet
from repro.utils.records import RunLog

#: Bump when the snapshot payload layout changes; old snapshots then fail
#: to restore with a clear :class:`SnapshotError` instead of misbehaving.
SNAPSHOT_FORMAT_VERSION = 9

#: Leading magic of serialized snapshots (identifies the container format).
_SNAPSHOT_MAGIC = b"RPSESNAP"

_NAN = float("nan")


class SnapshotError(RuntimeError):
    """A serialized session snapshot failed verification or restore."""


def pack_states(states: Sequence[Dict[str, Any]]) -> bytes:
    """Serialized, checksummed snapshot (magic + SHA-256 + payload).

    One ``pickle.dumps`` over the :meth:`PolicySession.snapshot_state`
    dicts keeps the objects they share (``policy.space is session.space``,
    a fleet's one configuration space) shared after unpacking.
    """
    payload = pickle.dumps(list(states), protocol=pickle.HIGHEST_PROTOCOL)
    return _SNAPSHOT_MAGIC + hashlib.sha256(payload).digest() + payload


def unpack_states(data: bytes) -> List[Dict[str, Any]]:
    """Verify and deserialize :func:`pack_states` output.

    Raises :class:`SnapshotError` on a bad magic, a checksum mismatch
    (truncated or bit-rotted snapshot), an unpicklable payload, or a
    version mismatch — a damaged snapshot must never restore into a
    silently wrong session.
    """
    header = len(_SNAPSHOT_MAGIC)
    if data[:header] != _SNAPSHOT_MAGIC:
        raise SnapshotError("not a session snapshot (bad magic)")
    digest, payload = data[header:header + 32], data[header + 32:]
    if hashlib.sha256(payload).digest() != digest:
        raise SnapshotError(
            "snapshot checksum mismatch (truncated or corrupted)"
        )
    return load_states(payload)


def load_states(payload: bytes) -> List[Dict[str, Any]]:
    """Unpickle a list of session states and check their version.

    Raises :class:`SnapshotError` on an unpicklable payload or anything
    but a list of :data:`SNAPSHOT_FORMAT_VERSION` state dicts.
    """
    try:
        states = pickle.loads(payload)
    except Exception as exc:
        raise SnapshotError(f"snapshot payload failed to load: {exc}") \
            from exc
    if not isinstance(states, list) or any(
            not isinstance(state, dict)
            or state.get("version") != SNAPSHOT_FORMAT_VERSION
            for state in states):
        raise SnapshotError(f"snapshot is not a list of format version "
                            f"{SNAPSHOT_FORMAT_VERSION} session states")
    return states


def write_durable(path: Union[str, Path], data: bytes) -> Path:
    """Atomically publish ``data`` at ``path`` and make it durable.

    The bytes go to a temp file in the target directory, are fsync'd and
    published with :func:`os.replace`; the directory is fsync'd so the
    rename survives a crash too.  Readers only see complete files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except OSError:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    fsync_directory(path.parent)
    return path


def fsync_directory(path: Union[str, Path]) -> None:
    """fsync directory ``path``, so entries created or renamed in it
    survive a crash."""
    directory = os.open(path, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


@dataclass
class SessionStep:
    """One decided-but-not-yet-observed step of a :class:`PolicySession`.

    ``proposed`` is the policy's raw decision; ``configuration`` is what
    will actually execute after the clamp/throttle phase (identical to
    ``proposed`` outside throttle windows).  ``configuration_index`` is
    the index of ``configuration`` in the session's space, which the log
    row and the fleet's batched gathers read.
    """

    index: int
    snippet: Snippet
    proposed: SoCConfiguration
    configuration: SoCConfiguration
    throttled: bool
    configuration_index: int

    @classmethod
    def _from_values(cls, values: dict) -> "SessionStep":
        """Hot-path constructor adopting ``values`` as the instance state.

        Bypasses the generated ``__init__`` — callers (the fleet engine's
        batched decide phase) guarantee a complete field dict.
        """
        step = cls.__new__(cls)
        step.__dict__ = values
        return step


class PolicySession:
    """State machine executing one policy over one snippet trace.

    The constructor mirrors :func:`~repro.core.framework
    .run_policy_on_snippets` argument for argument; driving the session to
    completion with :meth:`run` is bitwise equivalent to the original
    closed loop.  ``rng`` is the generator the session's :attr:`noise`
    is drawn from at construction, two normals per step (the simulator's
    own generator when ``None``).  ``caps`` holds the trace's OPP cap at
    each step (``None`` where unthrottled), as
    :meth:`~repro.scenarios.base.ScenarioTrace.caps` lists them.
    """

    def __init__(
        self,
        simulator: SoCSimulator,
        space: ConfigurationSpace,
        policy: DRMPolicy,
        snippets: Sequence[Snippet],
        oracle_table: Optional[OracleTable] = None,
        rng: Optional[np.random.Generator] = None,
        reset_policy: bool = True,
        caps: Optional[Sequence[Optional[int]]] = None,
        name: str = "device",
    ) -> None:
        self.simulator = simulator
        self.space = space
        self.policy = policy
        self.snippets: List[Snippet] = list(snippets)
        self._trace_len = len(self.snippets)
        self.oracle_table = oracle_table
        self.noise = simulator.draw_noise(self._trace_len, rng)
        self.caps: Optional[List[Optional[int]]] = (
            None if caps is None else list(caps))
        self.dispatched_cap: Optional[int] = None
        self.name = name
        if reset_policy:
            policy.reset()
        self.log = RunLog(self._trace_len)
        self.total_energy_j = 0.0
        self.total_time_s = 0.0
        self.counters: Optional[PerformanceCounters] = None
        self.oracle_energy = 0.0
        self._cursor = 0
        self._pending: Optional[SessionStep] = None
        self._opp_columns: Optional[Tuple[List[float], List[float]]] = None

    # ------------------------------------------------------------------ #
    # State inspection
    # ------------------------------------------------------------------ #
    @property
    def step_index(self) -> int:
        """Index of the next snippet to decide (== completed step count)."""
        return self._cursor

    @property
    def done(self) -> bool:
        return self._cursor >= self._trace_len

    def __len__(self) -> int:
        return self._trace_len

    @property
    def pending(self) -> Optional[SessionStep]:
        """The decided step awaiting execute/observe, if any."""
        return self._pending

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def throttle(self, config: SoCConfiguration
                 ) -> Tuple[SoCConfiguration, bool]:
        """The clamp/throttle phase at the cursor: what runs, and whether
        a restriction is in force.

        The OPP cap in force is the tighter of the trace's cap at the
        cursor (:attr:`caps`) and :attr:`dispatched_cap`.  When it binds
        on the session's space, ``config`` is projected into the
        restricted space if it lies outside
        (:meth:`~repro.soc.configuration.ConfigurationSpace.clamp`) and
        the step counts as throttled; otherwise ``config`` runs as is.
        :meth:`decide` and the fleet engine's batched decide both call
        this.
        """
        cap = self.dispatched_cap
        if self.caps is not None:
            trace_cap = self.caps[self._cursor]
            if trace_cap is not None and (cap is None or trace_cap < cap):
                cap = trace_cap
        if cap is None:
            return config, False
        active = self.space.restrict(max_opp_index=cap)
        if active is self.space:
            return config, False
        if not active.contains(config):
            config = active.clamp(config)
        return config, True

    def decide(self) -> SessionStep:
        """Phase 1+2: ask the policy for a decision and clamp it.

        The policy decides from the counters of the previous snippet
        (``None`` on the first step).  :meth:`throttle` then clamps the
        decision into the space an OPP cap leaves reachable.  A
        configuration outside the session's space raises
        :class:`KeyError`.
        """
        if self.done:
            raise RuntimeError(f"session {self.name!r} is already complete")
        if self._pending is not None:
            raise RuntimeError(
                f"session {self.name!r} has an unobserved pending step"
            )
        snippet = self.snippets[self._cursor]
        proposed = self.policy.decide(self.counters)
        config, throttled = self.throttle(proposed)
        step = SessionStep(
            index=self._cursor,
            snippet=snippet,
            proposed=proposed,
            configuration=config,
            throttled=throttled,
            configuration_index=self.space.index_of(config),
        )
        self._pending = step
        return step

    def execute(self, step: Optional[SessionStep] = None) -> SnippetResult:
        """Phase 3: run the pending step's snippet on the simulator, with
        the step's row of :attr:`noise`."""
        step = step if step is not None else self._pending
        if step is None:
            raise RuntimeError("no pending step to execute; call decide() first")
        return self.simulator.run_snippet(
            step.snippet, step.configuration, self.noise[step.index]
        )

    def _opp_floats(self, index: int) -> Tuple[float, float]:
        """(big, little) OPP indices of configuration ``index`` as floats.

        The columns are read once from the space's SoA view and cached as
        plain-float lists, so a log row costs two list lookups.
        """
        columns = self._opp_columns
        if columns is None:
            soa = self.space.soa_view()
            columns = (
                [float(v) for v in soa.cluster("big").opp_index.tolist()],
                [float(v) for v in soa.cluster("little").opp_index.tolist()],
            )
            self._opp_columns = columns
        return columns[0][index], columns[1][index]

    def observe(self, step: SessionStep, result: SnippetResult,
                policy_observed: bool = False) -> None:
        """Phase 4: feed the outcome back and append the step's log row.

        The statement order matches the original loop exactly: policy
        feedback, counters update, accounting, then the log row.  A fleet
        engine that already delivered the policy feedback through a
        batched ``fleet_observe`` passes ``policy_observed=True`` to skip
        the scalar ``policy.observe`` call (everything else is unchanged).

        Every step writes every column.  ``config_index`` is the executed
        configuration's index in :attr:`space`; ``throttled`` is 1.0 on
        steps an OPP cap binds (see :meth:`throttle`); the three Oracle
        columns are NaN when the table has no entry for the step's snippet
        (or no table is installed).
        """
        if step is not self._pending:
            if self._pending is None:
                raise RuntimeError(
                    "no pending step to observe; call decide() first"
                )
            raise ValueError("observed step is not the session's pending step")
        if not policy_observed:
            self.policy.observe(result)
        self.counters = result.counters
        self.total_energy_j += result.energy_j
        self.total_time_s += result.execution_time_s
        index = step.configuration_index
        big_opp, little_opp = self._opp_floats(index)
        oracle_big = oracle_match = oracle_energy = _NAN
        table = self.oracle_table
        row = None if table is None else table.rows.get(step.snippet.name)
        if row is not None:  # ``item`` gives Python scalars, not NumPy's
            best, oracle_energy, _ = table.columns.item(row)
            oracle_big = float(table.space[best].opp_index("big"))
            oracle_match = float(big_opp == oracle_big)
            self.oracle_energy += oracle_energy
        self.log.append((
            result.energy_j, result.execution_time_s, result.average_power_w,
            big_opp, little_opp, index,
            1.0 if step.throttled else 0.0,
            oracle_big, oracle_match, oracle_energy,
        ))
        self._pending = None
        self._cursor += 1

    # ------------------------------------------------------------------ #
    # Drivers
    # ------------------------------------------------------------------ #
    def advance(self) -> SnippetResult:
        """Run one full step (decide -> clamp -> execute -> observe)."""
        step = self.decide()
        result = self.execute(step)
        self.observe(step, result)
        return result

    def run(self) -> "PolicyRunResult":
        """Drive the session to completion and return its result."""
        while not self.done:
            self.advance()
        return self.result()

    def result(self) -> "PolicyRunResult":
        """The run so far (complete or not).

        The returned object shares the session's log, so a result taken
        mid-run keeps reflecting the session's log as it advances; its
        totals are those at the time of the call.
        """
        from repro.core.framework import PolicyRunResult

        return PolicyRunResult(
            policy_name=self.policy.name,
            log=self.log,
            total_energy_j=self.total_energy_j,
            total_time_s=self.total_time_s,
            oracle_energy_j=(self.oracle_energy
                             if self.oracle_table is not None else None),
        )

    def state_digest(self) -> str:
        """Hex SHA-256 over the session's observable run state.

        Covers the name, the step cursor, the log table's bytes (raw
        little-endian float64 bit patterns, so two digests match only
        when the logs are *bitwise* identical), and the accounting
        totals.  This is the equality the fleet control plane's recovery
        invariant is stated in: a recovered run and an uninterrupted run
        must report the same digest for every device.
        """
        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        digest.update(struct.pack("<q", self._cursor))
        digest.update(self.log.table())
        digest.update(struct.pack(
            "<3d", self.total_energy_j, self.total_time_s, self.oracle_energy,
        ))
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Durable snapshots
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> Dict[str, Any]:
        """The session's restorable state as one picklable dict.

        Everything that changes while the session runs is captured —
        policy (with its learned state), space, dispatched cap, log,
        totals, counters, cursor and the pending step, if the session is
        paused mid-phase between decide and observe — plus the trace
        length, so a restore can check the template it is given.  The
        definition (simulator, trace, Oracle table, noise, trace caps)
        never changes and is left out; :meth:`restore` takes it from a
        template session.

        ``space`` stays in: the policy references it, and one pickle over
        many sessions (:func:`pack_states`) keeps a fleet's one space
        shared, so ``policy.space is session.space`` survives a restore.
        """
        return {
            "version": SNAPSHOT_FORMAT_VERSION,
            "name": self.name,
            "trace_steps": self._trace_len,
            "policy": self.policy,
            "space": self.space,
            "dispatched_cap": self.dispatched_cap,
            "log": self.log,
            "total_energy_j": self.total_energy_j,
            "total_time_s": self.total_time_s,
            "counters": self.counters,
            "oracle_energy": self.oracle_energy,
            "cursor": self._cursor,
            "pending": self._pending,
        }

    def snapshot_bytes(self) -> bytes:
        """This session's :func:`pack_states` snapshot."""
        return pack_states([self.snapshot_state()])

    def save_snapshot(self, path: Union[str, Path]) -> Path:
        """Write a durable snapshot to ``path`` (see :func:`write_durable`)."""
        return write_durable(path, self.snapshot_bytes())

    @staticmethod
    def unpack_snapshot(data: bytes) -> Dict[str, Any]:
        """The one state of :meth:`snapshot_bytes` output (see
        :func:`unpack_states`)."""
        states = unpack_states(data)
        if len(states) != 1:
            raise SnapshotError(f"snapshot holds {len(states)} sessions")
        return states[0]

    @classmethod
    def restore(cls, state: Union[Dict[str, Any], bytes],
                template: "PolicySession") -> "PolicySession":
        """Rebuild a session from :meth:`snapshot_state` / snapshot bytes.

        ``template`` is a session built over the trace the snapshotted
        session ran (the session a restart replaces, or a fresh one); the
        restored session shares its definition — simulator, trace, Oracle
        table, noise and trace caps — and takes everything else from
        ``state``, so it continues bitwise identically to the original
        (same policy state, same log, same pending step, the same noise
        rows from its cursor on).  A template over a trace of another
        length raises :class:`SnapshotError`.
        """
        if isinstance(state, (bytes, bytearray)):
            state = cls.unpack_snapshot(bytes(state))
        if len(template) != state["trace_steps"]:
            raise SnapshotError(
                f"snapshot of {state['name']!r} covers a "
                f"{state['trace_steps']}-step trace, not {len(template)} steps"
            )
        session = copy.copy(template)
        session.name = state["name"]
        session.policy = state["policy"]
        session.space = state["space"]
        session.dispatched_cap = state["dispatched_cap"]
        session.log = state["log"]
        session.total_energy_j = state["total_energy_j"]
        session.total_time_s = state["total_time_s"]
        session.counters = state["counters"]
        session.oracle_energy = state["oracle_energy"]
        session._cursor = state["cursor"]
        session._pending = state["pending"]
        session._opp_columns = None
        return session

    @classmethod
    def load_snapshot(cls, path: Union[str, Path],
                      template: "PolicySession") -> "PolicySession":
        """Restore a session from a :meth:`save_snapshot` file (see
        :meth:`restore`)."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError(f"snapshot {path} unreadable: {exc}") from exc
        return cls.restore(data, template)
