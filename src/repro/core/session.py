"""Resumable, step-addressable policy evaluation sessions.

:class:`PolicySession` decomposes the closed ``run_policy_on_snippets`` loop
into an explicit state machine over the deployment data flow::

    decide  ->  clamp/throttle  ->  execute  ->  observe

Each phase is a public method, and all loop-carried state (the
:class:`~repro.utils.records.RunLog`, the
:class:`~repro.soc.energy.EnergyAccount`, the last observed counters, the
accumulated Oracle energy and the step cursor) lives on the session object.
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
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.oracle import OraclePolicy, OracleTable
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.energy import EnergyAccount
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet
from repro.utils.records import RunLog, RunRecord

#: Bump when the snapshot payload layout changes; old snapshots then fail
#: to restore with a clear :class:`SnapshotError` instead of misbehaving.
SNAPSHOT_FORMAT_VERSION = 2

#: Leading magic of serialized snapshots (identifies the container format).
_SNAPSHOT_MAGIC = b"RPSESNAP"

#: Sentinel distinguishing "no rng override" from an explicit ``None``.
_RNG_UNSET = object()


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
    ``proposed`` outside throttle windows).  ``configuration_index`` is an
    optional fast-path hint — the index of ``configuration`` in the
    session's space — filled in when the decider already knows it (batched
    fleet decides do), so downstream batch gathers skip the dict lookup.
    """

    index: int
    snippet: Snippet
    proposed: SoCConfiguration
    configuration: SoCConfiguration
    throttled: bool
    configuration_index: Optional[int] = None

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
    closed loop.  ``rng`` is the measurement-noise stream handed to the
    simulator for every executed snippet; sessions that will be advanced
    in lockstep by a fleet driver must each own an independent generator
    (a shared stream would interleave differently than sequential runs).
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
        initial_configuration: Optional[SoCConfiguration] = None,
        space_schedule: Optional[Callable[[int], ConfigurationSpace]] = None,
        name: str = "device",
    ) -> None:
        self.simulator = simulator
        self.space = space
        self.policy = policy
        self.snippets: List[Snippet] = list(snippets)
        self._trace_len = len(self.snippets)
        self.oracle_table = oracle_table
        self.rng = rng
        self.space_schedule = space_schedule
        self.name = name
        if reset_policy:
            policy.reset(initial_configuration)
        self.log = RunLog()
        self.account = EnergyAccount()
        self.results: List[SnippetResult] = []
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
    def decide(self) -> SessionStep:
        """Phase 1+2: ask the policy for a decision and clamp it.

        The Oracle policy is told which snippet is coming (it has perfect
        knowledge by construction); every other policy decides from the
        counters of the previous snippet (``None`` on the first step).
        When a ``space_schedule`` is installed and the step's active space
        is a restriction of the base space, a decision outside it is
        projected in via :meth:`~repro.soc.configuration.ConfigurationSpace
        .clamp`.
        """
        if self.done:
            raise RuntimeError(f"session {self.name!r} is already complete")
        if self._pending is not None:
            raise RuntimeError(
                f"session {self.name!r} has an unobserved pending step"
            )
        snippet = self.snippets[self._cursor]
        if isinstance(self.policy, OraclePolicy):
            self.policy.prepare_for(snippet)
        proposed = self.policy.decide(self.counters)
        config = proposed
        throttled = False
        if self.space_schedule is not None:
            active_space = self.space_schedule(self._cursor)
            throttled = active_space is not self.space
            if throttled and not active_space.contains(config):
                config = active_space.clamp(config)
        step = SessionStep(
            index=self._cursor,
            snippet=snippet,
            proposed=proposed,
            configuration=config,
            throttled=throttled,
        )
        self._pending = step
        return step

    def adopt_step(self, step: SessionStep) -> SessionStep:
        """Install an externally decided step (fleet batched-decide path).

        The caller guarantees the step is what :meth:`decide` would have
        produced — same policy state mutation, same clamping; the session
        only records it as pending so :meth:`observe` can complete it.
        """
        if self.done:
            raise RuntimeError(f"session {self.name!r} is already complete")
        if self._pending is not None:
            raise RuntimeError(
                f"session {self.name!r} has an unobserved pending step"
            )
        if step.index != self._cursor:
            raise ValueError(
                f"step index {step.index} does not match session cursor "
                f"{self._cursor}"
            )
        self._pending = step
        return step

    def execute(self, step: Optional[SessionStep] = None) -> SnippetResult:
        """Phase 3: run the pending step's snippet on the simulator."""
        step = step if step is not None else self._pending
        if step is None:
            raise RuntimeError("no pending step to execute; call decide() first")
        return self.simulator.run_snippet(
            step.snippet, step.configuration, rng=self.rng
        )

    def _opp_floats(self, index: int) -> Tuple[float, float]:
        """(big, little) OPP indices of configuration ``index`` as floats.

        Log-record fast path for index-addressed decisions: the columns
        are read once from the space's SoA view and cached as plain-float
        lists, replacing two per-step tuple scans on the configuration
        object with two list lookups (identical values).
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
        """Phase 4: feed the outcome back and append the log record.

        The statement order matches the original loop exactly: policy
        feedback, counters update, accounting, then the log record (with
        the Oracle columns when a table is installed).  A fleet driver
        that already delivered the policy feedback through a batched
        ``fleet_observe`` passes ``policy_observed=True`` to skip the
        scalar ``policy.observe`` call (everything else is unchanged).
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
        self.account.add(result)
        self.results.append(result)
        config = step.configuration
        if step.configuration_index is not None:
            big_opp, little_opp = self._opp_floats(step.configuration_index)
        else:
            big_opp = float(config.opp_index("big"))
            little_opp = float(config.opp_index("little"))
        record = {
            "energy_j": float(result.energy_j),
            "time_s": float(result.execution_time_s),
            "power_w": float(result.average_power_w),
            "big_opp": big_opp,
            "little_opp": little_opp,
        }
        if self.space_schedule is not None:
            record["throttled"] = 1.0 if step.throttled else 0.0
        if self.oracle_table is not None and step.snippet.name in self.oracle_table:
            entry = self.oracle_table.entry(step.snippet)
            oracle_big = float(entry.best_configuration.opp_index("big"))
            record["oracle_big_opp"] = oracle_big
            record["oracle_match"] = float(big_opp == oracle_big)
            record["oracle_energy_j"] = float(entry.best_result.energy_j)
            self.oracle_energy += entry.best_result.energy_j
        # Per-step hot path: the record dict above is already coerced, so
        # the RunRecord skips the generated __init__.
        self.log.append_record(RunRecord._from_values(step.index, record))
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
        """Snapshot of the run so far (complete or not).

        The returned object shares the session's log/account/results, so a
        snapshot taken mid-run keeps reflecting the session as it advances.
        """
        from repro.core.framework import PolicyRunResult

        return PolicyRunResult(
            policy_name=self.policy.name,
            log=self.log,
            account=self.account,
            oracle_energy_j=(self.oracle_energy
                             if self.oracle_table is not None else None),
            results=self.results,
        )

    def state_digest(self) -> str:
        """Hex SHA-256 over the session's observable run state.

        Covers the name, the step cursor, every log column (raw float64
        bit patterns, so two digests match only when the logs are
        *bitwise* identical), and the accounting totals.  This is the
        equality the fleet control plane's recovery invariant is stated
        in: a recovered run and an uninterrupted run must report the
        same digest for every device.
        """
        digest = hashlib.sha256()
        digest.update(self.name.encode("utf-8"))
        digest.update(struct.pack("<q", self._cursor))
        columns = self.log.to_dict() if len(self.log) else {}
        for key in sorted(columns):
            values = columns[key]
            digest.update(key.encode("utf-8"))
            digest.update(struct.pack(f"<{len(values)}d", *values))
        digest.update(struct.pack(
            "<3d", self.account.total_energy_j, self.account.total_time_s,
            self.oracle_energy,
        ))
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Durable snapshots
    # ------------------------------------------------------------------ #
    def snapshot_state(self, rng: Any = _RNG_UNSET) -> Dict[str, Any]:
        """Full restorable session state as one picklable dict.

        Everything loop-carried is captured — policy (with its learned
        state), space, trace, log, accounting, counters, cursor and the
        pending step, if the session is paused mid-phase between decide
        and observe.  Two references are deliberately excluded:

        * the **simulator** (shared infrastructure, supplied again at
          :meth:`restore`);
        * the **space_schedule** (a closure over the live space object;
          rebuild it over the restored session's ``.space`` — see
          :meth:`restore`).

        ``rng`` overrides the stored noise generator.  A session adopted
        for batched execution by the fleet engine has had its private
        stream pre-drawn to the end of the trace; pass
        :meth:`~repro.fleet.engine.FleetEngine.sequential_rng_state` so
        the snapshot resumes with sequential-equivalent draws.
        """
        return {
            "version": SNAPSHOT_FORMAT_VERSION,
            "name": self.name,
            "policy": self.policy,
            "space": self.space,
            "snippets": self.snippets,
            "oracle_table": self.oracle_table,
            "rng": self.rng if rng is _RNG_UNSET else rng,
            "log": self.log,
            "account": self.account,
            "results": self.results,
            "counters": self.counters,
            "oracle_energy": self.oracle_energy,
            "cursor": self._cursor,
            "pending": self._pending,
        }

    def snapshot_bytes(self, rng: Any = _RNG_UNSET) -> bytes:
        """This session's :func:`pack_states` snapshot."""
        return pack_states([self.snapshot_state(rng)])

    def save_snapshot(self, path: Union[str, Path],
                      rng: Any = _RNG_UNSET) -> Path:
        """Write a durable snapshot to ``path`` (see :func:`write_durable`)."""
        return write_durable(path, self.snapshot_bytes(rng))

    @staticmethod
    def unpack_snapshot(data: bytes) -> Dict[str, Any]:
        """The one state of :meth:`snapshot_bytes` output (see
        :func:`unpack_states`)."""
        states = unpack_states(data)
        if len(states) != 1:
            raise SnapshotError(f"snapshot holds {len(states)} sessions")
        return states[0]

    @classmethod
    def restore(
        cls,
        state: Union[Dict[str, Any], bytes],
        simulator: SoCSimulator,
        space_schedule: Optional[Callable[[int], ConfigurationSpace]] = None,
    ) -> "PolicySession":
        """Rebuild a session from :meth:`snapshot_state` / snapshot bytes.

        The restored session continues bitwise identically to the original
        (same policy state, same log, same pending step, same noise
        stream).  ``space_schedule`` must be rebuilt over the *restored*
        session's ``.space`` (e.g. ``make_space_schedule(session.space,
        trace)``) — a schedule closed over the original space object would
        make every step compare as throttled against the unpickled space.
        """
        if isinstance(state, (bytes, bytearray)):
            state = cls.unpack_snapshot(bytes(state))
        session = cls(
            simulator,
            state["space"],
            state["policy"],
            state["snippets"],
            oracle_table=state["oracle_table"],
            rng=state["rng"],
            reset_policy=False,
            space_schedule=space_schedule,
            name=state["name"],
        )
        session.log = state["log"]
        session.account = state["account"]
        session.results = state["results"]
        session.counters = state["counters"]
        session.oracle_energy = state["oracle_energy"]
        session._cursor = state["cursor"]
        session._pending = state["pending"]
        return session

    @classmethod
    def load_snapshot(
        cls,
        path: Union[str, Path],
        simulator: SoCSimulator,
        space_schedule: Optional[Callable[[int], ConfigurationSpace]] = None,
    ) -> "PolicySession":
        """Restore a session from a :meth:`save_snapshot` file."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError(f"snapshot {path} unreadable: {exc}") from exc
        return cls.restore(data, simulator, space_schedule=space_schedule)
