"""Lockstep fleet engine: advance many :class:`PolicySession`\\ s together.

The paper's deployment story is the online-IL governor running on *every*
device of a fleet.  :class:`FleetEngine` simulates exactly that: ``N``
heterogeneous devices — each with its own seed, snippet sequence, policy
state and (optionally) scenario schedule or restricted configuration space
— advanced one decision epoch at a time, in lockstep.

Equivalence contract
--------------------
A lockstep fleet produces **bitwise-identical per-device RunLogs** to the
same ``N`` sessions driven to completion sequentially, provided each
session owns an independent measurement-noise generator (sessions share no
mutable state, so interleaving their steps cannot change any value).  The
engine exploits that freedom on two phases:

* **decide** — sessions whose policies advertise a shared
  :meth:`~repro.control.policy.DRMPolicy.fleet_decide_key` have their
  per-step decisions computed by one batched
  :meth:`~repro.control.policy.DRMPolicy.fleet_decide` call (the policy
  implements the batch as an exact mirror of its scalar rule); everyone
  else falls back to per-session scalar :meth:`~repro.core.session
  .PolicySession.decide`.
* **execute** — sessions running on a stock
  :class:`~repro.soc.simulator.SoCSimulator` are executed through the
  cross-session vectorized kernel
  (:func:`~repro.fleet.kernels.lockstep_execute`).  Their
  configuration-independent snippet characteristics and their pre-drawn
  log-normal noise factors (consumed from each device's own generator in
  the scalar draw order) live in fleet-wide padded tensors built once at
  :meth:`prepare`, so the per-step inputs are two fancy-indexing gathers.
  Sessions with exotic simulators (or shared/missing generators) fall
  back to scalar :meth:`~repro.core.session.PolicySession.execute`.

* **observe** — policies advertising a shared
  :meth:`~repro.control.policy.DRMPolicy.fleet_observe_key` (online-IL:
  its per-device observe is two rank-1 RLS model updates) have their
  feedback delivered by one batched
  :meth:`~repro.control.policy.DRMPolicy.fleet_observe` call before the
  per-session bookkeeping (:meth:`~repro.core.session.PolicySession
  .observe` with ``policy_observed=True``: counters, accounting, log
  record) runs unchanged.  Everyone else observes scalar, which is what
  lets arbitrary learning policies ride in the same fleet.

Sessions under a scenario schedule batch too: the engine mirrors the
session's clamp/throttle phase on the batched decisions before installing
the pending step, so restricted-space windows stay bitwise faithful.

Per-round inputs
----------------
:meth:`FleetEngine.step` takes two optional inputs, keyed by fleet row (a
session's position in ``sessions``, stable across engine rebuilds), through
which :class:`~repro.fleet.supervisor.FleetSupervisor` injects faults:

* ``held`` — rows that sit the round out.  A held row leaves every cached
  active list and batched group until it is released.
* ``transforms`` — per-row functions applied to a row's executed
  :class:`~repro.soc.simulator.SnippetResult` before any observe, batched
  or scalar.

Once :meth:`run` (or :meth:`prepare`) has adopted a session for batched
execution, its noise stream has been pre-drawn — keep driving it through
the engine rather than calling ``session.execute`` directly.
"""

from __future__ import annotations

from collections import Counter
from typing import (TYPE_CHECKING, AbstractSet, Callable, Dict, List,
                    Mapping, Optional, Sequence, Tuple)

import numpy as np

from repro.core.session import PolicySession, SessionStep
from repro.fleet.kernels import TraceArrays, lockstep_execute
from repro.soc.simulator import SnippetResult, SoCSimulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> core)
    from repro.core.framework import PolicyRunResult

#: A per-row rewrite of an executed result (see :meth:`FleetEngine.step`).
ResultTransform = Callable[[SnippetResult], SnippetResult]


def _noise_draws(rng: np.random.Generator, noise_scale: float,
                steps: int) -> np.ndarray:
    """The scalar path's measurement-noise normals for ``steps`` steps.

    Two normals per step (time then power), consumed in step order from
    the session's own generator: the ``(steps, 2)`` block fills row-major
    from the bit stream, so it consumes exactly what ``steps`` scalar
    executions would.
    """
    return rng.normal(0.0, noise_scale, size=(steps, 2))


class _ExecGroup:
    """Sessions sharing one simulator, with fleet-wide step tensors.

    ``chars`` is the padded ``(n_sessions, T_max, n_columns)`` snippet
    characteristics tensor and ``noise`` the matching ``(n_sessions,
    T_max, 2)`` pre-drawn ``exp(normal)`` factor tensor (``None`` for
    noise-free simulators).  A session's tensor row is its *position* in
    ``sessions`` — an explicit index, never an ``id()``-derived key, so
    the group survives pickling and can be rebuilt across process
    boundaries (sharded fleets).  ``fleet_rows`` maps each group row to
    the session's row in the owning engine's session list.  One step of
    the group gathers both tensors with a single fancy index.
    """

    __slots__ = ("simulator", "sessions", "fleet_rows", "chars", "noise",
                 "uniform_soa", "active_members", "active_rows",
                 "active_fleet_rows", "initial_rng", "trailing_rng")

    def __init__(self, simulator: SoCSimulator,
                 sessions: List[PolicySession],
                 fleet_rows: List[int]) -> None:
        self.simulator = simulator
        self.sessions = sessions
        self.fleet_rows = fleet_rows
        # Generator state of each session *before* its noise stream is
        # pre-drawn below, keyed by the session's group row, with the step
        # index the stream was positioned at.
        self.initial_rng: Dict[int, Tuple[dict, int]] = {}
        # Per pre-drawn row, a generator that sequential stepping would
        # have left at the paired step: built from initial_rng the first
        # time FleetEngine.sequential_rng_state needs it, then advanced
        # only by the steps completed since.
        self.trailing_rng: Dict[int, Tuple[np.random.Generator, int]] = {}
        spaces = {session.space.content_key() for session in sessions}
        self.uniform_soa = (sessions[0].space.soa_view()
                            if len(spaces) == 1 else None)
        self.active_members: List[PolicySession] = []
        self.active_rows = np.empty(0, dtype=np.intp)
        self.active_fleet_rows: List[int] = []
        t_max = max(len(session) for session in sessions)
        traces = [TraceArrays(session.snippets) for session in sessions]
        n_columns = traces[0].matrix.shape[1]
        self.chars = np.zeros((len(sessions), t_max, n_columns))
        for row, trace in enumerate(traces):
            self.chars[row, :len(trace)] = trace.matrix
        noise_scale = simulator.noise_scale
        if noise_scale == 0.0:
            self.noise: Optional[np.ndarray] = None
            return
        self.noise = np.ones((len(sessions), t_max, 2))
        for row, session in enumerate(sessions):
            remaining = len(session) - session.step_index
            if remaining <= 0:
                continue
            start = session.step_index
            self.initial_rng[row] = (
                session.rng.bit_generator.state, start
            )
            self.noise[row, start:start + remaining] = np.exp(
                _noise_draws(session.rng, noise_scale, remaining)
            )

    def refresh(self, live: AbstractSet[PolicySession]) -> None:
        self.active_members = []
        self.active_fleet_rows = []
        rows: List[int] = []
        for row, session in enumerate(self.sessions):
            if session in live:
                self.active_members.append(session)
                self.active_fleet_rows.append(self.fleet_rows[row])
                rows.append(row)
        self.active_rows = np.array(rows, dtype=np.intp)


class _DecideGroup:
    """Sessions whose policies share one batched-decide key.

    ``active_members``/``active_policies`` cache the subset that steps
    (unfinished, not held); the engine refreshes them only when some
    session completes or the held rows change, so steady-state steps skip
    the per-step filtering entirely.  ``state`` is the group's persistent
    scratch dict, handed to every ``fleet_decide`` call so stateful
    policies (online-IL) can memoise their adopted cross-device stacks
    across steps.
    """

    __slots__ = ("sessions", "active_members", "active_policies", "state")

    def __init__(self, sessions: List[PolicySession]) -> None:
        self.sessions = sessions
        self.active_members: List[PolicySession] = []
        self.active_policies: List = []
        self.state: Dict = {}

    def refresh(self, live: AbstractSet[PolicySession]) -> None:
        self.active_members = [session for session in self.sessions
                               if session in live]
        self.active_policies = [session.policy
                                for session in self.active_members]


class _ObserveGroup(_DecideGroup):
    """Sessions whose policies share one batched-observe key.

    Same caching/refresh structure as :class:`_DecideGroup` (the keys are
    computed independently, so decide and observe groups may partition the
    fleet differently); ``state`` persists across ``fleet_observe`` calls.
    """

    __slots__ = ()


class FleetEngine:
    """Advances a set of policy sessions in lockstep with cross-session batching."""

    def __init__(self, sessions: Sequence[PolicySession]) -> None:
        self.sessions: List[PolicySession] = list(sessions)
        if not self.sessions:
            raise ValueError("FleetEngine needs at least one session")
        self.steps_executed = 0
        self.batched_executions = 0
        self.batched_decisions = 0
        self.batched_observes = 0
        self._prepared = False
        # Fleet row of each session: its explicit position in
        # self.sessions.  Keyed by the session object itself (identity
        # hash, holding a strong reference) — never by id(), whose values
        # are process-local and reusable after garbage collection.
        self._fleet_row: Dict[PolicySession, int] = {
            session: row for row, session in enumerate(self.sessions)
        }
        self._scalar_decide: List[PolicySession] = []
        self._live_scalar_decide: List[PolicySession] = []
        self._decide_groups: List[_DecideGroup] = []
        self._exec_groups: List[_ExecGroup] = []
        # Each batched-execute session's group and row in it (see
        # _fleet_row on keying by the session object).
        self._exec_slot: Dict[PolicySession, Tuple[_ExecGroup, int]] = {}
        self._scalar_execute: List[PolicySession] = []
        self._scalar_execute_rows: List[int] = []
        self._observe_groups: List[_ObserveGroup] = []
        self._active: List[PolicySession] = []
        self._active_rows: List[int] = []
        self._active_dirty = True
        self._held: AbstractSet[int] = frozenset()

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _session_decide_key(self, session: PolicySession) -> Optional[Tuple]:
        """Batched-decide group key of ``session`` (None = scalar fallback).

        Batching a decide requires the policy to reason over exactly the
        session's space; a scenario schedule is fine — the engine mirrors
        the session's clamp/throttle phase on the batched decisions before
        installing each pending step.
        """
        if session.policy.space is not session.space:
            return None
        return session.policy.fleet_decide_key()

    def _session_observe_key(self, session: PolicySession) -> Optional[Tuple]:
        """Batched-observe group key of ``session`` (None = scalar observe)."""
        if session.policy.space is not session.space:
            return None
        return session.policy.fleet_observe_key()

    def _execute_batchable(self, session: PolicySession,
                           rng_users: Counter) -> bool:
        """Whether ``session`` may run through the vectorized kernel.

        Requires a stock :class:`SoCSimulator` execution path (subclasses
        overriding ``run_snippet`` keep their override) and a private
        noise generator — pre-drawing from a stream some other consumer
        also draws from (another session, the simulator itself, or the
        session's own policy via a shared/aliased generator) would reorder
        draws relative to sequential runs.  Policies stashing a generator
        under an unconventional attribute name escape the heuristic
        aliasing check — give every device a generator of its own.
        """
        simulator = session.simulator
        if type(simulator).run_snippet is not SoCSimulator.run_snippet:
            return False
        rng = session.rng
        if rng is None or rng is simulator.rng:
            return False
        for attr in ("rng", "_rng"):
            if getattr(session.policy, attr, None) is rng:
                return False
        return rng_users[rng] == 1

    def prepare(self) -> None:
        """Classify sessions and build the fleet step tensors (idempotent)."""
        if self._prepared:
            return
        # Counters/dicts below key on the objects themselves (generators,
        # simulators) — identity-hashed with strong references, so keys
        # can never alias through address reuse the way id() keys can.
        rng_users = Counter(
            session.rng for session in self.sessions
            if session.rng is not None
        )
        decide_groups: Dict[Tuple, List[PolicySession]] = {}
        exec_groups: Dict[SoCSimulator, List[PolicySession]] = {}
        observe_groups: Dict[Tuple, List[PolicySession]] = {}
        for session in self.sessions:
            key = self._session_decide_key(session)
            if key is None:
                self._scalar_decide.append(session)
            else:
                decide_groups.setdefault(key, []).append(session)
            if self._execute_batchable(session, rng_users):
                exec_groups.setdefault(session.simulator, []).append(session)
            else:
                self._scalar_execute.append(session)
                self._scalar_execute_rows.append(self._fleet_row[session])
            observe_key = self._session_observe_key(session)
            if observe_key is not None:
                observe_groups.setdefault(observe_key, []).append(session)
        self._decide_groups = [
            _DecideGroup(members) for members in decide_groups.values()
        ]
        self._exec_groups = [
            _ExecGroup(simulator, members,
                       [self._fleet_row[session] for session in members])
            for simulator, members in exec_groups.items()
        ]
        self._exec_slot = {
            session: (group, row) for group in self._exec_groups
            for row, session in enumerate(group.sessions)
        }
        self._observe_groups = [
            _ObserveGroup(members) for members in observe_groups.values()
            if len(members) >= 2
        ]
        self._prepared = True

    def execute_fallback_sessions(self) -> List[PolicySession]:
        """Sessions whose executions would run scalar (no batched kernel).

        Pure classification — usable before :meth:`prepare` (no step
        tensors are built and no noise is pre-drawn), so fleet builders
        can surface the silent performance degradation eagerly
        (:func:`~repro.fleet.device.build_fleet` warns with the device
        names).
        """
        rng_users = Counter(
            session.rng for session in self.sessions
            if session.rng is not None
        )
        return [session for session in self.sessions
                if not self._execute_batchable(session, rng_users)]

    def _sequential_rng(
        self, session: PolicySession
    ) -> Optional[np.random.Generator]:
        """``session``'s noise generator at its logical position.

        A pre-drawn row's generator is built from the pre-draw-time state
        the first time it is asked for, kept, and afterwards advanced only
        by the draws of the steps completed since the previous call.
        Scalar-execute rows, noise-free simulators and rows that had
        finished when the engine was built were never pre-drawn: their
        ``session.rng`` already is sequential.
        """
        self.prepare()
        slot = self._exec_slot.get(session)
        if slot is None:
            return session.rng
        group, row = slot
        trailing = group.trailing_rng.get(row)
        if trailing is not None:
            rng, position = trailing
        else:
            initial = group.initial_rng.get(row)
            if initial is None:
                return session.rng
            state, position = initial
            bit_generator = type(session.rng.bit_generator)()
            bit_generator.state = state
            rng = np.random.Generator(bit_generator)
        if session._cursor > position:
            _noise_draws(rng, group.simulator.noise_scale,
                         session._cursor - position)
        group.trailing_rng[row] = (rng, session._cursor)
        return rng

    def sequential_rng_state(self, session: PolicySession) -> Optional[dict]:
        """Bit-generator state sequential scalar stepping would leave.

        Adopting a session for batched execution pre-draws its private
        noise stream for the whole remaining trace at :meth:`prepare`, so
        ``session.rng`` no longer reflects the session's *logical*
        position.  This is the state of an equivalent generator, which
        the engine keeps per row between calls, so a call costs the draws
        of the steps completed since the previous one.  Pass it to
        :meth:`~repro.core.session.PolicySession.snapshot_state`.
        ``None`` for a session without a generator.
        """
        rng = self._sequential_rng(session)
        return None if rng is None else rng.bit_generator.state

    def release_sessions(self) -> List[PolicySession]:
        """Detach every session with a sequential-equivalent noise stream.

        Adopted sessions had their private generators pre-drawn to the end
        of the trace at :meth:`prepare`; this hands each session the
        generator :meth:`sequential_rng_state` describes, so the sessions
        can be handed to a *new* engine (or driven scalar) and continue
        bitwise identically to an uninterrupted sequential run.  The
        supervisor uses this to rebuild the engine after a snapshot
        restore or a policy swap.  This engine must be discarded
        afterwards — its pre-drawn tensors no longer own the sessions'
        streams.
        """
        self.prepare()
        for session in self.sessions:
            session.rng = self._sequential_rng(session)
        return self.sessions

    # ------------------------------------------------------------------ #
    # Lockstep stepping
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        return all(session.done for session in self.sessions)

    def step(self, held: AbstractSet[int] = frozenset(),
             transforms: Optional[Mapping[int, ResultTransform]] = None,
             ) -> int:
        """Advance every unfinished, not ``held`` session by one step.

        Returns the count.  ``transforms`` rewrite the executed results of
        their rows, which must step this round, before any observe (see
        the module's "Per-round inputs").
        """
        self.prepare()
        if self._active_dirty or held != self._held:
            self._held = frozenset(held)
            self._refresh_active()
            self._active_dirty = False
        active = self._active
        if not active:
            return 0
        self._decide_phase()
        self._execute_and_observe_phase(transforms)
        self.steps_executed += len(active)
        for session in active:
            if session.done:
                self._active_dirty = True
                break
        return len(active)

    def run(self) -> List["PolicyRunResult"]:
        """Drive every session to completion; returns per-device results."""
        self.prepare()
        while not self.done:
            self.step()
        return [session.result() for session in self.sessions]

    # ------------------------------------------------------------------ #
    # Phase implementations
    # ------------------------------------------------------------------ #
    def _refresh_active(self) -> None:
        """Rebuild the cached stepping views (unfinished, not held rows)."""
        self._active = []
        self._active_rows = []
        for row, session in enumerate(self.sessions):
            if session._cursor < session._trace_len and row not in self._held:
                self._active.append(session)
                self._active_rows.append(row)
        live = set(self._active)
        self._live_scalar_decide = [session for session in self._scalar_decide
                                    if session in live]
        for group in (*self._decide_groups, *self._exec_groups,
                      *self._observe_groups):
            group.refresh(live)

    def _decide_phase(self) -> None:
        """Install a pending :class:`SessionStep` on every active session."""
        for session in self._live_scalar_decide:
            session.decide()
        step_from_values = SessionStep._from_values
        for group in self._decide_groups:
            members = group.active_members
            if not members:
                continue
            policies = group.active_policies
            counters = [session.counters for session in members]
            snippets = []
            for session in members:
                if session._pending is not None:
                    # Same invariant session.decide() enforces: a step
                    # decided outside the engine (or left behind by a
                    # failed observe) must not be silently clobbered —
                    # its policy state already advanced past ours.
                    raise RuntimeError(
                        f"session {session.name!r} has an unobserved "
                        "pending step"
                    )
                snippets.append(session.snippets[session._cursor])
            configs, indices = type(policies[0]).fleet_decide(
                policies, counters, snippets, group.state
            )
            for session, snippet, proposed, index in zip(
                    members, snippets, configs, indices):
                # Fast-path construction of the step the session's own
                # decide() would have produced, installed directly as its
                # pending step (the pending check ran above; the lockstep
                # loop keeps the step index at the cursor).  The
                # clamp/throttle mirror below is session.decide()'s,
                # statement for statement.
                config = proposed
                throttled = False
                if session.space_schedule is not None:
                    active_space = session.space_schedule(session._cursor)
                    throttled = active_space is not session.space
                    if throttled and not active_space.contains(config):
                        config = active_space.clamp(config)
                        index = session.space._index.get(config)
                session._pending = step_from_values({
                    "index": session._cursor,
                    "snippet": snippet,
                    "proposed": proposed,
                    "configuration": config,
                    "throttled": throttled,
                    "configuration_index": index,
                })
            self.batched_decisions += len(members)

    def _execute_and_observe_phase(
        self, transforms: Optional[Mapping[int, ResultTransform]],
    ) -> None:
        """Execute every pending step and feed the outcomes back.

        Execution results are collected first (batched kernel groups plus
        scalar stragglers) and rewritten by ``transforms``, then observe
        groups deliver their policies' feedback through one
        ``fleet_observe`` call each before the per-session bookkeeping
        observe runs; everyone else observes scalar.  Sessions share no
        mutable state, so the regrouping cannot change any value relative
        to the sequential order.
        """
        # Execution results indexed by explicit fleet row (the session's
        # position in self.sessions) — no id()-keyed maps on the hot path.
        results_of: List[Optional[SnippetResult]] = [None] * len(self.sessions)
        for group in self._exec_groups:
            members = group.active_members
            if not members:
                continue
            results = self._execute_group(group, members)
            for fleet_row, result in zip(group.active_fleet_rows, results):
                results_of[fleet_row] = result
            self.batched_executions += len(members)
        for fleet_row, session in zip(self._scalar_execute_rows,
                                      self._scalar_execute):
            if session._pending is not None:
                results_of[fleet_row] = session.execute(session._pending)
        if transforms:
            for fleet_row, transform in transforms.items():
                results_of[fleet_row] = transform(results_of[fleet_row])
        batch_observed: set = set()
        fleet_row_of = self._fleet_row
        for group in self._observe_groups:
            members = group.active_members
            if len(members) < 2:
                continue
            steps = [session._pending for session in members]
            member_rows = [fleet_row_of[session] for session in members]
            results = [results_of[row] for row in member_rows]
            policies = group.active_policies
            type(policies[0]).fleet_observe(
                policies, steps, results, group.state
            )
            for session, step, result in zip(members, steps, results):
                session.observe(step, result, policy_observed=True)
            self.batched_observes += len(members)
            batch_observed.update(member_rows)
        for fleet_row, session in zip(self._active_rows, self._active):
            if fleet_row in batch_observed:
                continue
            step = session._pending
            if step is not None:
                session.observe(step, results_of[fleet_row])

    def _execute_group(
        self,
        group: _ExecGroup,
        members: Sequence[PolicySession],
    ) -> List[SnippetResult]:
        n = len(members)
        rows = group.active_rows
        cursors = np.fromiter((session._cursor for session in members),
                              dtype=np.intp, count=n)
        char_rows = group.chars[rows, cursors]
        noise = None if group.noise is None else group.noise[rows, cursors]
        group_steps = [session._pending for session in members]
        simulator = group.simulator
        cluster_names = simulator.platform.cluster_names
        opp_index: Dict[str, np.ndarray] = {}
        cores: Dict[str, np.ndarray] = {}
        soa = group.uniform_soa
        if (soa is not None
                and all(step.configuration_index is not None
                        for step in group_steps)):
            # Every decided configuration is index-addressed in one shared
            # space: gather the knob columns straight from its SoA view.
            indices = np.fromiter(
                (step.configuration_index for step in group_steps),
                dtype=np.intp, count=n,
            )
            for name in cluster_names:
                arrays = soa.cluster(name)
                opp_index[name] = arrays.opp_index[indices]
                cores[name] = arrays.active_cores[indices]
        else:
            for name in cluster_names:
                opp_index[name] = np.fromiter(
                    (step.configuration.opp_index(name)
                     for step in group_steps), dtype=np.intp, count=n,
                )
                cores[name] = np.fromiter(
                    (step.configuration.cores(name)
                     for step in group_steps), dtype=np.intp, count=n,
                )
        return lockstep_execute(
            simulator,
            [step.snippet for step in group_steps],
            char_rows,
            opp_index,
            cores,
            [step.configuration for step in group_steps],
            noise,
        )
