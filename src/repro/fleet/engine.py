"""Lockstep fleet engine: advance many :class:`PolicySession`\\ s together.

The paper's deployment story is the online-IL governor running on *every*
device of a fleet.  :class:`FleetEngine` simulates exactly that: ``N``
heterogeneous devices — each with its own measurement noise, snippet
sequence, policy state and (optionally) OPP caps — advanced one decision
epoch at a time, in lockstep.

Input shape
-----------
:meth:`FleetEngine.prepare` takes one shape of fleet and raises
:class:`ValueError`, naming the devices, for anything else:

* every session runs on the same :class:`~repro.soc.simulator.SoCSimulator`
  object, whose class overrides neither ``run_snippet`` nor
  ``execute_lanes``;
* every session's space has the same
  :meth:`~repro.soc.configuration.ConfigurationSpace.content_key`, and
  each policy reasons over its session's space object.

Noise generators are checked where device specs are lowered onto
sessions (:func:`~repro.fleet.device.build_fleet`): a session holds its
drawn noise, not a generator.

Equivalence contract
--------------------
A lockstep fleet produces **bitwise-identical per-device RunLogs** to the
same ``N`` sessions driven to completion sequentially: sessions share no
mutable state, so interleaving their steps cannot change any value.  The
engine exploits that freedom on three phases:

* **decide** — sessions whose policies advertise a shared
  :meth:`~repro.control.policy.DRMPolicy.fleet_decide_key` have their
  per-step decisions computed by one batched
  :meth:`~repro.control.policy.DRMPolicy.fleet_decide` call (the policy
  implements the batch as an exact mirror of its scalar rule); policies
  without a key (RL, offline IL) decide through
  :meth:`~repro.core.session.PolicySession.decide`.
* **execute** — every session runs as one lane of a
  :meth:`~repro.soc.simulator.SoCSimulator.execute_lanes` call, the lane
  executor a lone session's
  :meth:`~repro.soc.simulator.SoCSimulator.run_snippet` runs too.  The
  configuration-independent snippet characteristics and each session's
  noise factors (its :attr:`~repro.core.session.PolicySession.noise`,
  drawn when the session was built) live in fleet-wide padded tensors
  built once at :meth:`prepare`, and every decided step carries its
  configuration's index in the fleet's one space content, so the
  per-step inputs are fancy-indexing gathers.
* **observe** — policies advertising a shared
  :meth:`~repro.control.policy.DRMPolicy.fleet_observe_key` (online-IL:
  its per-device observe is two rank-1 RLS model updates) have their
  feedback delivered by one batched
  :meth:`~repro.control.policy.DRMPolicy.fleet_observe` call before the
  per-session bookkeeping (:meth:`~repro.core.session.PolicySession
  .observe` with ``policy_observed=True``: counters, accounting, log
  record) runs unchanged.  Everyone else observes scalar, which is what
  lets arbitrary learning policies ride in the same fleet.

Sessions under OPP caps batch too: the engine runs the session's
clamp/throttle phase (:meth:`~repro.core.session.PolicySession.throttle`)
on the batched decisions before installing the pending step, so
restricted-space windows stay bitwise faithful.

Per-round inputs
----------------
:meth:`FleetEngine.step` takes two optional inputs, keyed by fleet row (a
session's position in ``sessions``, which :meth:`FleetEngine.replace`
keeps), through which :class:`~repro.fleet.supervisor.FleetSupervisor`
injects faults:

* ``held`` — rows that sit the round out.  A held row leaves every cached
  active list and batched group until it is released.
* ``transforms`` — per-row functions applied to a row's executed
  :class:`~repro.soc.simulator.SnippetResult` before any observe, batched
  or scalar.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, AbstractSet, Callable, Dict, List,
                    Mapping, Optional, Sequence, Tuple)

import numpy as np

from repro.core.session import PolicySession, SessionStep
from repro.soc.simulator import (CHARACTERISTIC_COLUMNS, SnippetResult,
                                 SoCSimulator, characteristics_matrix)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> core)
    from repro.core.framework import PolicyRunResult

#: A per-row rewrite of an executed result (see :meth:`FleetEngine.step`).
ResultTransform = Callable[[SnippetResult], SnippetResult]

#: The fleet's execution kernel: the stock simulator's lane executor,
#: bound to a module-level name so that a tracer can wrap the fleet's
#: calls apart from a lone session's.
lockstep_execute = SoCSimulator.execute_lanes


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
        self._observe_groups: List[_ObserveGroup] = []
        # The vectorized kernel's inputs, built by prepare().
        self._simulator: SoCSimulator = self.sessions[0].simulator
        self._soa = None
        self._chars: Optional[np.ndarray] = None
        self._noise: Optional[np.ndarray] = None
        self._active: List[PolicySession] = []
        self._active_rows: List[int] = []
        self._active_row_array = np.empty(0, dtype=np.intp)
        self._active_dirty = True
        self._held: AbstractSet[int] = frozenset()

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _check_input_shape(self, sessions: Sequence[PolicySession]) -> None:
        """Raise :class:`ValueError` unless ``sessions`` fit the fleet's
        one input shape, that of its first session.

        See the module's "Input shape"; each error names the devices.
        """
        first = self.sessions[0]
        simulator = first.simulator
        names = [session.name for session in sessions
                 if session.simulator is not simulator]
        if names:
            raise ValueError(f"fleet devices {names} run on another "
                             f"simulator object than {first.name!r}")
        overridden = [name for name in ("run_snippet", "execute_lanes")
                      if getattr(type(simulator), name)
                      is not getattr(SoCSimulator, name)]
        if overridden:
            raise ValueError(
                f"fleet devices {[session.name for session in sessions]} "
                f"run on {type(simulator).__name__}, which overrides "
                f"{' and '.join(overridden)}: a fleet runs SoCSimulator's "
                "lane executor"
            )
        content = first.space.content_key()
        names = [session.name for session in sessions
                 if session.space.content_key() != content]
        if names:
            raise ValueError(f"fleet devices {names} have a configuration "
                             f"space of other content than {first.name!r}")
        names = [session.name for session in sessions
                 if session.policy.space is not session.space]
        if names:
            raise ValueError(f"fleet devices {names} have a policy over "
                             "another space object than their session's")

    def prepare(self) -> None:
        """Check the input shape, group the policies and build the step
        tensors (idempotent).

        The step tensors are indexed by fleet row, an explicit index and
        never an ``id()``-derived key, so they can be rebuilt across
        process boundaries (sharded fleets).  ``_chars`` is the padded
        ``(n_sessions, T_max, n_columns)`` snippet characteristics tensor
        and ``_noise`` the matching ``(n_sessions, T_max, 2)`` stack of
        the sessions' noise factors.  ``_soa`` holds the knob columns of
        the fleet's one space content, gathered by each step's
        configuration index.
        """
        if self._prepared:
            return
        self._check_input_shape(self.sessions)
        self._group()
        sessions = self.sessions
        self._soa = sessions[0].space.soa_view()
        t_max = max(len(session) for session in sessions)
        self._chars = np.zeros((len(sessions), t_max,
                                len(CHARACTERISTIC_COLUMNS)))
        self._noise = np.ones((len(sessions), t_max, 2))
        for row, session in enumerate(sessions):
            self._chars[row, :len(session)] = characteristics_matrix(
                session.snippets)
            self._noise[row, :len(session)] = session.noise
        self._prepared = True

    def _group(self) -> None:
        """Group the sessions by their policies' batching keys, in row
        order, each group with a fresh scratch ``state``."""
        self._scalar_decide = []
        decide_groups: Dict[Tuple, List[PolicySession]] = {}
        observe_groups: Dict[Tuple, List[PolicySession]] = {}
        for session in self.sessions:
            key = session.policy.fleet_decide_key()
            if key is None:
                self._scalar_decide.append(session)
            else:
                decide_groups.setdefault(key, []).append(session)
            observe_key = session.policy.fleet_observe_key()
            if observe_key is not None:
                observe_groups.setdefault(observe_key, []).append(session)
        self._decide_groups = [
            _DecideGroup(members) for members in decide_groups.values()
        ]
        self._observe_groups = [
            _ObserveGroup(members) for members in observe_groups.values()
            if len(members) >= 2
        ]

    def replace(self, row: int, session: PolicySession) -> None:
        """Put ``session`` at fleet ``row`` and regroup (a policy swap or a
        restored session, at a round boundary).

        ``session`` must carry the row's definition — the same trace and
        noise objects, as :meth:`~repro.core.session.PolicySession
        .restore` onto the row's session gives — so the step tensors stay
        as they are; it gets :meth:`prepare`'s input-shape checks.  Other
        rows are not read again.
        """
        self.prepare()
        old = self.sessions[row]
        if (session.snippets is not old.snippets
                or session.noise is not old.noise):
            raise ValueError(f"fleet device {session.name!r} does not carry "
                             f"the trace and noise of row {row} "
                             f"({old.name!r})")
        self._check_input_shape([session])
        self.sessions[row] = session
        del self._fleet_row[old]
        self._fleet_row[session] = row
        self._group()
        self._active_dirty = True

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
        self._active_row_array = np.array(self._active_rows, dtype=np.intp)
        live = set(self._active)
        self._live_scalar_decide = [session for session in self._scalar_decide
                                    if session in live]
        for group in (*self._decide_groups, *self._observe_groups):
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
                # loop keeps the step index at the cursor), through the
                # clamp/throttle phase session.decide() runs.
                config, throttled = session.throttle(proposed)
                if config is not proposed:
                    index = session.space.index_of(config)
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

        Every active row executes in one kernel call, and ``transforms``
        rewrite the results; then observe groups deliver their policies'
        feedback through one ``fleet_observe`` call each before the
        per-session bookkeeping observe runs; everyone else observes
        scalar.  Sessions share no mutable state, so the regrouping cannot
        change any value relative to the sequential order.
        """
        # Execution results indexed by explicit fleet row (the session's
        # position in self.sessions) — no id()-keyed maps on the hot path.
        results_of: List[Optional[SnippetResult]] = [None] * len(self.sessions)
        for fleet_row, result in zip(self._active_rows,
                                     self._execute_active()):
            results_of[fleet_row] = result
        self.batched_executions += len(self._active)
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
            session.observe(session._pending, results_of[fleet_row])

    def _execute_active(self) -> List[SnippetResult]:
        """One :func:`lockstep_execute` call over every active row."""
        members = self._active
        n = len(members)
        rows = self._active_row_array
        cursors = np.fromiter((session._cursor for session in members),
                              dtype=np.intp, count=n)
        steps = [session._pending for session in members]
        indices = np.fromiter((step.configuration_index for step in steps),
                              dtype=np.intp, count=n)
        simulator = self._simulator
        opp_index: Dict[str, np.ndarray] = {}
        cores: Dict[str, np.ndarray] = {}
        for name in simulator.platform.cluster_names:
            arrays = self._soa.cluster(name)
            opp_index[name] = arrays.opp_index[indices]
            cores[name] = arrays.active_cores[indices]
        return lockstep_execute(
            simulator,
            [step.snippet for step in steps],
            [step.configuration for step in steps],
            self._chars[rows, cursors],
            opp_index,
            cores,
            self._noise[rows, cursors],
        )
