"""Tests for the resumable :class:`~repro.core.session.PolicySession`.

The session decomposes the policy run loop into explicit
decide -> clamp/throttle -> execute -> observe phases; these tests pin the
state-machine semantics (phase ordering, resumability, mid-run snapshots)
and the bitwise equivalence of session-driven runs with the historical
closed-loop behaviour (which the golden traces also gate end to end).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import stat
from types import SimpleNamespace

import numpy as np
import pytest

from repro.control.policy import GovernorPolicy, StaticPolicy
from repro.core import session as session_module
from repro.core.framework import run_policy_on_snippets
from repro.core.session import (
    PolicySession,
    SnapshotError,
    pack_states,
    unpack_states,
)
from repro.fleet import DeviceSpec, FleetEngine, build_fleet
from repro.scenarios import get_scenario
from repro.soc.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.utils.records import COLUMNS
from repro.workloads.suites import training_workloads


@pytest.fixture()
def snippet_trace(trace_generator):
    return trace_generator.generate(training_workloads()[0].scaled(0.3))


def _log_columns(result):
    return {key: result.log.column(key)
            for key in ("energy_j", "time_s", "power_w", "big_opp",
                        "little_opp")}


class TestPhases:
    def test_advance_equals_manual_phases(self, noisy_simulator, space,
                                          snippet_trace):
        auto = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(7),
        )
        auto_result = auto.run()

        manual = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(7),
        )
        while not manual.done:
            step = manual.decide()
            assert manual.pending is step
            result = manual.execute(step)
            manual.observe(step, result)
            assert manual.pending is None
        manual_result = manual.result()

        for key, column in _log_columns(auto_result).items():
            np.testing.assert_array_equal(column, manual_result.log.column(key))
        assert auto_result.total_energy_j == manual_result.total_energy_j

    def test_session_matches_run_policy_on_snippets(self, noisy_simulator,
                                                    space, snippet_trace):
        reference = run_policy_on_snippets(
            noisy_simulator, space, StaticPolicy(space), snippet_trace,
            rng=np.random.default_rng(3),
        )
        session = PolicySession(
            noisy_simulator, space, StaticPolicy(space), snippet_trace,
            rng=np.random.default_rng(3),
        )
        result = session.run()
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, result.log.column(key))
        assert reference.total_energy_j == result.total_energy_j

    def test_decide_on_done_session_raises(self, simulator, space,
                                           snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace[:1])
        session.advance()
        assert session.done
        with pytest.raises(RuntimeError, match="already complete"):
            session.decide()

    def test_double_decide_raises(self, simulator, space, snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace)
        session.decide()
        with pytest.raises(RuntimeError, match="unobserved pending step"):
            session.decide()

    def test_decision_outside_the_space_raises(self, simulator, space,
                                               snippet_trace):
        """A lone decide names a configuration outside the session's
        space instead of logging it without an index."""
        restricted = space.restrict(max_opp_index=1)
        outside = space[len(space) - 1]
        assert not restricted.contains(outside)
        session = PolicySession(simulator, restricted,
                                StaticPolicy(space, outside), snippet_trace)
        with pytest.raises(KeyError, match="configuration not in space"):
            session.decide()
        assert session.pending is None

    def test_execute_without_decide_raises(self, simulator, space,
                                           snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace)
        with pytest.raises(RuntimeError, match="no pending step"):
            session.execute()

    def test_double_observe_raises(self, simulator, space, snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace)
        step = session.decide()
        result = session.execute(step)
        session.observe(step, result)
        with pytest.raises(RuntimeError, match="no pending step to observe"):
            session.observe(step, result)
        assert len(session.log) == 1  # nothing was double-counted


class TestResumability:
    def test_midrun_snapshot_tracks_session(self, noisy_simulator, space,
                                            snippet_trace):
        session = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(11),
        )
        half = len(snippet_trace) // 2
        for _ in range(half):
            session.advance()
        snapshot = session.result()
        assert len(snapshot.log) == half
        # The snapshot shares the session's log: it keeps growing.
        session.advance()
        assert len(snapshot.log) == half + 1

    def test_paused_and_resumed_run_is_bitwise_identical(
            self, noisy_simulator, space, snippet_trace):
        reference = run_policy_on_snippets(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(5),
        )
        session = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(5),
        )
        for _ in range(3):
            session.advance()
        resumed = session.run()  # continues from step 3
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))

    def test_step_index_and_len(self, simulator, space, snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace)
        assert len(session) == len(snippet_trace)
        assert session.step_index == 0
        session.advance()
        assert session.step_index == 1


class TestThrottling:
    def test_trace_caps_throttle_and_flag(self, simulator, space,
                                          snippet_trace):
        caps = [1 if i % 2 == 0 else None for i in range(len(snippet_trace))]
        policy = StaticPolicy(space, space[len(space) - 1])  # max everything
        session = PolicySession(simulator, space, policy, snippet_trace,
                                caps=caps)
        result = session.run()
        throttled = result.log.column("throttled")
        np.testing.assert_array_equal(
            throttled, [1.0 if i % 2 == 0 else 0.0
                        for i in range(len(snippet_trace))]
        )
        big_opps = result.log.column("big_opp")
        assert np.all(big_opps[::2] <= 1.0)


class TestDurableSnapshots:
    """Checksummed snapshot/restore of sessions (crash-recovery substrate)."""

    def _fresh(self, noisy_simulator, space, snippet_trace, seed=11):
        return PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(seed),
        )

    def test_restore_midrun_is_bitwise_identical(self, noisy_simulator, space,
                                                 snippet_trace):
        reference = self._fresh(noisy_simulator, space, snippet_trace).run()
        session = self._fresh(noisy_simulator, space, snippet_trace)
        for _ in range(3):
            session.advance()
        data = session.snapshot_bytes()
        # Poison the original past the snapshot point: restoring must not
        # depend on the live session in any way.
        session.run()
        restored = PolicySession.restore(data, session)
        assert restored.step_index == 3
        resumed = restored.run()
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))
        assert reference.total_energy_j == resumed.total_energy_j

    def test_snapshot_with_pending_step_resumes_bitwise(
            self, noisy_simulator, space, snippet_trace):
        """A snapshot taken mid-step (decided, not yet observed) resumes."""
        reference = self._fresh(noisy_simulator, space, snippet_trace).run()
        session = self._fresh(noisy_simulator, space, snippet_trace)
        session.advance()
        step = session.decide()  # snapshot between decide and execute
        assert session.pending is step
        data = session.snapshot_bytes()
        session.execute(step)  # the original moves on
        restored = PolicySession.restore(data, session)
        assert restored.pending is not None
        assert restored.pending.index == 1
        pending = restored.pending
        result = restored.execute(pending)
        restored.observe(pending, result)
        resumed = restored.run()
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))

    def test_save_and_load_roundtrip(self, tmp_path, noisy_simulator, space,
                                     snippet_trace):
        reference = self._fresh(noisy_simulator, space, snippet_trace).run()
        session = self._fresh(noisy_simulator, space, snippet_trace)
        for _ in range(2):
            session.advance()
        path = session.save_snapshot(tmp_path / "nested" / "dev.snapshot")
        assert path.exists()
        restored = PolicySession.load_snapshot(
            path, self._fresh(noisy_simulator, space, snippet_trace))
        resumed = restored.run()
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))

    def test_corrupted_snapshot_raises(self, tmp_path, noisy_simulator, space,
                                       snippet_trace):
        session = self._fresh(noisy_simulator, space, snippet_trace)
        session.advance()
        path = session.save_snapshot(tmp_path / "dev.snapshot")
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip one payload bit
        with pytest.raises(SnapshotError, match="checksum"):
            PolicySession.unpack_snapshot(bytes(data))

    def test_truncated_and_foreign_snapshots_raise(self, noisy_simulator,
                                                   space, snippet_trace):
        session = self._fresh(noisy_simulator, space, snippet_trace)
        data = session.snapshot_bytes()
        with pytest.raises(SnapshotError):
            PolicySession.unpack_snapshot(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="magic"):
            PolicySession.unpack_snapshot(b"not a snapshot at all")

    def test_missing_snapshot_file_raises(self, tmp_path, noisy_simulator,
                                          space, snippet_trace):
        template = self._fresh(noisy_simulator, space, snippet_trace)
        with pytest.raises(SnapshotError, match="read"):
            PolicySession.load_snapshot(tmp_path / "absent.snapshot",
                                        template)

    def test_restore_preserves_policy_space_identity(
            self, noisy_simulator, space, snippet_trace):
        """The engine's group keys need ``policy.space is session.space``."""
        session = self._fresh(noisy_simulator, space, snippet_trace)
        session.advance()
        restored = PolicySession.restore(session.snapshot_bytes(), session)
        assert restored.policy.space is restored.space

    def test_save_snapshot_fsyncs_file_and_directory(
            self, tmp_path, monkeypatch, noisy_simulator, space,
            snippet_trace):
        """The snapshot's bytes and its directory entry are both fsync'd
        before save_snapshot returns."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        session = self._fresh(noisy_simulator, space, snippet_trace)
        session.advance()
        path = session.save_snapshot(tmp_path / "nested" / "dev.snapshot")
        monkeypatch.undo()
        # The temp file keeps its inode across the rename.
        assert sorted(synced) == [(False, path.stat().st_ino),
                                  (True, path.parent.stat().st_ino)]
        assert [p.name for p in path.parent.iterdir()] == ["dev.snapshot"]

    def test_states_of_many_sessions_share_objects(
            self, noisy_simulator, space, snippet_trace):
        """One pickle over many sessions keeps their one space shared, and
        a many-session snapshot is not a single-session snapshot."""
        sessions = [self._fresh(noisy_simulator, space, snippet_trace,
                                seed=seed) for seed in (1, 2)]
        for session in sessions:
            session.advance()
        data = pack_states([session.snapshot_state() for session in sessions])
        first, second = unpack_states(data)
        assert first["space"] is second["space"]
        assert first["policy"].space is first["space"]
        restored = PolicySession.restore(second, sessions[1])
        resumed = restored.run()
        expected = self._fresh(noisy_simulator, space, snippet_trace,
                               seed=2).run()
        for key, column in _log_columns(expected).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))
        with pytest.raises(SnapshotError, match="2 sessions"):
            PolicySession.unpack_snapshot(data)


class TestStateOnlySnapshots:
    """A snapshot holds what changes while a session runs, not its trace."""

    def test_state_size_does_not_grow_with_the_run(self, noisy_simulator,
                                                   space, trace_generator):
        """Apart from the log, an ondemand scenario session's state pickles
        to the same size at step 60 as at step 10."""
        base = [snippet for workload in training_workloads()[:3]
                for snippet in trace_generator.generate(workload)]
        trace = get_scenario("thermal_throttle").apply(base, 1)
        assert trace.throttle_events and len(trace.snippets) > 60
        session = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            trace.snippets, rng=np.random.default_rng(3), caps=trace.caps(),
        )

        def state_bytes():
            state = session.snapshot_state()
            del state["log"]
            return len(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

        for _ in range(10):
            session.advance()
        at_10 = state_bytes()
        for _ in range(50):
            session.advance()
        assert abs(state_bytes() - at_10) <= 16

    def test_pickled_log_grows_by_one_row_per_step(self, noisy_simulator,
                                                   space, trace_generator):
        """A snapshot's log costs exactly one float64 per column per step."""
        trace = [snippet for workload in training_workloads()[:3]
                 for snippet in trace_generator.generate(workload)]
        assert len(trace) > 60
        session = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            trace, rng=np.random.default_rng(3),
        )

        def log_bytes():
            log = session.snapshot_state()["log"]
            return len(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL))

        for _ in range(10):
            session.advance()
        at_10 = log_bytes()
        for _ in range(50):
            session.advance()
        assert log_bytes() - at_10 == 8 * len(COLUMNS) * 50

    def test_restore_refuses_a_trace_of_another_length(
            self, noisy_simulator, space, snippet_trace):
        def session_over(trace):
            return PolicySession(noisy_simulator, space, StaticPolicy(space),
                                 trace, rng=np.random.default_rng(1))

        session = session_over(snippet_trace)
        session.advance()
        data = session.snapshot_bytes()
        with pytest.raises(SnapshotError, match="step trace"):
            PolicySession.restore(data, session_over(snippet_trace[:-1]))
        with pytest.raises(SnapshotError, match="step trace"):
            PolicySession.restore(
                data, session_over(snippet_trace + snippet_trace[:1]))

    def test_restore_refuses_a_version_5_payload(self, noisy_simulator,
                                                 space, snippet_trace):
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        session.advance()
        state = session.snapshot_state()
        state["version"] = 5
        with pytest.raises(SnapshotError, match="version 10"):
            PolicySession.restore(pack_states([state]), session)

    def test_restore_refuses_a_version_6_payload(self, noisy_simulator,
                                                 space, snippet_trace):
        """A version-6 pending step may carry no configuration index."""
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        session.decide()
        state = session.snapshot_state()
        state["version"] = 6
        state["pending"].configuration_index = None
        with pytest.raises(SnapshotError, match="version 10"):
            PolicySession.restore(pack_states([state]), session)

    def test_restore_refuses_a_version_7_payload(self, noisy_simulator,
                                                 space, snippet_trace):
        """A version-7 state holds a noise generator's state and no
        dispatched cap."""
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        session.advance()
        state = session.snapshot_state()
        state["version"] = 7
        state["rng"] = np.random.default_rng(1).bit_generator.state
        del state["dispatched_cap"]
        with pytest.raises(SnapshotError, match="version 10"):
            PolicySession.restore(pack_states([state]), session)

    def test_restore_refuses_a_version_8_payload(self, noisy_simulator,
                                                 space, snippet_trace):
        """Version-8 states went to one snapshot file per rotation, each
        with its whole log."""
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        session.advance()
        state = session.snapshot_state()
        state["version"] = 8
        with pytest.raises(SnapshotError, match="version 10"):
            PolicySession.restore(pack_states([state]), session)

    def test_restore_refuses_a_version_9_payload(self, noisy_simulator,
                                                 space, snippet_trace):
        """Version-9 states pickled configuration spaces with their
        per-cluster cap and gating switches."""
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        session.advance()
        state = session.snapshot_state()
        state["version"] = 9
        with pytest.raises(SnapshotError, match="version 10"):
            PolicySession.restore(pack_states([state]), session)

    def test_state_holds_no_noise(self, noisy_simulator, space,
                                  snippet_trace):
        """Noise is definition: drawn once when the session is built, and
        neither a generator nor the factors go into a snapshot."""
        session = PolicySession(noisy_simulator, space, StaticPolicy(space),
                                snippet_trace, rng=np.random.default_rng(1))
        assert session.noise.shape == (len(snippet_trace), 2)
        assert not hasattr(session, "rng")
        state = session.snapshot_state()
        assert "rng" not in state
        assert not any(value is session.noise for value in state.values())


#: Every by-name policy the control plane can build (the governor zoo
#: plus static); the learned policies join via the trained_framework
#: fixture below.
NAMED_POLICY_BUILDERS = {
    "static": lambda space: StaticPolicy(space),
    "ondemand": lambda space: GovernorPolicy(OndemandGovernor(space)),
    "interactive": lambda space: GovernorPolicy(InteractiveGovernor(space)),
    "performance": lambda space: GovernorPolicy(PerformanceGovernor(space)),
    "powersave": lambda space: GovernorPolicy(PowersaveGovernor(space)),
}


class TestSnapshotEveryPolicy:
    """Snapshot -> restore -> continue is bitwise for EVERY policy type.

    The control-plane recovery invariant quantifies over whatever policy
    a device runs, so the property is pinned per policy kind — including
    under a scenario's caps (definition, which the template supplies) and
    over a restricted configuration space.  Each restore's template is
    the original session, run to its end past the snapshot point.
    """

    def _check_roundtrip(self, tmp_path, simulator, build_session, steps=3):
        """reference vs snapshot-at-``steps``-then-continue, bitwise."""
        reference = build_session().run()
        session = build_session()
        for _ in range(steps):
            session.advance()
        path = session.save_snapshot(tmp_path / "dev.snapshot")
        session.run()  # poison the original past the snapshot point
        restored = PolicySession.load_snapshot(path, session)
        resumed = restored.run()
        for key, column in _log_columns(reference).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))
        assert reference.total_energy_j == resumed.total_energy_j
        return restored

    @pytest.mark.parametrize("policy_name", sorted(NAMED_POLICY_BUILDERS))
    def test_named_policy_roundtrip_bitwise(self, tmp_path, noisy_simulator,
                                            space, snippet_trace,
                                            policy_name):
        build = NAMED_POLICY_BUILDERS[policy_name]

        def build_session():
            return PolicySession(
                noisy_simulator, space, build(space), snippet_trace,
                rng=np.random.default_rng(13),
            )

        self._check_roundtrip(tmp_path, noisy_simulator, build_session)

    @pytest.mark.parametrize("policy_name", ["ondemand", "static"])
    def test_roundtrip_under_scenario_caps(self, tmp_path, noisy_simulator,
                                           space, snippet_trace,
                                           policy_name):
        """The template's trace caps throttle the restored session."""
        # Seed 1 produces a throttle window on this short trace.
        trace = get_scenario("thermal_throttle").apply(snippet_trace, 1)
        assert trace.throttle_events
        build = NAMED_POLICY_BUILDERS[policy_name]

        def build_session():
            return PolicySession(
                noisy_simulator, space, build(space), trace.snippets,
                rng=np.random.default_rng(13), caps=trace.caps(),
            )

        restored = self._check_roundtrip(tmp_path, noisy_simulator,
                                         build_session)
        # The caps were live on the restored session: the throttle window
        # shows in the throttled column (all 0.0 without one).
        assert restored.caps == trace.caps()
        assert restored.log.column("throttled").sum() > 0

    def test_roundtrip_over_restricted_space(self, tmp_path, noisy_simulator,
                                             space, snippet_trace):
        restricted = space.restrict(max_opp_index=2)
        assert len(restricted) < len(space)

        def build_session():
            return PolicySession(
                noisy_simulator, restricted,
                GovernorPolicy(OndemandGovernor(restricted)), snippet_trace,
                rng=np.random.default_rng(13),
            )

        restored = self._check_roundtrip(tmp_path, noisy_simulator,
                                         build_session)
        assert len(restored.space) == len(restricted)

    def test_offline_il_roundtrip_bitwise(self, tmp_path, trained_framework,
                                          snippet_trace):
        import copy

        framework = trained_framework
        simulator = framework.simulator

        def build_session():
            policy = copy.deepcopy(framework.offline_policy)
            return PolicySession(
                simulator, policy.space, policy, snippet_trace,
                rng=np.random.default_rng(13),
            )

        self._check_roundtrip(tmp_path, simulator, build_session)

    def test_online_il_roundtrip_bitwise(self, tmp_path, trained_framework,
                                         snippet_trace):
        framework = trained_framework
        simulator = framework.simulator

        def build_session():
            policy = framework.build_online_il_policy(
                buffer_capacity=10, update_epochs=5, isolated=True,
            )
            return PolicySession(
                simulator, policy.space, policy, snippet_trace[:8],
                rng=np.random.default_rng(13),
            )

        self._check_roundtrip(tmp_path, simulator, build_session, steps=3)


class TestCappedSnapshots:
    """A dispatched cap is session state: a session capped inside one of
    its scenario's throttle windows snapshots there, restores onto a
    template and finishes bitwise equal to the uninterrupted run, alone
    and as a fleet row."""

    #: The dispatched cap from each step on: 2 binds between the throttle
    #: windows ([5, 17) and [30, 42), capped at 1), 0 binds inside them
    #: too, and the last steps run under the windows alone.
    SCRIPT = {2: 2, 24: 0, 36: None}

    @pytest.fixture()
    def trace(self, trace_generator):
        base = [snippet for workload in training_workloads()[:2]
                for snippet in trace_generator.generate(workload)]
        trace = get_scenario("thermal_throttle").apply(base, 1)
        assert [(event.start, event.stop, event.max_opp_index)
                for event in trace.throttle_events] == [(5, 17, 1),
                                                        (30, 42, 1)]
        return trace

    @staticmethod
    def _session(simulator, space, trace):
        return PolicySession(
            simulator, space, GovernorPolicy(PerformanceGovernor(space)),
            trace.snippets, rng=np.random.default_rng(13), caps=trace.caps(),
        )

    def _dispatch(self, session):
        """Apply the script's cap due at the session's cursor."""
        if session.step_index in self.SCRIPT:
            session.dispatched_cap = self.SCRIPT[session.step_index]

    def _advance(self, session, until=None):
        until = len(session) if until is None else until
        while session.step_index < until:
            self._dispatch(session)
            session.advance()

    def test_the_tighter_cap_binds(self, noisy_simulator, space, platform,
                                   trace):
        session = self._session(noisy_simulator, space, trace)
        self._advance(session)
        top = len(platform.cluster("big").opps) - 1
        dispatched = None
        expected = []
        for step, trace_cap in enumerate(trace.caps()):
            dispatched = self.SCRIPT.get(step, dispatched)
            caps = [cap for cap in (trace_cap, dispatched) if cap is not None]
            expected.append(min(caps + [top]))
        # Step 0 runs the governor's starting (default) configuration.
        np.testing.assert_array_equal(session.log.column("big_opp")[1:],
                                      expected[1:])
        np.testing.assert_array_equal(
            session.log.column("throttled"),
            [float(cap < top) for cap in expected])

    @pytest.mark.parametrize("at", [10, 33])
    def test_lone_session_restores_its_cap(self, noisy_simulator, space,
                                           trace, at):
        reference = self._session(noisy_simulator, space, trace)
        self._advance(reference)
        session = self._session(noisy_simulator, space, trace)
        self._advance(session, until=at)
        assert trace.caps()[at] is not None
        assert session.dispatched_cap is not None
        restored = PolicySession.restore(
            session.snapshot_bytes(),
            self._session(noisy_simulator, space, trace))
        assert restored.dispatched_cap == session.dispatched_cap
        self._advance(restored)
        assert restored.state_digest() == reference.state_digest()

    @pytest.mark.parametrize("at", [10, 33])
    def test_fleet_row_restores_its_cap(self, noisy_simulator, space, trace,
                                        at):
        """Row 0 is capped; after its snapshot the fleet runs on three
        rounds, then the row restores onto the session it replaces in a
        rebuilt engine, as a supervised restart does."""
        def fleet():
            return build_fleet([
                DeviceSpec(name=f"dev{i}",
                           policy=GovernorPolicy(PerformanceGovernor(space)),
                           scenario=trace, rng=np.random.default_rng(13 + i))
                for i in range(2)
            ], noisy_simulator, space)

        def drive(engine, until=None):
            capped = engine.sessions[0]
            while not engine.done and (until is None
                                       or capped.step_index < until):
                self._dispatch(capped)
                engine.step()

        reference = fleet()
        drive(reference)
        engine = fleet()
        drive(engine, until=at)
        assert engine.sessions[0].dispatched_cap is not None
        data = engine.sessions[0].snapshot_bytes()
        for _ in range(3):
            engine.step()
        sessions = list(engine.sessions)
        sessions[0] = PolicySession.restore(data, sessions[0])
        rebuilt = FleetEngine(sessions)
        drive(rebuilt)
        assert rebuilt.batched_decisions > 0
        assert ([session.state_digest() for session in rebuilt.sessions]
                == [session.state_digest()
                    for session in reference.sessions])


class TestStateDigest:
    """``state_digest()`` — the recovery invariant's equality vehicle."""

    def _run(self, noisy_simulator, space, snippet_trace, seed=11, steps=None):
        session = PolicySession(
            noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
            snippet_trace, rng=np.random.default_rng(seed),
        )
        if steps is None:
            session.run()
        else:
            for _ in range(steps):
                session.advance()
        return session

    def test_identical_runs_share_digest(self, noisy_simulator, space,
                                         snippet_trace):
        one = self._run(noisy_simulator, space, snippet_trace)
        two = self._run(noisy_simulator, space, snippet_trace)
        assert one.state_digest() == two.state_digest()

    def test_diverged_runs_differ(self, noisy_simulator, space,
                                  snippet_trace):
        one = self._run(noisy_simulator, space, snippet_trace, seed=11)
        two = self._run(noisy_simulator, space, snippet_trace, seed=12)
        assert one.state_digest() != two.state_digest()

    def test_progress_changes_digest(self, noisy_simulator, space,
                                     snippet_trace):
        partial = self._run(noisy_simulator, space, snippet_trace, steps=2)
        before = partial.state_digest()
        partial.advance()
        assert partial.state_digest() != before

    def test_digest_hashes_exactly_the_filled_table(self, monkeypatch,
                                                    noisy_simulator, space,
                                                    snippet_trace):
        """Name, cursor, one float64 per column per step, three totals."""
        hashed = []

        class CountingSha256:
            def __init__(self):
                self._digest = hashlib.sha256()

            def update(self, data):
                hashed.append(memoryview(data).nbytes)
                self._digest.update(data)

            def hexdigest(self):
                return self._digest.hexdigest()

        sessions = [self._run(noisy_simulator, space, snippet_trace, steps=3),
                    self._run(noisy_simulator, space, snippet_trace)]
        expected = [session.state_digest() for session in sessions]
        monkeypatch.setattr(session_module, "hashlib",
                            SimpleNamespace(sha256=CountingSha256))
        for session, digest in zip(sessions, expected):
            hashed.clear()
            assert session.state_digest() == digest
            assert sum(hashed) == (len(session.name.encode()) + 8
                                   + 8 * len(COLUMNS) * session.step_index
                                   + 24)

    def test_snapshot_restore_continue_preserves_digest(
            self, noisy_simulator, space, snippet_trace):
        full = self._run(noisy_simulator, space, snippet_trace)
        partial = self._run(noisy_simulator, space, snippet_trace, steps=3)
        restored = PolicySession.restore(partial.snapshot_bytes(), partial)
        restored.run()
        assert restored.state_digest() == full.state_digest()
