"""Tests for the resumable :class:`~repro.core.session.PolicySession`.

The session decomposes the policy run loop into explicit
decide -> clamp/throttle -> execute -> observe phases; these tests pin the
state-machine semantics (phase ordering, resumability, mid-run snapshots)
and the bitwise equivalence of session-driven runs with the historical
closed-loop behaviour (which the golden traces also gate end to end).
"""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.control.policy import GovernorPolicy, StaticPolicy
from repro.core.framework import run_policy_on_snippets
from repro.core.session import (
    PolicySession,
    SnapshotError,
    pack_states,
    unpack_states,
)
from repro.scenarios import get_scenario, make_space_schedule
from repro.soc.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
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

    def test_adopt_step_index_mismatch_raises(self, simulator, space,
                                              snippet_trace):
        session = PolicySession(simulator, space, StaticPolicy(space),
                                snippet_trace)
        step = session.decide()
        result = session.execute(step)
        session.observe(step, result)
        stale = step  # index 0, session cursor is now 1
        with pytest.raises(ValueError, match="does not match"):
            session.adopt_step(stale)


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
    def test_space_schedule_throttles_and_flags(self, simulator, space,
                                                snippet_trace):
        restricted = space.restrict(max_opp_index=1)

        def schedule(step: int):
            return restricted if step % 2 == 0 else space

        policy = StaticPolicy(space, space[len(space) - 1])  # max everything
        session = PolicySession(simulator, space, policy, snippet_trace,
                                space_schedule=schedule)
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
        restored = PolicySession.restore(data, noisy_simulator)
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
        restored = PolicySession.restore(data, noisy_simulator)
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
        restored = PolicySession.load_snapshot(path, noisy_simulator)
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

    def test_missing_snapshot_file_raises(self, tmp_path, noisy_simulator):
        with pytest.raises(SnapshotError, match="read"):
            PolicySession.load_snapshot(tmp_path / "absent.snapshot",
                                        noisy_simulator)

    def test_restore_preserves_policy_space_identity(
            self, noisy_simulator, space, snippet_trace):
        """The engine's group keys need ``policy.space is session.space``."""
        session = self._fresh(noisy_simulator, space, snippet_trace)
        session.advance()
        restored = PolicySession.restore(session.snapshot_bytes(),
                                         noisy_simulator)
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
        restored = PolicySession.restore(second, noisy_simulator)
        resumed = restored.run()
        expected = self._fresh(noisy_simulator, space, snippet_trace,
                               seed=2).run()
        for key, column in _log_columns(expected).items():
            np.testing.assert_array_equal(column, resumed.log.column(key))
        with pytest.raises(SnapshotError, match="2 sessions"):
            PolicySession.unpack_snapshot(data)


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
    under a scenario space schedule (which snapshots deliberately do NOT
    carry; it must be rebuilt over the restored space) and over a
    restricted configuration space.
    """

    def _check_roundtrip(self, tmp_path, simulator, build_session,
                         rebuild_schedule=None, steps=3):
        """reference vs snapshot-at-``steps``-then-continue, bitwise."""
        reference = build_session().run()
        session = build_session()
        for _ in range(steps):
            session.advance()
        path = session.save_snapshot(tmp_path / "dev.snapshot")
        session.run()  # poison the original past the snapshot point
        restored = PolicySession.load_snapshot(path, simulator)
        if rebuild_schedule is not None:
            restored.space_schedule = rebuild_schedule(restored.space)
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
    def test_roundtrip_under_scenario_schedule(self, tmp_path,
                                               noisy_simulator, space,
                                               snippet_trace, policy_name):
        """The schedule is rebuilt over the restored space, as documented."""
        # Seed 1 produces a throttle window on this short trace, so the
        # schedule is real (make_space_schedule returns None otherwise).
        trace = get_scenario("thermal_throttle").apply(snippet_trace, 1)
        assert trace.throttle_events
        build = NAMED_POLICY_BUILDERS[policy_name]

        def build_session():
            return PolicySession(
                noisy_simulator, space, build(space), trace.snippets,
                rng=np.random.default_rng(13),
                space_schedule=make_space_schedule(space, trace),
            )

        restored = self._check_roundtrip(
            tmp_path, noisy_simulator, build_session,
            rebuild_schedule=lambda restored_space: make_space_schedule(
                restored_space, trace),
        )
        # The schedule was live on the restored session: the throttled
        # column is recorded (it is absent/NaN when no schedule installed).
        assert restored.space_schedule is not None
        assert not np.all(np.isnan(restored.log.column("throttled")))

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

    def test_snapshot_restore_continue_preserves_digest(
            self, noisy_simulator, space, snippet_trace):
        full = self._run(noisy_simulator, space, snippet_trace)
        partial = self._run(noisy_simulator, space, snippet_trace, steps=3)
        restored = PolicySession.restore(partial.snapshot_bytes(),
                                         noisy_simulator)
        restored.run()
        assert restored.state_digest() == full.state_digest()
