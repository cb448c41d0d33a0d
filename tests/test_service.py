"""Tests for the crash-safe fleet control-plane service.

The headline property — the **recovery invariant** — is pinned here:
``kill -9`` at any fleet-round boundary, then recover from the journal,
and the completed run's per-device state digests are bitwise identical
to an uninterrupted run.  The suite proves it in-process across kill
points, dispatch histories and damaged snapshots, and end-to-end over
HTTP with a real SIGKILL'd server subprocess.
"""

from __future__ import annotations

import asyncio
import dataclasses
import errno
import hashlib
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.session import SNAPSHOT_FORMAT_VERSION, load_states
from repro.fleet.device import build_fleet
from repro.scenarios import available_scenarios
from repro.service.journal import (
    Journal,
    JournalError,
    read_journal,
    walk_frames,
)
from repro.service.protocol import (
    DispatchCommand,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
    encode_message,
)
from repro.service import run as run_module
from repro.service.run import (
    ROTATIONS_FILE,
    ROTATIONS_MAGIC,
    RunConfig,
    ServiceRun,
    build_config_devices,
)
from repro.service.server import MAX_BODY_BYTES, ServiceServer
from repro.soc.governors import PowersaveGovernor

CONFIG = RunConfig(policy="ondemand", scale="tiny", n_devices=2, seed=7,
                   snapshot_every=3)


def _run_reference(config=CONFIG, script=None):
    """Uninterrupted run (optionally with scripted dispatches)."""
    run = ServiceRun.start(config=config)
    _drive(run, script=dict(script or {}))
    return run


def _drive(run, script=None, stop_at=None):
    """Step to completion, issuing ``script[round]`` dispatches on the way."""
    script = script if script is not None else {}
    while not run.done:
        if run.rounds in script:
            receipt = run.dispatch(script.pop(run.rounds))
            assert receipt.status in ("accepted", "duplicate")
        run.step_round()
        if stop_at is not None and run.rounds >= stop_at:
            return


class TestZeroJournalIdentity:
    def test_matches_bare_fleet_engine(self):
        """The journal-free path adds nothing to the hot loop's results."""
        service = ServiceRun.start(config=CONFIG)
        service.run_to_completion()

        devices, simulator, space = build_config_devices(CONFIG)
        engine = build_fleet(devices, simulator, space)
        engine.run()
        bare = {device.name: session.state_digest()
                for device, session in zip(devices, engine.sessions)}
        assert service.digests() == bare

    def test_journaled_run_matches_unjournaled(self, tmp_path):
        """Journaling is pure observation: identical results either way."""
        plain = ServiceRun.start(config=CONFIG)
        plain.run_to_completion()
        journaled = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        journaled.run_to_completion()
        assert journaled.digests() == plain.digests()


class TestRecoveryInvariant:
    @pytest.mark.parametrize("kill_at", [1, 3, 5, 40])
    def test_kill_and_recover_is_bitwise(self, tmp_path, kill_at):
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=kill_at)
        del run  # kill -9: no shutdown, no close, journal left as-is
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    @pytest.mark.parametrize("config, capped, swapped, cap", [
        (CONFIG, "device-00", "device-01", 1),
        # device-01 runs thermal_throttle, capped at 1 over steps 1-12:
        # the dispatched cap of 0 binds inside that window until round 6.
        (dataclasses.replace(CONFIG, scenarios=("thermal_throttle",)),
         "device-01", "device-00", 0),
    ], ids=["unthrottled", "thermal_throttle"])
    @pytest.mark.parametrize("kill_at", [2, 4, 7])
    def test_recovery_replays_dispatches_bitwise(self, tmp_path, kill_at,
                                                 config, capped, swapped,
                                                 cap):
        """Dispatches journal-before-apply: caps and policy swaps survive
        the crash, inside the snapshots before the restore point and
        re-applied at their recorded boundaries after it."""
        script = {
            1: DispatchCommand(command="restrict-space", device=capped,
                               value=cap, idempotency_key="cap-on"),
            3: DispatchCommand(command="set-policy", device=swapped,
                               value="powersave", idempotency_key="swap"),
            6: DispatchCommand(command="restrict-space", device=capped,
                               value=None, idempotency_key="cap-off"),
        }
        reference = _run_reference(config=config, script=script)
        log = reference.supervisor.session_named(capped).log
        assert log.column("big_opp")[1:6].max() <= cap
        assert log.column("throttled")[1:6].all()
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, script=dict(script), stop_at=kill_at)
        del run
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered, script=dict(script))  # redelivery: keys dedupe
        assert recovered.digests() == reference.digests()

    def test_recovery_survives_corrupt_newest_snapshot(self, tmp_path):
        """A bit-rotted newest frame fails its checksum and recovery falls
        back to the previous manifest — still bitwise identical."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2 * CONFIG.snapshot_every)
        del run
        newest = _manifests(tmp_path)[-1]
        assert newest.round == 2 * CONFIG.snapshot_every
        _flip_byte(tmp_path, newest)
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == CONFIG.snapshot_every  # fell back
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    @pytest.mark.parametrize("older", [0, CONFIG.snapshot_every])
    def test_corrupt_older_frame_rebuilds_from_round_0(self, tmp_path,
                                                       older):
        """Every later frame needs an older frame's log rows: with an
        older frame bit-rotted no manifest after it verifies, though the
        newest frame is intact, and recovery replays from round 0 —
        still bitwise identical."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2 * CONFIG.snapshot_every + 1)
        del run
        victim, = [m for m in _manifests(tmp_path) if m.round == older]
        _flip_byte(tmp_path, victim)
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 0
        # The round-0 frame stays when intact, and the next rotation
        # follows it; otherwise the rotation file starts anew.
        if older:
            assert len(_frames(tmp_path)) == 1
        else:
            assert not (tmp_path / ROTATIONS_FILE).exists()
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()
        assert _frame_rounds(tmp_path)[-1] == recovered.rounds

    def test_recovery_with_no_usable_snapshots_rebuilds_fresh(self, tmp_path):
        """The rotation file destroyed: recovery replays from round 0."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        del run
        (tmp_path / ROTATIONS_FILE).unlink()
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 0
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    def test_online_il_scenario_fleet_kill_and_recover_is_bitwise(
            self, tmp_path):
        """Snapshots carry learned policy state; scenario devices restore
        with their traces and schedules from the rebuilt fleet."""
        config = RunConfig(policy="online-il", n_devices=2, seed=7,
                           snapshot_every=3,
                           scenarios=("thermal_throttle",))
        reference = _run_reference(config=config)
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=7)
        del run
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 6
        _drive(recovered)
        assert recovered.digests() == reference.digests()


    def test_set_policy_after_short_devices_finished_recovers(
            self, tmp_path):
        """A ragged fleet (84- and 108-step traces) gets a ``set-policy``
        after its short devices finished, so the rebuilt engine holds
        finished rows; killed after the next rotation, the run recovers
        from that rotation to the uninterrupted run's digests and health."""
        config = RunConfig(policy="ondemand", n_devices=4, seed=7,
                           snapshot_every=5, scenarios=("bursty_idle",))
        script = {90: DispatchCommand(command="set-policy",
                                      device="device-01", value="powersave",
                                      idempotency_key="late-swap")}
        reference = _run_reference(config=config, script=script)
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, script=dict(script), stop_at=96)
        assert [session.done for session in run.supervisor.sessions] \
            == [True, False, True, False]
        del run
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 95
        _drive(recovered, script=dict(script))
        assert recovered.digests() == reference.digests()
        assert (recovered.supervisor.health_map()
                == reference.supervisor.health_map())


class TestFaultedRunRecovery:
    """kill -9 before and after an injected fault on a journaled run."""

    @pytest.mark.parametrize("stop_at", [6, 21])
    @pytest.mark.parametrize("fault", [
        "CounterDropout", "TelemetryCorruption", "DeviceCrash",
        "StragglerStall", "SnapshotRestart",
    ])
    def test_kill_and_recover_is_bitwise(self, tmp_path, fault, stop_at):
        config = RunConfig(
            policy="ondemand", scale="tiny", n_devices=4, seed=7,
            snapshot_every=5,
            faults=({"type": fault,
                     "params": {"device": "device-01", "step": 7}},),
        )
        reference = _run_reference(config=config)
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=stop_at)
        del run
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered)
        assert recovered.digests() == reference.digests()
        if stop_at == 6:  # the fault fires after the restore point
            assert (recovered.supervisor.health_map()
                    == reference.supervisor.health_map())
            assert (recovered.supervisor.reports()
                    == reference.supervisor.reports())
            assert len(recovered.alerts) == len(reference.alerts)


class TestCapsAcrossRestarts:
    """A dispatched cap is session state, so a supervised restart keeps it
    and a later cap applies to the restarted session."""

    SCRIPT = {
        0: DispatchCommand(command="restrict-space", device="device-00",
                           value=1, idempotency_key="cap-1"),
        10: DispatchCommand(command="restrict-space", device="device-00",
                            value=0, idempotency_key="cap-0"),
    }

    @staticmethod
    def _config(fault):
        return RunConfig(
            policy="performance", scale="tiny", n_devices=2, seed=7,
            snapshot_every=5,
            faults=({"type": fault,
                     "params": {"device": "device-00", "step": 6}},),
        )

    @pytest.mark.parametrize("fault", ["DeviceCrash", "SnapshotRestart"])
    def test_restart_keeps_the_cap_and_takes_a_later_one(self, fault):
        run = _run_reference(config=self._config(fault), script=self.SCRIPT)
        report = run.supervisor.reports()[0]
        assert report.restarts == 1 and report.replayed_steps >= 1
        big_opp = run.supervisor.session_named("device-00").log.column(
            "big_opp").tolist()
        first_zero = big_opp.index(0.0)
        assert first_zero > 6  # the cap of 1 held through the restart
        assert big_opp == [1.0] * first_zero + [0.0] * (
            len(big_opp) - first_zero)

    @pytest.mark.parametrize("stop_at", [8, 12])
    @pytest.mark.parametrize("fault", ["DeviceCrash", "SnapshotRestart"])
    def test_kill_past_the_fault_recovers_bitwise(self, tmp_path, fault,
                                                  stop_at):
        config = self._config(fault)
        reference = _run_reference(config=config, script=self.SCRIPT)
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, script=dict(self.SCRIPT), stop_at=stop_at)
        del run
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered, script=dict(self.SCRIPT))
        assert recovered.digests() == reference.digests()


class TestRecoveryChecksTheFleet:
    """Recovery refuses a rebuilt fleet that is not the one the journal
    registered, as after a code change between crash and restart."""

    def _journal_then_rebuild_as(self, tmp_path, monkeypatch, config):
        """Journal a ``CONFIG`` run, then make recovery rebuild ``config``."""
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        del run
        monkeypatch.setattr(run_module, "build_config_devices",
                            lambda _: build_config_devices(config))

    def test_a_fleet_of_another_size_is_refused(self, tmp_path, monkeypatch):
        self._journal_then_rebuild_as(
            tmp_path, monkeypatch, dataclasses.replace(CONFIG, n_devices=3))
        with pytest.raises(JournalError, match="registers 2 devices"):
            ServiceRun.recover(tmp_path)

    def test_traces_of_another_length_are_refused(self, tmp_path,
                                                  monkeypatch):
        config = dataclasses.replace(CONFIG, scale="quick")
        devices, _, _ = build_config_devices(config)
        assert [device.name for device in devices] == ["device-00",
                                                       "device-01"]
        self._journal_then_rebuild_as(tmp_path, monkeypatch, config)
        with pytest.raises(JournalError, match="trace_steps 144"):
            ServiceRun.recover(tmp_path)


class _Killed(Exception):
    """Stands in for ``kill -9`` at one instant of an in-process run."""


class TestDurabilityRules:
    """Only genesis, manifests and dispatches are fsync'd, and a rotation
    is one frame, fsync'd before its manifest is journaled."""

    def test_unjournaled_frame_is_ignored_then_truncated(self, tmp_path,
                                                        monkeypatch):
        """Killed after appending round 6's frame, before its manifest:
        recovery restores round 3, and the orphan frame is truncated
        before the recovered run appends, so a forced rotation lands
        right after round 3's frame."""
        reference = _run_reference()
        _kill_before_manifest(tmp_path, monkeypatch, 6)
        rotations = tmp_path / ROTATIONS_FILE
        assert len(_frames(tmp_path)) == 3  # rounds 0, 3 and the orphan 6
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 3
        kept = _frames(tmp_path)
        assert len(kept) == 2 and rotations.stat().st_size == kept[-1].end
        recovered.step_round()
        recovered._rotate_snapshots()
        assert [frame.offset for frame in _frames(tmp_path)] == [
            kept[0].offset, kept[1].offset, kept[1].end]
        assert [m.round for m in _manifests(tmp_path)] == [0, 3, 4]
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()

    def test_torn_final_frame_is_truncated(self, tmp_path, monkeypatch):
        """Killed half-way through writing round 6's frame: its torn
        bytes end the frame walk, recovery restores round 3 and truncates
        them before the recovered run appends."""
        reference = _run_reference()
        _kill_before_manifest(tmp_path, monkeypatch, 6)
        rotations = tmp_path / ROTATIONS_FILE
        kept, torn = _frames(tmp_path)[:2], _frames(tmp_path)[2]
        rotations.write_bytes(
            rotations.read_bytes()[:(torn.offset + torn.end) // 2])
        assert _frames(tmp_path) == kept
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 3
        assert rotations.stat().st_size == kept[-1].end
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()
        assert _frame_rounds(tmp_path)[:3] == [0, 3, 6]

    def test_manifest_naming_no_frame_is_skipped(self, tmp_path):
        """A manifest whose offset or sha256 names no intact frame (a
        frame lost with a replaced file) is skipped: recovery falls back
        to the newest one that verifies."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=CONFIG.snapshot_every + 1)
        del run
        newest = _manifests(tmp_path)[-1]
        with Journal(tmp_path / "journal.bin") as journal:
            journal.append(SnapshotManifest(round=4, offset=newest.offset,
                                            sha256="0" * 64))
            journal.append(SnapshotManifest(round=4, offset=newest.offset + 1,
                                            sha256=newest.sha256))
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == CONFIG.snapshot_every
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()

    def test_journal_of_older_code_is_refused(self, tmp_path):
        """Older code journaled version-1 manifests naming snapshot
        files; recovery refuses that journal loudly."""
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=CONFIG.snapshot_every + 1)
        run.close()
        older = dict(encode_message(_manifests(tmp_path)[-1]))
        del older["offset"], older["sha256"]
        older.update(version=1, files=[["fleet", "snapshots/x.snapshot",
                                        "0" * 64]])
        with open(tmp_path / "journal.bin", "ab") as handle:
            payload = json.dumps(older, sort_keys=True).encode("utf-8")
            handle.write(len(payload).to_bytes(4, "big")
                         + hashlib.sha256(payload).digest() + payload)
        with pytest.raises(JournalError, match="schema version 1 is not 2"):
            ServiceRun.recover(tmp_path)

    def test_torn_unsynced_step_boundary_recovers(self, tmp_path):
        """A crash mid-way through an unsynced trailing StepBoundary
        frame loses nothing recovery needs; the journal stays appendable."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=CONFIG.snapshot_every + 1)
        del run
        journal = tmp_path / "journal.bin"
        messages, _ = read_journal(journal)
        assert messages[-1] == StepBoundary(round=CONFIG.snapshot_every + 1,
                                            advanced=CONFIG.n_devices)
        journal.write_bytes(journal.read_bytes()[:-5])
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == CONFIG.snapshot_every
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()
        messages, truncated = read_journal(journal)
        assert truncated is False
        assert [m.round for m in messages if isinstance(m, StepBoundary)] \
            == list(range(1, recovered.rounds + 1))

    def test_fsyncs_follow_rotations_and_dispatches_not_rounds(
            self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        # Journal header and its directory entry, genesis, round-0
        # rotation (the new rotation file, its directory entry and the
        # manifest); the device registrations are not synced.
        assert len(synced) == 6
        while not run.done:
            before = len(synced)
            if run.rounds == 4:
                run.dispatch(DispatchCommand(command="restrict-space",
                                             device="device-00", value=1))
                assert len(synced) == before + 1
                before += 1
            run.step_round()
            # A rotation: its frame, then its manifest.
            rotated = run.rounds % CONFIG.snapshot_every == 0 or run.done
            assert len(synced) == before + (2 if rotated else 0)
        run.close()

    def test_bytes_per_rotation_stay_flat(self, tmp_path):
        """A frame carries the log rows added since the previous one, so
        on perfbench's 64-device fleet two cadence rotations 70 rounds
        apart, both while every device runs, write the same bytes to
        within 1%."""
        config = RunConfig(policy="ondemand", scale="tiny", n_devices=64,
                           seed=0, scenarios=tuple(available_scenarios()))
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=80)
        assert not any(session.done for session in run.supervisor.sessions)
        run.close()
        frames = dict(zip(_frame_rounds(tmp_path), _frames(tmp_path)))
        sizes = {r: len(frames[r].payload) for r in (10, 80)}
        assert abs(sizes[80] - sizes[10]) < 0.01 * sizes[10]
        spans, _rows, _at = run_module._frame_rows(frames[80].payload)
        every = config.snapshot_every
        assert spans.tolist() == [[80 - every, every]] * 64


def _kill_before_manifest(journal_dir, monkeypatch, rotation_round):
    """Run ``CONFIG`` journaled, killed after appending the frame of
    ``rotation_round`` and before journaling its manifest."""
    run = ServiceRun.start(config=CONFIG, journal_dir=journal_dir)
    real_append = Journal.append

    def killed_before_manifest(journal, message):
        if (isinstance(message, SnapshotManifest)
                and message.round == rotation_round):
            raise _Killed
        real_append(journal, message)

    monkeypatch.setattr(Journal, "append", killed_before_manifest)
    with pytest.raises(_Killed):
        _drive(run)
    monkeypatch.undo()


def _manifests(journal_dir):
    messages, _ = read_journal(journal_dir / "journal.bin")
    return [m for m in messages if isinstance(m, SnapshotManifest)]


def _manifest_rounds(journal_dir):
    return [m.round for m in _manifests(journal_dir)]


def _frames(journal_dir):
    """The intact frames of a run's rotation file."""
    data = (journal_dir / ROTATIONS_FILE).read_bytes()
    assert data[:len(ROTATIONS_MAGIC)] == ROTATIONS_MAGIC
    return walk_frames(data, len(ROTATIONS_MAGIC))[0]


def _frame_rounds(journal_dir):
    """The round of each frame, from the newest manifest naming it."""
    rounds = {m.offset: m.round for m in _manifests(journal_dir)}
    return [rounds[frame.offset] for frame in _frames(journal_dir)]


def _flip_byte(journal_dir, manifest):
    """Bit-rot the middle of the frame ``manifest`` names."""
    frame, = [f for f in _frames(journal_dir) if f.offset == manifest.offset]
    path = journal_dir / ROTATIONS_FILE
    data = bytearray(path.read_bytes())
    data[(frame.offset + frame.end) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestRotationPayload:
    def test_rotation_holds_no_trace_or_step_results(self, tmp_path):
        """A frame pickles session state only — no snippet of the trace
        and no per-step result comes back when it is loaded — and carries
        each log as the rows added since the previous frame."""
        config = dataclasses.replace(CONFIG, scenarios=("thermal_throttle",))
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=config.snapshot_every + 1)
        _start, frame = _frames(tmp_path)
        spans, rows, states_at = run_module._frame_rows(frame.payload)
        every = config.snapshot_every
        assert spans.tolist() == [[0, every], [0, every]]
        for session, first in zip(run.supervisor.sessions, (0, every)):
            assert (rows[first:first + every].tobytes()
                    == session.log.table()[:every].tobytes())
        states = load_states(frame.payload[states_at:])  # version verifies
        assert {state["version"] for state in states} == {
            SNAPSHOT_FORMAT_VERSION}
        loaded = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                loaded.add(name)
                return super().find_class(module, name)

        states = Recorder(io.BytesIO(frame.payload[states_at:])).load()
        assert [state["name"] for state in states] == ["device-00",
                                                       "device-01"]
        assert all("log" not in state for state in states)
        assert "ConfigurationSpace" in loaded
        assert not loaded & {"Snippet", "SnippetResult", "EnergyAccount",
                             "RunLog"}
        run.close()

    @pytest.mark.parametrize("fault", ["DeviceCrash", "SnapshotRestart"])
    def test_a_restarted_device_is_carried_whole(self, tmp_path, fault):
        """A restart rolls a device's log back past rows an earlier frame
        holds, so the next frame carries its whole log; the others carry
        their new rows only."""
        config = RunConfig(
            policy="ondemand", scale="tiny", n_devices=2, seed=7,
            snapshot_every=3,
            faults=({"type": fault,
                     "params": {"device": "device-01", "step": 7}},),
        )
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=9)
        assert run.supervisor.reports()[1].restarts == 1
        run.close()
        spans = [run_module._frame_rows(frame.payload)[0].tolist()
                 for frame in _frames(tmp_path)]
        logged = [len(s.log) for s in run.supervisor.sessions]
        assert spans[-1] == [[6, 3], [0, logged[1]]]

class TestRotationCadence:
    """The cadence a run starts with survives recovery, and a round is
    rotated at most once."""

    def test_recovery_keeps_the_started_cadence(self, tmp_path):
        """A run started at a cadence of 3 (not the default 5): recovery
        keeps 3, and the next rotation lands on a multiple of 3."""
        config = dataclasses.replace(CONFIG, snapshot_every=3)
        run = ServiceRun.start(config=config, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        del run
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.snapshot_every == 3
        assert recovered.rounds == 3
        _drive(recovered, stop_at=6)
        recovered.close()
        assert _manifest_rounds(tmp_path) == [0, 3, 6]

    def test_finished_run_shutdown_rotates_its_last_round_once(self,
                                                              tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run)
        run.shutdown("done")
        rounds = _manifest_rounds(tmp_path)
        assert rounds[-1] == run.rounds
        assert rounds.count(run.rounds) == 1
        messages, _ = read_journal(tmp_path / "journal.bin")
        assert isinstance(messages[-1], ShutdownNotice)

    def test_shutdown_mid_cadence_rotates_and_recovers_there(self, tmp_path):
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        run.shutdown("drain")
        assert _manifest_rounds(tmp_path) == [0, 3, 4]
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 4
        # The restored manifest already holds round 4: nothing to rotate.
        recovered.shutdown("drain again")
        assert _manifest_rounds(tmp_path) == [0, 3, 4]
        final = ServiceRun.recover(tmp_path)
        _drive(final)
        final.close()
        assert final.digests() == reference.digests()


class TestDispatchSemantics:
    def test_journal_before_apply(self, tmp_path):
        """An accepted dispatch is durable before it mutates anything."""
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.step_round()
        receipt = run.dispatch(DispatchCommand(
            command="pause", idempotency_key="p1",
        ))
        assert receipt.status == "accepted"
        # Not yet applied (applies at the next boundary)...
        assert run.paused is False
        # ...but already journaled.
        journaled = [m for m in read_journal(tmp_path / "journal.bin")[0]
                     if isinstance(m, DispatchCommand)]
        assert journaled and journaled[-1].idempotency_key == "p1"
        run.step_round()
        assert run.paused is True
        run.close()

    def test_idempotent_redelivery(self):
        run = ServiceRun.start(config=CONFIG)
        command = DispatchCommand(command="restrict-space",
                                  device="device-00", value=1,
                                  idempotency_key="once")
        first = run.dispatch(command)
        second = run.dispatch(command)
        assert first.status == "accepted"
        assert second.status == "duplicate"
        assert second.apply_round == first.apply_round

    def test_idempotency_survives_restart(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.step_round()
        command = DispatchCommand(command="restrict-space",
                                  device="device-00", value=1,
                                  idempotency_key="durable-key")
        assert run.dispatch(command).status == "accepted"
        del run
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.dispatch(command).status == "duplicate"

    def test_rejected_dispatches(self):
        run = ServiceRun.start(config=CONFIG)
        unknown = run.dispatch(DispatchCommand(
            command="restrict-space", device="no-such-device", value=1,
        ))
        assert unknown.status == "rejected"
        bad_policy = run.dispatch(DispatchCommand(
            command="set-policy", device="device-00", value="online-il",
        ))
        assert bad_policy.status == "rejected"
        for value in (True, False):  # JSON booleans are not caps
            boolean = run.dispatch(DispatchCommand(
                command="restrict-space", device="device-00", value=value,
            ))
            assert boolean.status == "rejected"
            assert boolean.detail == ("restrict-space value must be an int "
                                      "cap or null")
        assert run.errors  # surfaced as ErrorReports

    def test_pause_resume_and_recovery_while_paused(self, tmp_path):
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        run.dispatch(DispatchCommand(command="pause", idempotency_key="p"))
        run.step_round()  # applies the pause; no fleet progress
        assert run.paused
        run.run_to_completion()  # must terminate immediately, not spin
        assert not run.done
        del run
        recovered = ServiceRun.recover(tmp_path)  # paused state replays
        recovered.dispatch(DispatchCommand(command="resume",
                                           idempotency_key="r"))
        _drive(recovered)
        assert recovered.done
        assert recovered.digests() == reference.digests()


class TestTelemetry:
    def test_status_and_reports(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=3)
        status = run.status()
        assert status["rounds"] == 3
        assert status["journaled"] is True
        assert len(status["devices"]) == CONFIG.n_devices
        reports = run.reports()
        assert [r.device for r in reports] == ["device-00", "device-01"]
        assert all(r.round == 3 for r in reports)
        assert all(r.state_digest for r in reports)
        run.close()

    def test_journal_records_genesis_boundaries_shutdown(self, tmp_path):
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2)
        run.shutdown("test-drain")
        messages, truncated = read_journal(tmp_path / "journal.bin")
        assert truncated is False
        assert isinstance(messages[0], RunGenesis)
        boundaries = [m for m in messages if isinstance(m, StepBoundary)]
        assert [b.round for b in boundaries] == [1, 2]
        assert isinstance(messages[-1], ShutdownNotice)

    def test_flatline_alert_emitted_for_stalled_device(self):
        config = RunConfig(
            policy="ondemand", scale="tiny", n_devices=2, seed=7,
            snapshot_every=5,
            faults=({"type": "StragglerStall",
                     "params": {"device": "device-00", "step": 2,
                                "rounds": 8}},),
        )
        run = ServiceRun.start(config=config)
        run.run_to_completion()
        assert any(alert.device == "device-00" for alert in run.alerts)


# --------------------------------------------------------------------- #
# In-process server: failures and malformed requests
# --------------------------------------------------------------------- #
def _no_space_after_round_0(monkeypatch):
    """Make every rotation after the round-0 one fail with ENOSPC."""
    real_rotate = ServiceRun._rotate_snapshots

    def rotate(run):
        if run.rounds > 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_rotate(run)

    monkeypatch.setattr(ServiceRun, "_rotate_snapshots", rotate)


async def _raw_request(request: bytes):
    """Serve an unjournaled run, send ``request`` verbatim, drain."""
    server = ServiceServer(ServiceRun.start(config=CONFIG))
    serving = asyncio.ensure_future(
        server.serve(install_signal_handlers=False))
    while server.bound_port is None:
        await asyncio.sleep(0.01)
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   server.bound_port)
    writer.write(request)
    await writer.drain()
    response = await reader.read()
    writer.close()
    server.request_drain()
    await serving
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestServerFailures:
    def test_failed_rotation_stops_serving_with_an_error(self, tmp_path,
                                                         monkeypatch):
        """The first cadence frame's fsync fails with ENOSPC: serving
        stops with the error journaled, the rotation file refuses
        appends, and recovery drops the frame no manifest names."""
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        rotations = (tmp_path / ROTATIONS_FILE).stat().st_ino
        real_fsync = os.fsync

        def no_space_for_frames(fd):
            if os.fstat(fd).st_ino == rotations:
                raise OSError(errno.ENOSPC, "No space left on device")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", no_space_for_frames)
        server = ServiceServer(run)
        asyncio.run(asyncio.wait_for(
            server.serve(install_signal_handlers=False), timeout=60))
        monkeypatch.undo()
        assert server.failure is not None
        assert "No space left" in server.failure.message
        assert run.rounds == CONFIG.snapshot_every
        assert run.status()["errors"] == [encode_message(server.failure)]
        messages, truncated = read_journal(tmp_path / "journal.bin")
        assert truncated is False
        assert messages[-1] == server.failure
        assert _manifest_rounds(tmp_path) == [0]
        with pytest.raises(JournalError, match="failed an append"):
            run._rotate_snapshots()
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 0
        assert ((tmp_path / ROTATIONS_FILE).stat().st_size
                == _frames(tmp_path)[0].end)
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == _run_reference().digests()

    def test_forced_rotation_mid_cadence_recovers_there(self, tmp_path):
        """``POST /snapshot`` appends a frame between cadence rotations;
        a kill after it recovers from that frame, bitwise."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        status, manifest = ServiceServer(run)._route("POST", "/snapshot",
                                                     b"")
        assert status == 200 and manifest["round"] == 4
        _drive(run, stop_at=5)
        del run
        assert _manifest_rounds(tmp_path) == [0, 3, 4]
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 4
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()

    def test_serve_cli_exits_nonzero_when_a_round_fails(self, tmp_path,
                                                        monkeypatch, capsys):
        from repro.service.__main__ import main

        _no_space_after_round_0(monkeypatch)
        code = main(["serve", "--journal", str(tmp_path / "run"),
                     "--devices", "2", "--seed", "7",
                     "--snapshot-every", "3"])
        assert code == 1
        assert "No space left" in capsys.readouterr().err

    @pytest.mark.parametrize("content_length, status", [
        ("abc", 400),
        ("-5", 400),
        ("1_0", 400),
        (str(MAX_BODY_BYTES + 1), 413),  # answered without waiting for it
        ("0", 200),
    ])
    def test_content_length_is_validated(self, content_length, status):
        request = (f"GET /status HTTP/1.1\r\n"
                   f"Content-Length: {content_length}\r\n\r\n")
        answer, payload = asyncio.run(asyncio.wait_for(
            _raw_request(request.encode("latin-1")), timeout=60))
        assert answer == status, payload


class TestServiceCLI:
    """``python -m repro.service`` status/dispatch against a live server."""

    def test_each_cli_dispatch_applies(self, capsys):
        """Two CLI invocations mint distinct idempotency keys: both
        dispatches are accepted and both apply."""
        from repro.service.__main__ import main

        run = ServiceRun.start(config=CONFIG)
        server = ServiceServer(run, step_delay=0.05)
        serving = threading.Thread(target=asyncio.run, args=(
            server.serve(install_signal_handlers=False),))
        serving.start()
        try:
            deadline = time.monotonic() + 60
            while server.bound_port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.bound_port is not None
            port = str(server.bound_port)
            receipts = []
            for argv in (["restrict-space", "--device", "device-00",
                          "--value", "1"],
                         ["set-policy", "--device", "device-01",
                          "--value", "powersave"]):
                assert main(["dispatch", "--port", port, *argv]) == 0
                receipts.append(json.loads(capsys.readouterr().out))
            assert [r["status"] for r in receipts] == ["accepted"] * 2
            last = max(r["apply_round"] for r in receipts)
            while (run.rounds <= last and not run.done
                   and time.monotonic() < deadline):
                time.sleep(0.01)
        finally:
            server.request_drain()
            serving.join(timeout=60)
        assert not serving.is_alive()
        assert run.rounds > last, "the run ended before the dispatches"
        assert run.supervisor.session_named("device-00").dispatched_cap == 1
        policy = run.supervisor.session_named("device-01").policy
        assert isinstance(policy.governor, PowersaveGovernor)

    def test_dispatch_after_the_last_round_applies(self):
        """A cap dispatched once ``status`` reports the run done still
        applies at the next round boundary the server steps."""
        from repro.service.client import ServiceClient

        run = ServiceRun.start(config=CONFIG)
        server = ServiceServer(run)
        serving = threading.Thread(target=asyncio.run, args=(
            server.serve(install_signal_handlers=False),))
        serving.start()
        try:
            deadline = time.monotonic() + 60
            while server.bound_port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.bound_port is not None
            client = ServiceClient(port=server.bound_port)
            while (not client.status()["done"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            receipt = client.dispatch(DispatchCommand(
                command="restrict-space", device="device-00", value=1))
            assert receipt.status == "accepted"
            while (client.status()["pending_dispatches"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            status = client.status()
        finally:
            server.request_drain()
            serving.join(timeout=60)
        assert not serving.is_alive()
        assert status["done"] and status["pending_dispatches"] == 0
        assert run.supervisor.session_named("device-00").dispatched_cap == 1

    def test_closed_stdout_exits_quietly(self):
        """``status`` and ``dispatch`` into a pipe whose reader closed
        exit 1 with nothing on stderr."""
        from test_cli_interrupt import run_into_closed_pipe

        server = ServiceServer(ServiceRun.start(config=CONFIG))
        serving = threading.Thread(target=asyncio.run, args=(
            server.serve(install_signal_handlers=False),))
        serving.start()
        try:
            deadline = time.monotonic() + 60
            while server.bound_port is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.bound_port is not None
            port = str(server.bound_port)
            results = [
                run_into_closed_pipe(
                    ["-m", "repro.service", *argv, "--port", port],
                    _service_env())
                for argv in (["status"],
                             ["dispatch", "pause", "--device", "device-00"])
            ]
        finally:
            server.request_drain()
            serving.join(timeout=60)
        assert not serving.is_alive()
        for result in results:
            assert result.returncode == 1
            assert "Traceback" not in result.stderr, result.stderr
            assert "Exception ignored" not in result.stderr, result.stderr

    def test_clients_mint_distinct_keys(self):
        """Each client draws its own key prefix."""
        from repro.service.client import ServiceClient

        first, second = ServiceClient(port=1), ServiceClient(port=1)
        assert first.next_idempotency_key() != second.next_idempotency_key()

    def test_dispatch_rejects_a_non_integer_cap(self, capsys):
        from repro.service.__main__ import main

        code = main(["dispatch", "--port", "1", "restrict-space",
                     "--device", "device-00", "--value", "abc"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abc'" in err

    def test_status_without_a_port_file(self, tmp_path, capsys):
        from repro.service.__main__ import main

        assert main(["status", "--journal", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "server.port" in err
        assert main(["status"]) == 2
        assert capsys.readouterr().err.startswith("error: need --port")


# --------------------------------------------------------------------- #
# End-to-end over HTTP (subprocess server)
# --------------------------------------------------------------------- #
def _service_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _wait_port(journal: Path, process, timeout=60.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server died early with code {process.returncode}"
            )
        port_file = journal / "server.port"
        if port_file.exists() and port_file.read_text().strip():
            return int(port_file.read_text().strip())
        time.sleep(0.05)
    raise AssertionError("server never published its port")


class TestServerSubprocess:
    def test_sigterm_drains_gracefully(self, tmp_path):
        """SIGTERM: finish the round, journal the drain, exit 0."""
        journal = tmp_path / "run"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--journal", str(journal), "--devices", "2", "--seed", "7",
             "--snapshot-every", "3", "--step-delay", "0.05"],
            env=_service_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            port = _wait_port(journal, process)
            from repro.service.client import ServiceClient

            client = ServiceClient(port=port)
            status = client.wait_rounds(2)
            assert status["rounds"] >= 2
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        assert process.returncode == 0
        messages, truncated = read_journal(journal / "journal.bin")
        assert truncated is False
        assert isinstance(messages[-1], ShutdownNotice)
        assert messages[-1].reason == "SIGTERM"

    def test_demo_kill9_resume_bitwise(self):
        """The full CI exercise: serve -> dispatch -> kill -9 -> resume ->
        digests match an uninterrupted reference.  Exit 0 is the proof."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.service", "demo",
             "--devices", "2", "--seed", "7", "--kill-after-rounds", "4"],
            env=_service_env(), capture_output=True, text=True, timeout=420,
        )
        assert result.returncode == 0, result.stderr
        assert "bitwise identical" in result.stderr


class TestStartImports:
    def test_start_over_every_scenario_loads_no_numpy_ma(self):
        """``np.median`` imports ``numpy.ma`` on its first call (~16 ms and
        ~1 MiB per process); a start that applies every scenario loads no
        ``numpy.ma``."""
        code = (
            "import sys\n"
            "from repro.scenarios import available_scenarios\n"
            "from repro.service.run import RunConfig, ServiceRun\n"
            "scenarios = tuple(available_scenarios())\n"
            "ServiceRun.start(RunConfig(n_devices=len(scenarios) + 1,\n"
            "                           scenarios=scenarios))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                env=_service_env(), capture_output=True,
                                text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"
