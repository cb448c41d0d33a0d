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
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.fleet.device import build_fleet
from repro.service.journal import Journal, JournalError, read_journal
from repro.service.protocol import (
    DispatchCommand,
    RunGenesis,
    ShutdownNotice,
    SnapshotManifest,
    StepBoundary,
    encode_message,
)
from repro.service.run import (
    ROTATION_FILE,
    RunConfig,
    ServiceRun,
    build_config_devices,
)
from repro.service.server import MAX_BODY_BYTES, ServiceServer

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

    @pytest.mark.parametrize("kill_at", [2, 4, 7])
    def test_recovery_replays_dispatches_bitwise(self, tmp_path, kill_at):
        """Dispatches journal-before-apply: caps and policy swaps survive
        the crash and re-apply at their recorded boundaries."""
        script = {
            1: DispatchCommand(command="restrict-space", device="device-00",
                               value=1, idempotency_key="cap-on"),
            3: DispatchCommand(command="set-policy", device="device-01",
                               value="powersave", idempotency_key="swap"),
            6: DispatchCommand(command="restrict-space", device="device-00",
                               value=None, idempotency_key="cap-off"),
        }
        reference = _run_reference(script=script)
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, script=dict(script), stop_at=kill_at)
        del run
        recovered = ServiceRun.recover(tmp_path)
        _drive(recovered, script=dict(script))  # redelivery: keys dedupe
        assert recovered.digests() == reference.digests()

    def test_recovery_survives_corrupt_newest_snapshot(self, tmp_path):
        """A bit-rotted snapshot fails its manifest sha256 and recovery
        falls back to the previous rotation — still bitwise identical."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=2 * CONFIG.snapshot_every)
        del run
        manifests = [m for m in read_journal(tmp_path / "journal.bin")[0]
                     if isinstance(m, SnapshotManifest)]
        newest = manifests[-1]
        victim = tmp_path / newest.files[0][1]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds < newest.round  # fell back
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    def test_recovery_with_no_usable_snapshots_rebuilds_fresh(self, tmp_path):
        """All rotations destroyed: recovery replays from round 0."""
        import shutil

        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=4)
        del run
        shutil.rmtree(tmp_path / "snapshots")
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 0
        _drive(recovered)
        assert recovered.digests() == reference.digests()

    def test_external_fleet_mode_recovers(self, tmp_path):
        """A caller-built fleet journals too; the caller rebuilds the same
        fleet for recovery (the genesis records external mode)."""
        devices, simulator, space = build_config_devices(CONFIG)
        reference_engine = build_fleet(devices, simulator, space)
        reference_engine.run()
        expected = {device.name: session.state_digest()
                    for device, session in
                    zip(devices, reference_engine.sessions)}

        devices2, simulator2, space2 = build_config_devices(CONFIG)
        run = ServiceRun.start(devices=devices2, simulator=simulator2,
                               space=space2, journal_dir=tmp_path,
                               snapshot_every=3)
        _drive(run, stop_at=4)
        del run
        with pytest.raises(ValueError, match="externally built"):
            ServiceRun.recover(tmp_path)
        devices3, simulator3, space3 = build_config_devices(CONFIG)
        recovered = ServiceRun.recover(tmp_path, devices=devices3,
                                       simulator=simulator3, space=space3)
        _drive(recovered)
        assert recovered.digests() == expected


class _Killed(Exception):
    """Stands in for ``kill -9`` at one instant of an in-process run."""


class TestDurabilityRules:
    """Only genesis, manifests and dispatches are fsync'd, and a rotation
    is one file published before its manifest is journaled."""

    def test_unjournaled_rotation_is_ignored_then_pruned(self, tmp_path,
                                                         monkeypatch):
        """Killed after publishing round 6's file, before its manifest:
        recovery restores round 3, and the next rotation deletes the
        orphan (and any torn temp file) instead of keeping it."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        real_append = Journal.append

        def killed_before_manifest(journal, message):
            if isinstance(message, SnapshotManifest) and message.round == 6:
                raise _Killed
            real_append(journal, message)

        monkeypatch.setattr(Journal, "append", killed_before_manifest)
        with pytest.raises(_Killed):
            _drive(run)
        monkeypatch.undo()
        del run
        orphan = tmp_path / ROTATION_FILE.format(6)
        torn = orphan.parent / f".{orphan.name}-torn.tmp"
        torn.write_bytes(b"half a snapshot")
        assert orphan.exists()
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == 3
        recovered.step_round()
        recovered._rotate_snapshots()  # a forced rotation (POST /snapshot)
        assert sorted(p.name for p in orphan.parent.iterdir()) == [
            Path(ROTATION_FILE.format(r)).name for r in (3, 4)]
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()

    def test_manifest_naming_other_files_is_skipped(self, tmp_path):
        """A per-device manifest (the layout of older journals) names no
        rotation file: recovery falls back to the newest one that does."""
        reference = _run_reference()
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        _drive(run, stop_at=CONFIG.snapshot_every + 1)
        del run
        per_device = SnapshotManifest(round=4, files=tuple(
            (name, f"snapshots/round-00000004/{name}.snapshot", "0" * 64)
            for name in ("device-00", "device-01")))
        devices, simulator, _space = build_config_devices(CONFIG)
        with pytest.raises(JournalError, match="does not name"):
            ServiceRun._restore_manifest(tmp_path, per_device, devices,
                                         simulator)
        with Journal(tmp_path / "journal.bin") as journal:
            journal.append(per_device)
        recovered = ServiceRun.recover(tmp_path)
        assert recovered.rounds == CONFIG.snapshot_every
        _drive(recovered)
        recovered.close()
        assert recovered.digests() == reference.digests()

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
        # rotation (file, directory and manifest); the device
        # registrations are not synced.
        assert len(synced) == 6
        while not run.done:
            before = len(synced)
            if run.rounds == 4:
                run.dispatch(DispatchCommand(command="restrict-space",
                                             device="device-00", value=1))
                assert len(synced) == before + 1
                before += 1
            run.step_round()
            rotated = run.rounds % CONFIG.snapshot_every == 0 or run.done
            assert len(synced) == before + (3 if rotated else 0)
        run.close()


def _manifest_rounds(journal_dir):
    messages, _ = read_journal(journal_dir / "journal.bin")
    return [m.round for m in messages if isinstance(m, SnapshotManifest)]


class TestRotationCadence:
    """The cadence a run starts with survives recovery, and a round is
    rotated at most once."""

    @pytest.mark.parametrize("external", [False, True])
    def test_recovery_keeps_the_started_cadence(self, tmp_path, external):
        """``start(snapshot_every=3)`` over a config saying 5: recovery
        keeps 3, and the next rotation lands on a multiple of 3."""
        config = dataclasses.replace(CONFIG, snapshot_every=5)
        if external:
            devices, simulator, space = build_config_devices(config)
            run = ServiceRun.start(devices=devices, simulator=simulator,
                                   space=space, journal_dir=tmp_path,
                                   snapshot_every=3)
        else:
            run = ServiceRun.start(config=config, journal_dir=tmp_path,
                                   snapshot_every=3)
        _drive(run, stop_at=4)
        del run
        if external:
            devices, simulator, space = build_config_devices(config)
            recovered = ServiceRun.recover(tmp_path, devices=devices,
                                           simulator=simulator, space=space)
        else:
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
        _no_space_after_round_0(monkeypatch)
        run = ServiceRun.start(config=CONFIG, journal_dir=tmp_path)
        server = ServiceServer(run)
        asyncio.run(asyncio.wait_for(
            server.serve(install_signal_handlers=False), timeout=60))
        assert server.failure is not None
        assert "No space left" in server.failure.message
        assert run.rounds == CONFIG.snapshot_every
        assert run.status()["errors"] == [encode_message(server.failure)]
        messages, truncated = read_journal(tmp_path / "journal.bin")
        assert truncated is False
        assert messages[-1] == server.failure

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
        request = (f"POST /pause HTTP/1.1\r\n"
                   f"Content-Length: {content_length}\r\n\r\n")
        answer, payload = asyncio.run(asyncio.wait_for(
            _raw_request(request.encode("latin-1")), timeout=60))
        assert answer == status, payload


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
