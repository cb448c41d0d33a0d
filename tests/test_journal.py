"""Tests for the durable run journal (crash-safety substrate).

The recovery invariant leans entirely on the journal's read semantics:
a crash mid-append must come back as a discarded torn tail (recoverable),
while bit rot inside the file must raise loudly (that journal cannot be
trusted).  These tests pin both classes, the fsync'd framing round-trip,
and the reopen-truncates-torn-tail behaviour that keeps a recovered
journal appendable.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.service.journal import (
    JOURNAL_MAGIC,
    Journal,
    JournalError,
    file_sha256,
    read_journal,
)
from repro.service.protocol import (
    DeviceRegistration,
    DispatchCommand,
    RunGenesis,
    SnapshotManifest,
    StepBoundary,
)


def _sample_messages():
    return [
        RunGenesis(config={"policy": "ondemand", "n_devices": 2}),
        DispatchCommand(command="restrict-space", device="device-00",
                        value=1, idempotency_key="k-1", apply_round=2),
        StepBoundary(round=1, advanced=2),
        StepBoundary(round=2, advanced=2),
    ]


@pytest.fixture()
def journal_path(tmp_path):
    path = tmp_path / "journal.bin"
    with Journal(path, create=True) as journal:
        for message in _sample_messages():
            journal.append(message)
    return path


class TestRoundTrip:
    def test_append_and_read_back(self, journal_path):
        messages, truncated = read_journal(journal_path)
        assert messages == _sample_messages()
        assert truncated is False

    def test_reopen_appends_after_existing_records(self, journal_path):
        with Journal(journal_path) as journal:
            journal.append(StepBoundary(round=3, advanced=1))
        messages, truncated = read_journal(journal_path)
        assert messages == _sample_messages() + [StepBoundary(round=3,
                                                              advanced=1)]
        assert truncated is False

    def test_create_refuses_existing_file(self, journal_path):
        with pytest.raises(JournalError, match="already exists"):
            Journal(journal_path, create=True)

    def test_open_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="does not exist"):
            Journal(tmp_path / "absent.bin")

    def test_empty_journal_reads_empty(self, tmp_path):
        path = tmp_path / "empty.bin"
        Journal(path, create=True).close()
        assert read_journal(path) == ([], False)


class TestCorruption:
    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "foreign.bin"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(JournalError, match="bad magic"):
            read_journal(path)
        with pytest.raises(JournalError, match="bad magic"):
            Journal(path)

    @pytest.mark.parametrize("cut", [1, 10, 30])
    def test_torn_tail_is_discarded(self, journal_path, cut):
        """A crash mid-append loses only the final, unacknowledged record."""
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-cut])
        messages, truncated = read_journal(journal_path)
        assert truncated is True
        assert messages == _sample_messages()[:-1]

    def test_torn_header_at_eof_is_discarded(self, journal_path):
        data = journal_path.read_bytes()
        journal_path.write_bytes(data + b"\x00\x00")  # 2 bytes of header
        messages, truncated = read_journal(journal_path)
        assert truncated is True
        assert messages == _sample_messages()

    def test_corrupt_final_frame_is_torn_tail(self, journal_path):
        data = bytearray(journal_path.read_bytes())
        data[-3] ^= 0xFF  # flip a payload bit of the final record
        journal_path.write_bytes(bytes(data))
        messages, truncated = read_journal(journal_path)
        assert truncated is True
        assert messages == _sample_messages()[:-1]

    def test_midfile_corruption_raises(self, journal_path):
        """Bit rot with intact records after it: the journal is untrusted."""
        data = bytearray(journal_path.read_bytes())
        data[len(JOURNAL_MAGIC) + 40] ^= 0xFF  # inside the first payload
        journal_path.write_bytes(bytes(data))
        with pytest.raises(JournalError, match="mid-file corruption"):
            read_journal(journal_path)
        with pytest.raises(JournalError, match="mid-file corruption"):
            Journal(journal_path)  # must not be extended either

    def test_checksum_valid_but_undecodable_raises(self, tmp_path):
        import hashlib
        import struct

        path = tmp_path / "journal.bin"
        payload = b"not json at all"
        path.write_bytes(JOURNAL_MAGIC + struct.pack(">I", len(payload))
                         + hashlib.sha256(payload).digest() + payload)
        with pytest.raises(JournalError, match="undecodable"):
            read_journal(path)

    def test_reopen_truncates_torn_tail_before_appending(self, journal_path):
        """Appending after a torn tail must not bury garbage mid-file."""
        data = journal_path.read_bytes()
        journal_path.write_bytes(data[:-7])  # tear the last record
        with Journal(journal_path) as journal:
            journal.append(StepBoundary(round=99, advanced=1))
        messages, truncated = read_journal(journal_path)
        assert truncated is False
        assert messages == _sample_messages()[:-1] + [
            StepBoundary(round=99, advanced=1)
        ]


class TestFileSha256:
    def test_matches_hashlib(self, journal_path):
        import hashlib

        assert file_sha256(journal_path) == hashlib.sha256(
            journal_path.read_bytes()).hexdigest()


class TestDurability:
    @pytest.mark.parametrize("message, synced", [
        (RunGenesis(config={"policy": "ondemand"}), 1),
        (SnapshotManifest(round=3, files=(("fleet", "s", "0" * 64),)), 1),
        (DispatchCommand(command="pause", idempotency_key="k"), 1),
        (StepBoundary(round=1, advanced=2), 0),
        (DeviceRegistration(device="device-00", policy="ondemand"), 0),
    ])
    def test_only_records_recovery_reads_are_fsynced(
            self, tmp_path, monkeypatch, message, synced):
        """Unsynced records are still flushed: a reader sees them at once."""
        path = tmp_path / "journal.bin"
        calls = []
        with Journal(path, create=True) as journal:
            monkeypatch.setattr(os, "fsync", calls.append)
            journal.append(message)
            assert read_journal(path) == ([message], False)
        assert len(calls) == synced

    def test_failed_append_refuses_further_appends(self, journal_path,
                                                   monkeypatch):
        """A record after a failed (maybe torn) one could bury torn bytes
        mid-file, so the journal stops taking appends."""
        def no_space(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with Journal(journal_path) as journal:
            monkeypatch.setattr(os, "fsync", no_space)
            with pytest.raises(OSError, match="No space"):
                journal.append(RunGenesis(config={}))
            monkeypatch.undo()
            with pytest.raises(JournalError, match="failed an append"):
                journal.append(StepBoundary(round=3, advanced=1))
        messages, _truncated = read_journal(journal_path)
        assert messages[:len(_sample_messages())] == _sample_messages()
