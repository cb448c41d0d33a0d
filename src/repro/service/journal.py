"""Durable run journal: append-only, sha256-framed records.

The journal is the crash-safety substrate of the control plane.  Every
record is one protocol message (:mod:`repro.service.protocol`) framed as::

    [4-byte big-endian payload length][32-byte sha256(payload)][payload]

where the payload is the message's canonical JSON encoding.  Appends
are ``write + flush``, plus an ``fsync`` for :data:`SYNCED_RECORDS`, which
then survive power loss together with every record before them.  The
file opens with an 8-byte magic header identifying the format version.

Read semantics distinguish the two corruption classes a recovery must
treat differently:

* **Torn tail** — the process died mid-append: the final frame is
  incomplete (short header/payload) or fails its checksum *and* extends
  to end-of-file.  The tail is discarded and reading succeeds with
  ``truncated=True``; everything before the torn frame is intact.
* **Mid-file corruption** — a checksum mismatch with more bytes after
  the frame (bit rot, external truncation + append).  That journal is
  untrustworthy as a whole: :class:`JournalError` is raised with the
  frame offset, mirroring the ``SnapshotError`` diagnostics of
  :func:`~repro.core.session.unpack_states`.
"""

from __future__ import annotations

import hashlib
import os
import struct
from pathlib import Path
from typing import List, Tuple, Union

from repro.core.session import fsync_directory
from repro.service.protocol import (
    DispatchCommand,
    Message,
    ProtocolError,
    RunGenesis,
    SnapshotManifest,
    dumps_message,
    loads_message,
)

#: Leading magic of journal files (identifies format + framing version).
JOURNAL_MAGIC = b"RPJRNL01"

#: Records :meth:`Journal.append` fsyncs: the ones recovery reads and the
#: dispatches acknowledged to clients.  Every other record is flushed
#: only and becomes durable with the next synced append.
SYNCED_RECORDS = (RunGenesis, SnapshotManifest, DispatchCommand)

_LEN = struct.Struct(">I")
_DIGEST_SIZE = 32
_FRAME_HEADER = _LEN.size + _DIGEST_SIZE


class JournalError(RuntimeError):
    """A journal file failed verification (unrecoverable corruption)."""


class Journal:
    """Append-only message log.

    Opening an existing journal seeks to its end (verifying the magic);
    ``create=True`` requires the file to not exist yet, and fsyncs the
    new file and its directory entry.  :meth:`append`
    frames, writes and flushes one message, and fsyncs it when it is one
    of :data:`SYNCED_RECORDS`.  After an append fails the journal refuses
    appends, for the reason reopening truncates a torn tail.
    """

    def __init__(self, path: Union[str, Path], create: bool = False) -> None:
        self.path = Path(path)
        self._failed = False
        if create:
            if self.path.exists():
                raise JournalError(f"journal {self.path} already exists")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "xb")
            self._handle.write(JOURNAL_MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            fsync_directory(self.path.parent)
        else:
            if not self.path.exists():
                raise JournalError(f"journal {self.path} does not exist")
            data = self.path.read_bytes()
            # Truncate any torn tail before appending: a record written
            # after torn bytes would turn a recoverable crash artefact
            # into mid-file corruption on the next read.  Raises on
            # mid-file corruption — such a journal must not be extended.
            _frames, valid_end = _walk_frames(self.path, data)
            self._handle = open(self.path, "r+b")
            self._handle.seek(valid_end)
            if valid_end < len(data):
                self._handle.truncate()
                os.fsync(self._handle.fileno())

    def append(self, message: Message) -> None:
        """Frame, write and flush one record (fsync'd if it is synced)."""
        if self._failed:
            raise JournalError(f"journal {self.path} failed an append")
        payload = dumps_message(message).encode("utf-8")
        frame = (_LEN.pack(len(payload))
                 + hashlib.sha256(payload).digest()
                 + payload)
        self._failed = True  # until the append completes
        self._handle.write(frame)
        self._handle.flush()
        if isinstance(message, SYNCED_RECORDS):
            os.fsync(self._handle.fileno())
        self._failed = False

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _walk_frames(path: Path,
                 data: bytes) -> Tuple[List[Tuple[int, bytes]], int]:
    """Every intact frame of journal bytes ``data``, and where they end.

    Returns ``([(offset, payload), ...], valid_end)``; a torn tail is
    left out and ``valid_end`` is where it starts (so callers can
    truncate it).  A bad magic or mid-file corruption raises
    :class:`JournalError`.
    """
    if data[:len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise JournalError(f"{path} is not a journal (bad magic)")
    frames: List[Tuple[int, bytes]] = []
    offset = len(JOURNAL_MAGIC)
    size = len(data)
    while offset + _FRAME_HEADER <= size:
        (length,) = _LEN.unpack_from(data, offset)
        start = offset + _FRAME_HEADER
        end = start + length
        if end > size:
            break  # torn payload at EOF
        payload = data[start:end]
        if hashlib.sha256(payload).digest() != data[offset + _LEN.size:start]:
            if end == size:
                break  # checksum-failed final frame: torn
            raise JournalError(
                f"journal {path}: record at offset {offset} failed its "
                "checksum with records following it (mid-file corruption)"
            )
        frames.append((offset, payload))
        offset = end
    return frames, offset


def read_journal(path: Union[str, Path]) -> Tuple[List[Message], bool]:
    """Read every intact record of a journal file.

    Returns ``(messages, truncated)`` where ``truncated`` reports a
    discarded torn tail (crash mid-append).  Raises :class:`JournalError`
    for a bad magic, mid-file corruption, or an undecodable (yet
    checksum-valid) payload — those indicate bit rot or a foreign file,
    not a torn write.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"journal {path} unreadable: {exc}") from exc
    frames, valid_end = _walk_frames(path, data)
    messages: List[Message] = []
    for offset, payload in frames:
        try:
            messages.append(loads_message(payload.decode("utf-8")))
        except (ProtocolError, UnicodeDecodeError) as exc:
            raise JournalError(
                f"journal {path}: record at offset {offset} is "
                f"checksum-valid but undecodable: {exc}"
            ) from exc
    return messages, valid_end < len(data)


def file_sha256(path: Union[str, Path]) -> str:
    """Hex sha256 of a file's bytes (snapshot manifest entries)."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()
