"""Durable run journal: append-only, sha256-framed records.

The journal is the crash-safety substrate of the control plane.  Every
record is one protocol message (:mod:`repro.service.protocol`) framed as::

    [4-byte big-endian payload length][32-byte sha256(payload)][payload]

where the payload is the message's canonical JSON encoding.  Appends
are ``write + flush``, plus an ``fsync`` for :data:`SYNCED_RECORDS`, which
then survive power loss together with every record before them.  The
file opens with an 8-byte magic header identifying the format version.

The framing itself — :class:`FramedFile` writes it, :func:`walk_frames`
reads it — is shared with the run's snapshot rotation file
(:mod:`repro.service.run`), whose frames hold session states.

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
from typing import BinaryIO, List, NamedTuple, Tuple, Union

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


class Frame(NamedTuple):
    """One intact frame: where it starts, its stored sha256 digest (raw
    bytes) and its payload."""

    offset: int
    digest: bytes
    payload: bytes

    @property
    def end(self) -> int:
        """Where the next frame starts."""
        return self.offset + _FRAME_HEADER + len(self.payload)


class JournalError(RuntimeError):
    """A journal file failed verification (unrecoverable corruption)."""


def walk_frames(data: bytes, start: int) -> Tuple[List[Frame], int]:
    """The intact frames of ``data`` from offset ``start`` on.

    Walks frame by frame up to the first one that is torn (runs past the
    end of ``data``) or fails its checksum.  Returns ``(frames, end)``
    with ``end`` where that frame starts, or ``len(data)`` when every
    frame is intact.
    """
    frames: List[Frame] = []
    offset = start
    size = len(data)
    while offset + _FRAME_HEADER <= size:
        (length,) = _LEN.unpack_from(data, offset)
        begin = offset + _FRAME_HEADER
        end = begin + length
        if end > size:
            break
        payload = data[begin:end]
        digest = data[offset + _LEN.size:begin]
        if hashlib.sha256(payload).digest() != digest:
            break
        frames.append(Frame(offset, digest, payload))
        offset = end
    return frames, offset


class FramedFile:
    """An append-only file of sha256 frames after a magic header.

    Use :meth:`create` for a new file and :meth:`open` to append to an
    existing one.  :meth:`append` frames, writes and flushes one payload,
    and fsyncs it when asked to; the first fsync of a created file also
    fsyncs its directory, so the new entry survives a crash too.  After
    an append fails the file refuses appends: a frame written after torn
    bytes would bury them mid-file.
    """

    def __init__(self, path: Path, handle: BinaryIO, created: bool) -> None:
        self.path = path
        self._handle = handle
        self._unsynced_entry = created
        self._failed = False

    @classmethod
    def create(cls, path: Union[str, Path], magic: bytes) -> "FramedFile":
        """A new file holding ``magic`` (written, not yet fsync'd)."""
        path = Path(path)
        if path.exists():
            raise JournalError(f"{path} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "xb")
        handle.write(magic)
        return cls(path, handle, created=True)

    @classmethod
    def open(cls, path: Union[str, Path], end: int) -> "FramedFile":
        """Append to ``path`` from ``end`` on, where its kept frames end.

        Bytes past ``end`` (a torn tail, frames a crashed process wrote
        that recovery does not keep) are truncated and the truncation is
        fsync'd before anything is appended.
        """
        path = Path(path)
        handle = open(path, "r+b")
        if handle.seek(0, os.SEEK_END) > end:
            handle.truncate(end)
            os.fsync(handle.fileno())
        handle.seek(end)
        return cls(path, handle, created=False)

    def append(self, payload: bytes, sync: bool) -> Tuple[int, str]:
        """Frame, write and flush ``payload`` (fsync'd when ``sync``).

        Returns the frame's offset and its payload's hex sha256.
        """
        if self._failed:
            raise JournalError(f"{self.path} failed an append")
        digest = hashlib.sha256(payload).digest()
        self._failed = True  # until the append completes
        offset = self._handle.tell()
        self._handle.write(_LEN.pack(len(payload)) + digest + payload)
        self._handle.flush()
        if sync:
            self.sync()
        self._failed = False
        return offset, digest.hex()

    def sync(self) -> None:
        """fsync what was written (and, once, a created file's entry)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if self._unsynced_entry:
            fsync_directory(self.path.parent)
            self._unsynced_entry = False

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


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
        if create:
            self._file = FramedFile.create(self.path, JOURNAL_MAGIC)
            self._file.sync()
        else:
            if not self.path.exists():
                raise JournalError(f"journal {self.path} does not exist")
            # Truncate any torn tail before appending: a record written
            # after torn bytes would turn a recoverable crash artefact
            # into mid-file corruption on the next read.  Raises on
            # mid-file corruption — such a journal must not be extended.
            _frames, end = _journal_frames(self.path,
                                           self.path.read_bytes())
            self._file = FramedFile.open(self.path, end)

    def append(self, message: Message) -> None:
        """Frame, write and flush one record (fsync'd if it is synced)."""
        self._file.append(dumps_message(message).encode("utf-8"),
                          sync=isinstance(message, SYNCED_RECORDS))

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _journal_frames(path: Path, data: bytes) -> Tuple[List[Frame], int]:
    """Every intact frame of journal bytes ``data``, and where they end.

    A torn tail is left out and ``end`` is where it starts (so callers
    can truncate it).  A bad magic or mid-file corruption raises
    :class:`JournalError`.
    """
    if data[:len(JOURNAL_MAGIC)] != JOURNAL_MAGIC:
        raise JournalError(f"{path} is not a journal (bad magic)")
    frames, end = walk_frames(data, len(JOURNAL_MAGIC))
    if end + _FRAME_HEADER <= len(data):
        (length,) = _LEN.unpack_from(data, end)
        if end + _FRAME_HEADER + length < len(data):
            raise JournalError(
                f"journal {path}: record at offset {end} failed its "
                "checksum with records following it (mid-file corruption)"
            )
    return frames, end


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
    frames, end = _journal_frames(path, data)
    messages: List[Message] = []
    for frame in frames:
        try:
            messages.append(loads_message(frame.payload.decode("utf-8")))
        except (ProtocolError, UnicodeDecodeError) as exc:
            raise JournalError(
                f"journal {path}: record at offset {frame.offset} is "
                f"checksum-valid but undecodable: {exc}"
            ) from exc
    return messages, end < len(data)


def file_sha256(path: Union[str, Path]) -> str:
    """Hex sha256 of a file's bytes."""
    with open(path, "rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()
