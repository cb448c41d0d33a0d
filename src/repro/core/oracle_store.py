"""Persistent on-disk store for Oracle tables.

The in-memory :class:`~repro.core.oracle.OracleCache` dies with its process,
so the ``--jobs N`` seed fan-out and every fresh CLI invocation used to
re-run identical exhaustive Oracle sweeps.  The :class:`OracleStore` makes
Oracle construction a compute-once artifact that any number of processes —
worker pools, later CLI runs, CI jobs restoring a cache — can share.

Layout: one directory per Oracle table, named by the digest of the table's
configuration space and :func:`code_fingerprint` (computed by
:func:`repro.core.oracle.persistent_table_digest`).  A table is an
append-only set of *segments*: each ``build_oracle`` call that computed
entries publishes them as one fixed-dtype NumPy array (a content key and
:data:`ORACLE_COLUMNS` per entry), named by the SHA-256 digest of its bytes.

Design points:

* **Read once per process.**  A store loads a table's segments into a
  resident dict on first use and, on each later use, re-lists the directory
  and loads only the segments it has not seen, so a lookup is a dict get
  and other processes' writes become visible when their ``build_oracle``
  call ends.
* **Data, never code.**  Segments are read with
  ``np.load(allow_pickle=False)``; files without the current
  :data:`SEGMENT_SUFFIX` (older pickled segments included) are never opened.
* **Crash/corruption tolerance.**  Segments are written to a temp file in
  the table directory and published with an atomic :func:`os.replace`; a
  segment whose bytes do not match its name or that does not load as a
  segment array is skipped, so its entries miss, are recomputed and are
  re-published: the store heals itself one segment at a time.
* **Concurrent safety.**  Readers only ever see fully written segments
  (atomic rename); segments are never rewritten, and two writers
  publishing identical bytes publish the same name, so last-writer-wins is
  harmless.  Differing platforms, spaces or code never share a table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, TypeVar, Union

import numpy as np

_T = TypeVar("_T")

#: Bump when the segment layout changes.  Segments are named with the
#: version (:data:`SEGMENT_SUFFIX`), so another version's are never opened.
STORE_FORMAT_VERSION = 4
SEGMENT_SUFFIX = f".v{STORE_FORMAT_VERSION}.npy"

#: One entry's Oracle columns: the energy-minimising configuration (an index
#: into the table's space) and the noise-free energy and time there.
ORACLE_COLUMNS = np.dtype([("best_index", "<i8"), ("energy_j", "<f8"),
                           ("time_s", "<f8")])

#: Process-wide store-activity counters aggregated over every OracleStore
#: instance (merged into :func:`repro.core.oracle.cache_stats_snapshot`).
_GLOBAL_STORE_STATS: Dict[str, int] = {"store_retries": 0}


def store_stats_snapshot() -> Dict[str, int]:
    """Copy of the process-wide OracleStore activity counters."""
    return dict(_GLOBAL_STORE_STATS)


_CODE_FINGERPRINT: Optional[str] = None


def fingerprint_sources() -> List[Path]:
    """The source files :func:`code_fingerprint` digests, in digest order:
    ``repro/soc/*.py`` and ``repro/core/oracle.py``.  Every function that
    computes Oracle entries must live in one of them."""
    import repro.core.oracle
    import repro.soc

    sources = sorted(Path(repro.soc.__file__).parent.glob("*.py"))
    sources.append(Path(repro.core.oracle.__file__))
    return sources


def code_fingerprint() -> str:
    """Digest of the source of every module Oracle entries depend on.

    Entry *content* keys capture the inputs (snippet and space) but
    not the simulator/Oracle semantics that turn inputs into entries; a
    code change there would otherwise let an old store silently serve
    entries computed by different physics.  Folding this fingerprint of
    the :func:`fingerprint_sources` into every table digest turns any edit
    of the relevant modules into clean store misses — conservative (some
    invalidations are unnecessary) but never stale.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        hasher = hashlib.sha256()
        for source in fingerprint_sources():
            hasher.update(source.name.encode("utf-8"))
            hasher.update(b"\x00")
            hasher.update(source.read_bytes())
            hasher.update(b"\x00")
        _CODE_FINGERPRINT = hasher.hexdigest()
    return _CODE_FINGERPRINT


class OracleStore:
    """Directory of Oracle tables, each an append-only set of segments.

    Transient IO errors (NFS hiccups, ``EINTR``/``EAGAIN``, a briefly
    unavailable mount in CI) retry up to ``max_retries`` times with
    bounded exponential backoff whose jitter is drawn from a *seeded*
    generator — backoff timing is reproducible for a given
    ``jitter_seed``, like every other stochastic component here.  Retries
    are counted in :attr:`retries` (and process-wide as
    ``store_retries``); exhausted retries degrade instead of raising — a
    listing or read becomes misses, a write becomes memory-only (counted
    in :attr:`write_errors`) — the store never aborts the run.

    ``io_failure_hook`` is a test/chaos hook called before every physical
    listing, read and write attempt as ``hook(op, path)`` (``op`` is
    ``"list"``, ``"read"`` or ``"write"``); raising :class:`OSError` from
    it simulates a transient or persistent filesystem failure.
    """

    def __init__(self, root: Union[str, Path],
                 max_retries: int = 2,
                 backoff_s: float = 0.005,
                 jitter_seed: int = 0,
                 io_failure_hook: Optional[
                     Callable[[str, Path], None]] = None) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.write_errors = 0
        self.retries = 0
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.io_failure_hook = io_failure_hook
        self._jitter_rng = np.random.default_rng(jitter_seed)
        # Resident entries of every table loaded so far, and the names of
        # the segments each one has read.
        self._tables: Dict[str, Dict[bytes, tuple]] = {}
        self._seen: Dict[str, Set[str]] = {}

    def _backoff_delay(self, attempt: int) -> float:
        """Deterministic-jitter exponential backoff delay for ``attempt``.

        ``backoff_s * 2^(attempt-1)`` scaled by a jitter factor in
        ``[0.5, 1.5)`` from the store's seeded generator (decorrelates
        concurrent processes without sacrificing reproducibility per
        store instance).
        """
        jitter = 0.5 + float(self._jitter_rng.random())
        return self.backoff_s * (2.0 ** (attempt - 1)) * jitter

    def _count_retry(self, attempt: int) -> None:
        self.retries += 1
        _GLOBAL_STORE_STATS["store_retries"] += 1
        delay = self._backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)

    def _retrying(self, op: str, path: Path,
                  action: Callable[[], _T]) -> Optional[_T]:
        """``action()``, retried on :class:`OSError` with backoff; ``None``
        once the retries are exhausted."""
        attempt = 0
        while True:
            try:
                if self.io_failure_hook is not None:
                    self.io_failure_hook(op, path)
                return action()
            except OSError:
                if attempt >= self.max_retries:
                    return None
                attempt += 1
                self._count_retry(attempt)

    def table(self, digest: str) -> Dict[bytes, tuple]:
        """Resident entries of table ``digest``, keyed by content key.

        The first call loads every segment of the table; each later call
        re-lists the directory and loads only the segments published since
        (by pooled workers, earlier runs or other store instances).  A
        listing that keeps failing leaves the resident entries as they are,
        and a segment that cannot be read is tried again on the next call;
        a corrupt segment is skipped for good, so its entries miss and the
        caller re-publishes them.
        """
        entries = self._tables.setdefault(digest, {})
        seen = self._seen.setdefault(digest, set())
        directory = self.root / digest
        names = self._retrying("list", directory,
                               lambda: _segment_names(directory))
        for name in sorted(set(names or ()) - seen):
            path = directory / name
            data = self._retrying("read", path, lambda: _read_segment(path))
            if data is None:
                continue
            seen.add(name)
            segment = _decode_segment(name, data)
            if segment is not None:
                entries.update(segment)
        return entries

    def publish(self, digest: str, keys: Sequence[bytes],
                columns: np.ndarray) -> bool:
        """Append ``columns[i]`` (:data:`ORACLE_COLUMNS`) under
        ``keys[i]`` to table ``digest`` as one segment.

        The segment is written to a temp file and published with an atomic
        :func:`os.replace` under the digest of its bytes.  The store is a
        transparent optimisation tier: a filesystem failure (disk full,
        store directory removed or read-only) must never abort the run that
        already computed the entries, so write errors degrade to
        memory-only operation (counted in :attr:`write_errors`) instead of
        raising.  Returns whether the segment was published.
        """
        payload = _encode_segment(keys, columns)
        name = hashlib.sha256(payload).hexdigest() + SEGMENT_SUFFIX
        directory = self.root / digest
        if self._retrying("write", directory / name,
                          lambda: _write_atomic(directory, name,
                                                payload)) is None:
            self.write_errors += 1
            return False
        if digest in self._tables:
            self._tables[digest].update(zip(keys, columns.tolist()))
            self._seen[digest].add(name)
        return True


def _segment_dtype(key_width: int) -> np.dtype:
    """Record layout of a segment whose longest key has ``key_width`` bytes.

    A key may end in NUL bytes, which an ``S`` field would strip; a ``V``
    field keeps them, and ``key_size`` says how many bytes are the key's.
    """
    return np.dtype([("key", f"V{key_width}"), ("key_size", "<i8"),
                     ("columns", ORACLE_COLUMNS)])


def _encode_segment(keys: Sequence[bytes], columns: np.ndarray) -> bytes:
    """The :func:`np.save` bytes of one segment."""
    records = np.zeros(len(keys), _segment_dtype(max(map(len, keys))))
    records["key"], records["key_size"] = keys, list(map(len, keys))
    records["columns"] = columns
    buffer = io.BytesIO()
    np.save(buffer, records, allow_pickle=False)
    return buffer.getvalue()


def _segment_names(directory: Path) -> List[str]:
    try:
        return [name for name in os.listdir(directory)
                if name.endswith(SEGMENT_SUFFIX)]
    except FileNotFoundError:
        return []  # nothing published to this table yet: no retry


def _read_segment(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return None  # removed since the listing: a miss, no retry


def _decode_segment(name: str,
                    data: bytes) -> Optional[Dict[bytes, tuple]]:
    """A segment's entries; ``None`` for bytes that do not match the
    segment's name (truncated, bit rot), do not load as a plain array or
    hold records of another layout."""
    if hashlib.sha256(data).hexdigest() + SEGMENT_SUFFIX != name:
        return None
    try:
        records = np.load(io.BytesIO(data), allow_pickle=False)
        width = records.dtype["key"].itemsize
    except Exception:
        return None
    if records.ndim != 1 or records.dtype != _segment_dtype(width):
        return None
    sizes = records["key_size"].tolist()
    if not all(0 < size <= width for size in sizes):
        return None
    keys = [key[:size] for key, size in zip(records["key"].tolist(), sizes)]
    return dict(zip(keys, records["columns"].tolist()))


def _write_atomic(directory: Path, name: str, payload: bytes) -> bool:
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, directory / name)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return True


def content_digest(*parts) -> str:
    """SHA-256 digest of the ``repr`` of content-key tuples.

    ``repr`` of the key tuples is deterministic: they contain only str,
    bytes, bool, int and float values (a float's ``repr`` is its shortest
    round-trip form) nested in tuples.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


# --------------------------------------------------------------------- #
# Process-wide default store
# --------------------------------------------------------------------- #
_DEFAULT_STORE: Optional[OracleStore] = None


def set_default_oracle_store(
    store: Optional[Union[OracleStore, str, Path]]
) -> Optional[OracleStore]:
    """Install (or clear, with ``None``) the process-wide default store.

    Frameworks created afterwards layer their :class:`OracleCache` over it.
    The experiment runner calls this in the parent process and forwards the
    path to worker processes so a whole ``--jobs N`` fan-out shares one
    store.  Returns the installed store.
    """
    global _DEFAULT_STORE
    if store is None:
        _DEFAULT_STORE = None
    elif isinstance(store, OracleStore):
        _DEFAULT_STORE = store
    else:
        _DEFAULT_STORE = OracleStore(store)
    return _DEFAULT_STORE


def get_default_oracle_store() -> Optional[OracleStore]:
    """The process-wide default store, if one was installed."""
    return _DEFAULT_STORE


def default_space_digest() -> str:
    """Digest of the default platform's space
    (:meth:`~repro.soc.configuration.ConfigurationSpace.content_key`), the
    code fingerprint and the store format version.

    This is the key CI uses to cache the on-disk store between workflow
    runs: whenever the platform parameters, the space settings, any module
    the entries' semantics depend on (the space enumeration's among them)
    or the segment layout changes, the digest — and with it the cache key —
    changes.  Table digests embed the same :func:`code_fingerprint`, so a
    stale restored store could only produce misses anyway; the key keeps
    CI from restoring files it can no longer read and from accumulating
    dead tables.
    """
    from repro.soc.configuration import ConfigurationSpace
    from repro.soc.platform import odroid_xu3_like

    space = ConfigurationSpace(odroid_xu3_like())
    return content_digest(space.content_key(), code_fingerprint(),
                          STORE_FORMAT_VERSION)
