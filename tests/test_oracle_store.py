"""Persistent on-disk Oracle store: round-trip, robustness, determinism.

The :class:`~repro.core.oracle_store.OracleStore` must (a) hand back
entries bitwise-equal to what the sweep computed, across processes and
cache instances; (b) skip unreadable segments, so their entries miss and
are re-published; (c) never run code from a file in the store directory,
and never read a segment of another format; (d) tolerate concurrent
readers; (e) — the property the golden traces rely on — never change any
experiment result, enabled or not; and (f) cost one segment file and one
table digest per ``build_oracle`` call, not one per entry.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import os
import pickle
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.oracle import (
    OracleCache,
    build_oracle,
    content_keys,
    persistent_table_digest,
)
from repro.core.oracle_store import (
    ORACLE_COLUMNS,
    OracleStore,
    SEGMENT_SUFFIX,
    STORE_FORMAT_VERSION,
    _decode_segment,
    _encode_segment,
    code_fingerprint,
    content_digest,
    default_space_digest,
    fingerprint_sources,
    get_default_oracle_store,
    set_default_oracle_store,
)
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator, characteristics_matrix
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads


@pytest.fixture(autouse=True)
def isolated_default_store():
    """No test leaks a process-default store into the rest of the suite."""
    previous = get_default_oracle_store()
    set_default_oracle_store(None)
    yield
    set_default_oracle_store(previous)


@pytest.fixture(scope="module")
def platform():
    return odroid_xu3_like()


@pytest.fixture(scope="module")
def space(platform):
    return ConfigurationSpace(platform)


@pytest.fixture(scope="module")
def sweep_trace():
    generator = SnippetTraceGenerator(seed=17)
    return generator.generate(training_workloads()[0].scaled(0.3))


@pytest.fixture()
def simulator(platform):
    return SoCSimulator(platform, seed=5)


def _keys(snippets):
    """Content keys of ``snippets``, cut from their own characteristic rows."""
    return content_keys(snippets, characteristics_matrix(snippets))


def _segments(root):
    """Every published segment file under a store root."""
    return sorted(root.glob(f"*/*{SEGMENT_SUFFIX}"))


def _content_name(payload: bytes, suffix: str = SEGMENT_SUFFIX) -> str:
    """The name a segment with these bytes is published under."""
    return hashlib.sha256(payload).hexdigest() + suffix


def _stored_entries(root) -> int:
    """Entries a fresh store finds across every table under ``root``."""
    reader = OracleStore(root)
    return sum(len(reader.table(table.name)) for table in root.iterdir())


def _segment_entries(path):
    entries = _decode_segment(path.name, path.read_bytes())
    assert entries is not None
    return entries


def _row(table, snippet):
    """A table's row for ``snippet``, as a store entry (Python scalars)."""
    return table.columns.item(table.rows[snippet.name])


class _CreatesMarker:
    """Unpickling this runs ``os.mkdir(path)``: a file in the store
    directory that would run code in a process reading it."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (os.mkdir, (self.path,))


def _parent_key(snippet):
    """The content key a version-2 store (pickled segments) used."""
    return (snippet.application, snippet.index, snippet.n_instructions,
            tuple(sorted(snippet.characteristics.as_dict().items())))


def _version_3_segment(keys) -> bytes:
    """The bytes of a segment the version-3 store wrote: one stale row per
    key, its columns carrying ``best_cost`` next to the energy."""
    columns = np.dtype([("best_index", "<i8"), ("best_cost", "<f8"),
                        ("energy_j", "<f8"), ("time_s", "<f8")])
    records = np.zeros(len(keys), [("key", f"V{max(map(len, keys))}"),
                                   ("key_size", "<i8"), ("columns", columns)])
    records["key"], records["key_size"] = keys, list(map(len, keys))
    buffer = io.BytesIO()
    np.save(buffer, records, allow_pickle=False)
    return buffer.getvalue()


class TestStoreRoundTrip:
    def test_cold_cache_hits_warm_store(self, tmp_path, simulator, space,
                                        sweep_trace):
        store = OracleStore(tmp_path / "store")
        warm_cache = OracleCache(store=store)
        table = build_oracle(simulator, space, sweep_trace, cache=warm_cache)
        assert warm_cache.store_misses == len(sweep_trace)
        assert _stored_entries(tmp_path / "store") == len(sweep_trace)

        cold_cache = OracleCache(store=OracleStore(tmp_path / "store"))
        reloaded = build_oracle(simulator, space, sweep_trace,
                                cache=cold_cache)
        assert cold_cache.store_hits == len(sweep_trace)
        assert cold_cache.hits == 0  # every entry came from disk, not memory
        assert list(table.rows) == list(reloaded.rows)
        assert table.columns.tobytes() == reloaded.columns.tobytes()

    def test_restricted_space_does_not_alias_full_space(self, tmp_path,
                                                        simulator, space,
                                                        sweep_trace):
        store = OracleStore(tmp_path / "store")
        restricted = space.restrict(max_opp_index=1)
        snippet = sweep_trace[0]
        assert (persistent_table_digest(space)
                != persistent_table_digest(restricted))
        full_cache = OracleCache(store=store)
        build_oracle(simulator, space, [snippet], cache=full_cache)
        throttled_cache = OracleCache(store=store)
        table = build_oracle(simulator, restricted, [snippet],
                             cache=throttled_cache)
        # The restricted sweep missed the store (no aliasing) and its entry
        # honours the cap.
        assert throttled_cache.store_hits == 0
        assert restricted.contains(table.best_configuration(snippet))

    def test_gating_settings_do_not_alias(self, tmp_path, simulator,
                                          platform, space, sweep_trace):
        """Spaces differing only in their gating settings get distinct keys
        and tables; an equal space built anew shares the full space's."""
        variants = [
            ConfigurationSpace(platform, allow_core_gating=True,
                               gated_clusters=("big",)),
            ConfigurationSpace(platform, allow_core_gating=True),
            ConfigurationSpace(platform, allow_core_gating=True,
                               gated_clusters=("big",), min_active_cores=2),
        ]
        keys = [variant.content_key() for variant in [space, *variants]]
        assert len(set(keys)) == len(keys)
        digests = {persistent_table_digest(variant)
                   for variant in [space, *variants]}
        assert len(digests) == len(keys)
        store = OracleStore(tmp_path / "store")
        snippet = sweep_trace[0]
        build_oracle(simulator, space, [snippet],
                     cache=OracleCache(store=store))
        twin_cache = OracleCache(store=store)
        build_oracle(simulator, ConfigurationSpace(platform), [snippet],
                     cache=twin_cache)
        assert twin_cache.store_hits == 1
        gated_cache = OracleCache(store=store)
        table = build_oracle(simulator, variants[0], [snippet],
                             cache=gated_cache)
        assert gated_cache.store_hits == 0
        assert variants[0].contains(table.best_configuration(snippet))

    def test_one_store_serves_every_cache_in_a_process(self, tmp_path,
                                                       simulator, space,
                                                       sweep_trace):
        """An entry another cache published is a store hit, not a sweep."""
        store = OracleStore(tmp_path / "store")
        build_oracle(simulator, space, sweep_trace,
                     cache=OracleCache(store=store))
        other = OracleCache(store=store)
        build_oracle(simulator, space, sweep_trace, cache=other)
        assert other.store_hits == len(sweep_trace)
        assert other.store_misses == 0
        assert len(_segments(store.root)) == 1

    def test_later_calls_load_segments_published_since(self, tmp_path,
                                                       simulator, space,
                                                       sweep_trace):
        """Each call re-lists the table, so a store that loaded it early
        still sees what another store (another process) published later."""
        root = tmp_path / "store"
        early = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, sweep_trace[:2], cache=early)
        late = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, sweep_trace, cache=late)
        assert (late.store_hits, late.store_misses) == (2, len(sweep_trace) - 2)
        build_oracle(simulator, space, sweep_trace, cache=early)
        assert early.hits == 2
        assert early.store_hits == len(sweep_trace) - 2
        assert early.store_misses == 2  # its own first call only
        assert len(_segments(root)) == 2


class TestStoreRobustness:
    def _three_segments(self, root, simulator, space, sweep_trace):
        """Build ``sweep_trace`` as three segments (2, 2 and 3 entries)."""
        cache = OracleCache(store=OracleStore(root))
        by_segment = []
        for stop in (2, 4, len(sweep_trace)):
            before = set(_segments(root))
            build_oracle(simulator, space, sweep_trace[:stop], cache=cache)
            (segment,) = set(_segments(root)) - before
            by_segment.append(segment)
        return by_segment

    def test_corrupt_segment_is_a_miss_and_heals(self, tmp_path, simulator,
                                                 space, sweep_trace):
        root = tmp_path / "store"
        first, second, third = self._three_segments(root, simulator, space,
                                                    sweep_trace)
        assert len(_segment_entries(third)) == len(sweep_trace) - 4
        first.write_bytes(b"definitely not a segment")
        second.write_bytes(second.read_bytes()[:-5])  # torn write

        healing_cache = OracleCache(store=OracleStore(root))
        table = build_oracle(simulator, space, sweep_trace,
                             cache=healing_cache)
        # Exactly the corrupt segments' entries missed and were re-swept.
        assert healing_cache.store_misses == 4
        assert healing_cache.store_hits == len(sweep_trace) - 4
        assert len(table.rows) == len(sweep_trace)
        (healed,) = set(_segments(root)) - {first, second, third}
        assert set(_segment_entries(healed)) == set(
            _keys(sweep_trace[:4]))
        # The next run hits everything.
        final_cache = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, sweep_trace, cache=final_cache)
        assert final_cache.store_hits == len(sweep_trace)
        assert final_cache.store_misses == 0

    def test_segment_whose_bytes_do_not_match_its_name_is_skipped(
            self, tmp_path, simulator, space, sweep_trace):
        """A well-formed payload under another segment's name (bit rot that
        still loads) is skipped like a torn one."""
        root = tmp_path / "store"
        first, _, _ = self._three_segments(root, simulator, space,
                                           sweep_trace)
        entries = _segment_entries(first)
        key = next(iter(entries))
        first.write_bytes(_encode_segment(
            [key], np.array([entries[key]], ORACLE_COLUMNS)))
        cache = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, sweep_trace, cache=cache)
        assert cache.store_misses == 2
        assert cache.store_hits == len(sweep_trace) - 2

    def test_version_mismatch_is_a_miss(self, tmp_path, simulator, space,
                                        sweep_trace):
        root = tmp_path / "store"
        build_oracle(simulator, space, [sweep_trace[0]],
                     cache=OracleCache(store=OracleStore(root)))
        (segment,) = _segments(root)
        payload = segment.read_bytes()
        # Another version's writer publishes under its own suffix.
        other = f".v{STORE_FORMAT_VERSION + 1}.npy"
        segment.unlink()
        (segment.parent / _content_name(payload, other)).write_bytes(payload)
        digest = persistent_table_digest(space)
        assert segment.parent.name == digest
        assert OracleStore(root).table(digest) == {}
        cache = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, [sweep_trace[0]], cache=cache)
        assert (cache.store_hits, cache.store_misses) == (0, 1)

    def test_concurrent_readers_agree(self, tmp_path, simulator, space,
                                      sweep_trace):
        store_root = tmp_path / "store"
        build_oracle(simulator, space, sweep_trace,
                     cache=OracleCache(store=OracleStore(store_root)))
        digest = persistent_table_digest(space)
        keys = _keys(sweep_trace)

        def read_all(worker: int):
            reader = OracleStore(store_root)
            table = reader.table(digest)
            return [table.get(key) for key in keys]

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8)))
        reference = results[0]
        assert all(entry is not None for entry in reference)
        for other in results[1:]:
            assert other == reference

    def test_concurrent_writers_publish_whole_segments(self, tmp_path,
                                                       platform, space,
                                                       sweep_trace):
        """Eight stores sweeping and publishing the same table at once
        leave only whole segments, no temp file, and every entry."""
        store_root = tmp_path / "store"

        def sweep(worker: int):
            simulator = SoCSimulator(platform, seed=worker)
            return build_oracle(simulator, space, sweep_trace,
                                cache=OracleCache(store=OracleStore(store_root)))

        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(sweep, range(8)))
        assert not list(store_root.glob("*/.*"))
        reader = OracleStore(store_root)
        stored = reader.table(persistent_table_digest(space))
        assert len(stored) == len(sweep_trace)
        for snippet, key in zip(sweep_trace, _keys(sweep_trace)):
            for table in tables:
                assert stored[key] == _row(table, snippet)

    def test_missing_table_is_a_miss(self, tmp_path, simulator, space,
                                     sweep_trace):
        store = OracleStore(tmp_path / "store")
        assert store.table("0" * 64) == {}
        cache = OracleCache(store=store)
        build_oracle(simulator, space, sweep_trace[:1], cache=cache)
        assert cache.store_misses == 1 and cache.store_hits == 0

    def test_unwritable_store_degrades_instead_of_raising(self, tmp_path,
                                                          simulator, space,
                                                          sweep_trace):
        """A failing store write must never abort the run that computed
        the entry — the store is an optimisation tier, not a dependency."""
        store = OracleStore(tmp_path / "store", backoff_s=0.0)
        snippet = sweep_trace[0]
        # Occupy the table's directory path with a plain file so listing
        # it, mkdir and mkstemp inside publish() raise OSError.
        blocker = store.root / persistent_table_digest(space)
        blocker.write_text("not a directory")
        cache = OracleCache(store=store)
        table = build_oracle(simulator, space, [snippet], cache=cache)
        assert snippet.name in table.rows
        assert store.write_errors == 1
        # The entry still landed in the memory tier.
        build_oracle(simulator, space, [snippet], cache=cache)
        assert (cache.hits, cache.misses) == (1, 1)


class TestStoreReadsDataOnly:
    """A segment is data: no file in a table directory can run code, and
    no segment of the pickled version-2 format is read."""

    @pytest.mark.parametrize("suffix", [SEGMENT_SUFFIX, ".pkl"])
    def test_pickle_in_table_directory_is_never_executed(
            self, tmp_path, simulator, space, sweep_trace, suffix):
        root = tmp_path / "store"
        marker = tmp_path / "marker"
        payload = pickle.dumps(_CreatesMarker(marker))
        directory = root / persistent_table_digest(space)
        directory.mkdir(parents=True)
        hostile = directory / _content_name(payload, suffix)
        hostile.write_bytes(payload)

        cache = OracleCache(store=OracleStore(root))
        table = build_oracle(simulator, space, sweep_trace, cache=cache)
        assert not marker.exists()
        # Its entries missed, were swept and published as a real segment.
        assert (cache.store_hits, cache.store_misses) == (0, len(sweep_trace))
        assert len(table.rows) == len(sweep_trace)
        (segment,) = set(_segments(root)) - {hostile}
        assert len(_segment_entries(segment)) == len(sweep_trace)

    def test_version_2_table_directory_is_ignored(self, tmp_path, simulator,
                                                  space, sweep_trace,
                                                  monkeypatch):
        """A table directory holding what older stores wrote is never
        opened: the pickled-segment store's ``{sha256}.pkl`` files of
        ``(2, {key: entry})``, and a version-3 ``.v3.npy`` segment whose
        columns still carry ``best_cost``, with a stale row for every key.
        The first run re-sweeps every row, and a warm rerun then hits
        everything."""
        import repro.core.oracle_store as store_module

        root = tmp_path / "store"
        directory = root / persistent_table_digest(space)
        directory.mkdir(parents=True)
        payload = pickle.dumps(
            (2, {_parent_key(snippet): ("stale", snippet.name)
                 for snippet in sweep_trace}),
            protocol=pickle.HIGHEST_PROTOCOL)
        (directory / _content_name(payload, ".pkl")).write_bytes(payload)
        version_3 = _version_3_segment(_keys(sweep_trace))
        (directory / _content_name(version_3, ".v3.npy")).write_bytes(
            version_3)
        read = []
        read_segment = store_module._read_segment
        monkeypatch.setattr(store_module, "_read_segment",
                            lambda path: read.append(path.name)
                            or read_segment(path))

        cold = OracleCache(store=OracleStore(root))
        table = build_oracle(simulator, space, sweep_trace, cache=cold)
        assert read == []
        assert (cold.store_hits, cold.store_misses) == (0, len(sweep_trace))
        reference = build_oracle(simulator, space, sweep_trace)
        assert table.columns.tobytes() == reference.columns.tobytes()

        warm = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, sweep_trace, cache=warm)
        assert (warm.store_hits, warm.store_misses) == (len(sweep_trace), 0)
        assert len(read) == 1 and read[0].endswith(SEGMENT_SUFFIX)

    def test_key_ending_in_nul_bytes_round_trips(self, tmp_path, simulator,
                                                 space):
        """``big_fraction`` is a key's last float; at 0.0 the key ends in
        eight NUL bytes, which a segment must keep."""
        snippets = [Snippet("little-only", index,
                            characteristics=SnippetCharacteristics(
                                big_fraction=0.0, memory_intensity=index))
                    for index in range(3)]
        keys = _keys(snippets)
        assert all(key.endswith(b"\0" * 8) for key in keys)
        root = tmp_path / "store"
        table = build_oracle(simulator, space, snippets,
                             cache=OracleCache(store=OracleStore(root)))
        stored = OracleStore(root).table(persistent_table_digest(space))
        assert stored == {key: _row(table, snippet)
                          for snippet, key in zip(snippets, keys)}
        warm = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, snippets, cache=warm)
        assert (warm.store_hits, warm.store_misses) == (3, 0)


class TestDefaultStoreAndDigests:
    def test_set_get_clear(self, tmp_path):
        assert get_default_oracle_store() is None
        installed = set_default_oracle_store(tmp_path / "store")
        assert isinstance(installed, OracleStore)
        assert get_default_oracle_store() is installed
        # A fresh cache adopts the default; an explicit store overrides it.
        assert OracleCache().store_backend is installed
        other = OracleStore(tmp_path / "other")
        assert OracleCache(store=other).store_backend is other
        assert set_default_oracle_store(None) is None
        assert get_default_oracle_store() is None
        assert OracleCache().store_backend is None

    def test_content_digest_is_stable_and_discriminating(self):
        assert content_digest(("a", 1.5)) == content_digest(("a", 1.5))
        assert content_digest(("a", 1.5)) != content_digest(("a", 1.5000001))
        assert content_digest("ab") != content_digest("a", "b")

    def test_default_space_digest_matches_space_key(self, space):
        assert default_space_digest() == content_digest(
            space.content_key(), code_fingerprint(), STORE_FORMAT_VERSION)

    def test_default_space_digest_follows_store_format_version(
            self, monkeypatch):
        """CI keys its cached store by this digest: a layout change alone
        must change the key, or CI restores files it can no longer read."""
        import repro.core.oracle_store as store_module
        before = default_space_digest()
        monkeypatch.setattr(store_module, "STORE_FORMAT_VERSION",
                            STORE_FORMAT_VERSION + 1)
        assert default_space_digest() != before

    def test_table_digest_embeds_code_fingerprint(self, space, monkeypatch):
        """Old-code stores must miss cleanly after a semantic code change."""
        import repro.core.oracle_store as store_module
        before = persistent_table_digest(space)
        monkeypatch.setattr(store_module, "_CODE_FINGERPRINT", "different-code")
        after = persistent_table_digest(space)
        assert before != after

    def test_fingerprint_covers_every_function_computing_entries(
            self, platform, simulator, space):
        """Every ``repro`` function a sweep runs lives in a file the code
        fingerprint digests, so an edit of any of them makes old stores
        miss.  Moving part of the array model into, say,
        ``repro/fleet/kernels.py`` would let such an edit serve stale
        entries, and fails here."""
        import repro
        package = Path(repro.__file__).resolve().parent
        sources = {path.resolve() for path in fingerprint_sources()}
        snippets = SnippetTraceGenerator(seed=3).generate(
            training_workloads()[0].scaled(0.2))[:5]
        gated = ConfigurationSpace(platform, allow_core_gating=True)
        ran = set()

        def record(frame, event, arg):
            if event == "call":
                ran.add(frame.f_code.co_filename)

        builds = [(sweep_space, OracleCache(store=None))
                  for sweep_space in (space, gated,
                                      space.restrict(max_opp_index=1))]
        sys.setprofile(record)
        try:
            for sweep_space, cache in builds:
                build_oracle(simulator, sweep_space, snippets)
                build_oracle(simulator, sweep_space, snippets, cache=cache)
        finally:
            sys.setprofile(None)
        files = {Path(name).resolve() for name in ran}
        in_package = {path for path in files if package in path.parents}
        assert {path.name for path in in_package} >= {"oracle.py",
                                                      "simulator.py"}
        assert in_package <= sources, sorted(
            str(path.relative_to(package)) for path in in_package - sources)


class TestSpaceKeyMemo:
    """A space is keyed by its ``content_key()``, memoised on the space: the
    table digest follows the ``content_digest`` formula, no build spells out
    a configuration, and a build keeps no space alive."""

    @pytest.fixture(scope="class")
    def long_trace(self):
        generator = SnippetTraceGenerator(seed=23)
        workloads = training_workloads()
        return generator.generate(workloads[0]) + generator.generate(workloads[1])

    def test_digest_bytes_equal_the_content_digest_formula(self, tmp_path,
                                                          platform, simulator,
                                                          long_trace):
        default = ConfigurationSpace(platform)
        throttled = default.restrict(max_opp_indices={"big": 3, "little": 2})
        gated = ConfigurationSpace(platform, allow_core_gating=True)
        assert (len(default), len(gated)) == (48, 768)
        assert 0 < len(throttled) < len(default)
        digests = set()
        for space in (default, throttled, gated):
            digest = persistent_table_digest(space)
            assert digest == content_digest(space.content_key(),
                                            code_fingerprint())
            digests.add(digest)
        assert len(digests) == 3
        # Inside a table, an entry is keyed by its snippet's content key.
        snippets = long_trace[:40]
        table = build_oracle(simulator, default, snippets,
                             cache=OracleCache(store=OracleStore(tmp_path)))
        (segment,) = _segments(tmp_path)
        assert segment.parent.name == persistent_table_digest(default)
        entries = _segment_entries(segment)
        assert len(entries) == 40
        for snippet, key in zip(snippets, _keys(snippets)):
            assert entries[key] == _row(table, snippet)

    def test_space_key_spells_out_no_configuration(self, tmp_path,
                                                   platform, simulator,
                                                   long_trace, monkeypatch):
        """The space key holds the space's settings, not its configuration
        list: neither a cold nor a warm (store-hit) build calls a
        configuration's ``repr``."""
        from repro.soc.configuration import SoCConfiguration

        calls = {"n": 0}
        original = SoCConfiguration.__repr__

        def counting_repr(config):
            calls["n"] += 1
            return original(config)

        space = ConfigurationSpace(platform)
        snippets = long_trace[:20]
        monkeypatch.setattr(SoCConfiguration, "__repr__", counting_repr)
        cold = OracleCache(store=OracleStore(tmp_path / "store"))
        build_oracle(simulator, space, snippets, cache=cold)
        assert cold.store_misses == 20
        assert calls["n"] == 0
        warm = OracleCache(store=OracleStore(tmp_path / "store"))
        build_oracle(simulator, space, snippets, cache=warm)
        assert warm.store_hits == 20
        assert calls["n"] == 0

    def test_one_segment_and_one_table_digest_per_build(
            self, tmp_path, platform, simulator, long_trace, monkeypatch):
        """A cold build of 20 snippets publishes one file and digests the
        table's name once; a warm build through a new store opens one file,
        digests the name once and creates no temp file."""
        import repro.core.oracle as oracle_module

        root = tmp_path / "store"
        counts = Counter()

        def counting(name, original, under_root=False):
            def wrapper(*args, **kwargs):
                if not under_root or str(args[0]).startswith(str(root)):
                    counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(oracle_module, "persistent_table_digest",
                            counting("table_digest",
                                     persistent_table_digest))
        monkeypatch.setattr(os, "replace", counting("replace", os.replace))
        monkeypatch.setattr(tempfile, "mkstemp",
                            counting("mkstemp", tempfile.mkstemp))
        monkeypatch.setattr(builtins, "open",
                            counting("open", builtins.open, under_root=True))
        monkeypatch.setattr(io, "open",
                            counting("open", io.open, under_root=True))

        space = ConfigurationSpace(platform)
        snippets = long_trace[:20]
        cold = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, snippets, cache=cold)
        assert cold.store_misses == 20
        assert counts == Counter(table_digest=1, replace=1, mkstemp=1)
        assert len(_segments(root)) == 1

        counts.clear()
        warm = OracleCache(store=OracleStore(root))
        build_oracle(simulator, space, snippets, cache=warm)
        assert warm.store_hits == 20
        assert counts == Counter(table_digest=1, open=1)

    def test_memo_adds_no_state_and_keeps_no_space_alive(self, tmp_path,
                                                         platform, simulator,
                                                         sweep_trace):
        import gc
        import weakref

        space = ConfigurationSpace(platform)
        attributes = set(vars(space))
        build_oracle(simulator, space, sweep_trace,
                     cache=OracleCache(store=OracleStore(tmp_path / "store")))
        assert set(vars(space)) == attributes
        alive = weakref.ref(space)
        del space
        gc.collect()
        assert alive() is None


class TestDeterminismWithStore:
    def test_framework_results_identical_with_and_without_store(self, tmp_path):
        from repro.experiments.common import build_trained_framework
        from repro.experiments.scales import TINY
        from repro.workloads.suites import unseen_workloads

        def run_once():
            framework = build_trained_framework(TINY, seed=0)
            policy = framework.build_online_il_policy(
                buffer_capacity=TINY.buffer_capacity,
                update_epochs=TINY.update_epochs,
            )
            run = framework.evaluate_policy(
                policy, unseen_workloads()[0].scaled(TINY.eval_snippet_factor)
            )
            cache = framework.oracle_cache
            return (run.total_energy_j, run.total_time_s, run.oracle_energy_j,
                    {"store_hits": cache.store_hits,
                     "store_misses": cache.store_misses})

        baseline = run_once()
        set_default_oracle_store(tmp_path / "store")
        cold_store = run_once()   # populates the store
        warm_store = run_once()   # served from the store
        set_default_oracle_store(None)

        assert baseline[:3] == cold_store[:3] == warm_store[:3]
        # The cold run wrote everything; the warm run read it back.
        assert cold_store[3]["store_hits"] == 0
        assert warm_store[3]["store_hits"] > 0
        assert warm_store[3]["store_misses"] == 0


class TestStoreRetries:
    """Bounded retry-with-jitter over transient IO failures."""

    def _store_with_table(self, tmp_path, simulator, space, sweep_trace,
                          **kwargs):
        build_oracle(simulator, space, sweep_trace[:1],
                     cache=OracleCache(store=OracleStore(tmp_path / "store")))
        return (OracleStore(tmp_path / "store", **kwargs),
                persistent_table_digest(space))

    @pytest.mark.parametrize("op", ["list", "read"])
    def test_transient_failure_heals(self, tmp_path, simulator, space,
                                     sweep_trace, op):
        failures = {"remaining": 2}

        def flaky(failing_op, path):
            if failing_op == op and failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("transient mount hiccup")

        store, _ = self._store_with_table(
            tmp_path, simulator, space, sweep_trace,
            max_retries=2, backoff_s=0.0, io_failure_hook=flaky,
        )
        cache = OracleCache(store=store)
        table = build_oracle(simulator, space, sweep_trace[:1], cache=cache)
        assert sweep_trace[0].name in table.rows
        assert store.retries == 2
        assert cache.store_hits == 1 and cache.store_misses == 0

    @pytest.mark.parametrize("op", ["list", "read"])
    def test_exhausted_retries_degrade_to_miss(self, tmp_path, simulator,
                                               space, sweep_trace, op):
        def always_fail(failing_op, path):
            if failing_op == op:
                raise OSError("persistent failure")

        store, digest = self._store_with_table(
            tmp_path, simulator, space, sweep_trace,
            max_retries=2, backoff_s=0.0, io_failure_hook=always_fail,
        )
        assert store.table(digest) == {}
        assert store.retries == 2  # bounded: never spins forever
        cache = OracleCache(store=store)
        build_oracle(simulator, space, sweep_trace[:1], cache=cache)
        assert cache.store_misses == 1 and cache.store_hits == 0

    def test_exhausted_write_retries_degrade_to_memory_only(self, tmp_path,
                                                            simulator, space,
                                                            sweep_trace):
        def always_fail(op, path):
            raise OSError("read-only filesystem")

        store, digest = self._store_with_table(
            tmp_path, simulator, space, sweep_trace,
            max_retries=1, backoff_s=0.0, io_failure_hook=always_fail,
        )
        entries = OracleStore(tmp_path / "store").table(digest)
        assert store.publish(digest, list(entries),
                             np.array(list(entries.values()),
                                      ORACLE_COLUMNS)) is False
        assert store.write_errors == 1
        assert store.retries == 1
        assert len(_segments(tmp_path / "store")) == 1

    def test_missing_table_is_a_clean_miss_without_retry(self, tmp_path,
                                                         simulator, space,
                                                         sweep_trace):
        store = OracleStore(tmp_path / "store", max_retries=3)
        assert store.table("0" * 64) == {}
        cache = OracleCache(store=store)
        build_oracle(simulator, space, sweep_trace[:1], cache=cache)
        assert store.retries == 0  # FileNotFoundError never retries
        assert cache.store_misses == 1

    def test_segment_removed_after_listing_is_a_miss_without_retry(
            self, tmp_path, simulator, space, sweep_trace):
        def remove_first(op, path):
            if op == "read":
                path.unlink()

        store, digest = self._store_with_table(
            tmp_path, simulator, space, sweep_trace,
            max_retries=3, backoff_s=0.0, io_failure_hook=remove_first,
        )
        assert store.table(digest) == {}
        assert store.retries == 0

    def test_backoff_jitter_is_seeded(self, tmp_path):
        left = OracleStore(tmp_path / "a", backoff_s=0.01, jitter_seed=42)
        right = OracleStore(tmp_path / "b", backoff_s=0.01, jitter_seed=42)
        other = OracleStore(tmp_path / "c", backoff_s=0.01, jitter_seed=43)
        left_delays = [left._backoff_delay(i) for i in (1, 2, 3)]
        right_delays = [right._backoff_delay(i) for i in (1, 2, 3)]
        other_delays = [other._backoff_delay(i) for i in (1, 2, 3)]
        assert left_delays == right_delays
        assert left_delays != other_delays
        # Exponential envelope with jitter in [0.5, 1.5).
        for attempt, delay in zip((1, 2, 3), left_delays):
            base = 0.01 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_store_retries_surface_in_cache_stats(self, tmp_path, simulator,
                                                  space, sweep_trace):
        from repro.core.oracle import cache_stats_snapshot

        def flaky_once(op, path):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                raise OSError("hiccup")

        failures = {"remaining": 1}
        store, digest = self._store_with_table(
            tmp_path, simulator, space, sweep_trace,
            max_retries=1, backoff_s=0.0, io_failure_hook=flaky_once,
        )
        before = cache_stats_snapshot()["store_retries"]
        assert store.table(digest) != {}
        after = cache_stats_snapshot()["store_retries"]
        assert after - before == 1

    def test_invalid_retry_parameters_raise(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            OracleStore(tmp_path / "store", max_retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            OracleStore(tmp_path / "store", backoff_s=-0.1)
