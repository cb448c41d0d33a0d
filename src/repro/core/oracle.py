"""Oracle policy construction (Sec. IV-A1).

"Each snippet in the set of target applications is executed at each
configuration supported by the SoC ... these system states and power
consumption measurements are used to construct Oracle policies [...]."

:func:`build_oracle` does that against the SoC simulator: for every
snippet it sweeps the full configuration space (noise free) and records the
configuration minimising energy, the cost the paper's evaluations compare
policies by.  The resulting :class:`OracleTable` is the ground truth used
(a) to normalise policy energy (Table II, Fig. 4), (b) to measure decision
accuracy (Fig. 3), and (c) to label the offline IL training data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.oracle_store import (
    ORACLE_COLUMNS,
    OracleStore,
    code_fingerprint,
    content_digest,
    get_default_oracle_store,
    store_stats_snapshot,
)
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.simulator import (SnippetResult, SoCSimulator,
                                 characteristics_matrix)
from repro.soc.snippet import Snippet

#: The cost every Oracle table minimises: total energy, which Table II and
#: Fig. 4 normalise policies to.
ENERGY = "energy"


@dataclass(eq=False)
class OracleTable:
    """Snippet name -> row of :attr:`columns`
    (:data:`~repro.core.oracle_store.ORACLE_COLUMNS`; ``best_index``
    indexes :attr:`space`)."""

    space: ConfigurationSpace
    rows: Dict[Hashable, int]
    columns: np.ndarray

    def best_configuration(self, snippet: Snippet) -> SoCConfiguration:
        row = self.rows[snippet.name]
        return self.space[int(self.columns["best_index"][row])]


def content_keys(snippets: Sequence[Snippet],
                 matrix: np.ndarray) -> List[bytes]:
    """Content key of every snippet (two equal snippets share Oracle rows).

    ``matrix`` holds the snippets'
    :func:`~repro.soc.simulator.characteristics_matrix` rows.  A key is the
    application name in UTF-8, then one fixed-length float64 row: the
    index and the snippet's ``matrix`` row.  ``-0.0`` is stored as ``0.0``,
    and ``1`` and ``1.0`` alike.
    """
    matrix = np.column_stack([[snippet.index for snippet in snippets],
                              matrix]) + 0.0
    rows = matrix.view(f"V{matrix.itemsize * matrix.shape[1]}").ravel()
    return [snippet.application.encode("utf-8") + row
            for snippet, row in zip(snippets, rows.tolist())]


def persistent_table_digest(space: ConfigurationSpace) -> str:
    """Store name of the Oracle table for ``space``.

    Includes the :func:`~repro.core.oracle_store.code_fingerprint` of the
    modules the entries' semantics depend on, so a store written by older
    simulator/Oracle code cleanly misses instead of serving stale results.
    The name is ``content_digest(space.content_key(), code_fingerprint())``.
    """
    return content_digest(space.content_key(), code_fingerprint())


#: Process-wide cache-activity counters aggregated over every OracleCache
#: instance; the experiment runner snapshots them around each seed run to
#: surface hit/miss counts in the run metadata.
_GLOBAL_CACHE_STATS = {
    "hits": 0,
    "misses": 0,
    "store_hits": 0,
    "store_misses": 0,
}


def cache_stats_snapshot() -> Dict[str, int]:
    """Copy of the process-wide OracleCache activity counters.

    Includes the store tier's transient-IO ``store_retries`` counter, so
    the runner's per-seed metadata deltas surface retry storms next to
    the hit/miss numbers.
    """
    out = dict(_GLOBAL_CACHE_STATS)
    out.update(store_stats_snapshot())
    return out


class OracleCache:
    """Memo of Oracle rows keyed by (snippet, space).

    Oracle construction is deterministic (noise-free), so a row computed
    once for a snippet is valid for every later sweep over the same space.
    The framework attaches one cache per simulator instance, so its later
    builds stop re-sweeping snippets already solved.  The cache keeps one
    :class:`OracleTable` per space, keyed by :func:`content_keys` rather
    than names, so regenerated-but-identical snippets still hit.  A space
    is keyed by its
    :meth:`~repro.soc.configuration.ConfigurationSpace.content_key`, so
    equal-content spaces share tables.

    An optional :class:`~repro.core.oracle_store.OracleStore` layers a
    persistent, cross-process tier underneath: a :func:`build_oracle` call
    whose snippets miss memory consults the store's table for its space
    once, and publishes the rows it swept as one segment of that table
    when it ends, so worker processes and later CLI invocations skip
    sweeps any process has ever completed.  ``store=None`` (the default)
    adopts the process-wide default store, if one is installed.
    """

    def __init__(self, store: Optional[OracleStore] = None) -> None:
        self._tables: Dict[Tuple, OracleTable] = {}
        self.store_backend = (store if store is not None
                              else get_default_oracle_store())
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0

    def __len__(self) -> int:
        return sum(len(table.rows) for table in self._tables.values())

    def _count(self, **counts: int) -> None:
        for counter, n in counts.items():
            setattr(self, counter, getattr(self, counter) + n)
            _GLOBAL_CACHE_STATS[counter] += n

    def _build(self, simulator: SoCSimulator, space: ConfigurationSpace,
               snippets: Iterable[Snippet]) -> OracleTable:
        """:func:`build_oracle` through this cache.

        Each snippet's content key is looked up in memory, then in the
        store's table (fetched on the first memory miss of the call).  The
        first occurrence of every key that misses both is swept, all in one
        :func:`_sweep`.  A key's first lookup in the call counts one memory
        hit or miss, and each memory miss one store hit or miss; a repeat of
        a key within the call counts a memory hit.  The swept rows are
        published to the store as one segment when the call ends.
        """
        snippets = list(snippets)
        matrix = characteristics_matrix(snippets)
        keys = content_keys(snippets, matrix)
        memo = self._tables.setdefault(
            space.content_key(),
            OracleTable(space, {}, np.empty(0, ORACLE_COLUMNS)))
        known = memo.rows
        table_digest: Optional[str] = None
        stored: Dict[bytes, Tuple] = {}
        fetched: Dict[bytes, Tuple] = {}
        missing: Dict[bytes, int] = {}  # key -> its first row in snippets
        hits = 0
        for row, key in enumerate(keys):
            if key in known or key in fetched or key in missing:
                hits += 1
                continue
            if self.store_backend is not None:
                if table_digest is None:
                    table_digest = persistent_table_digest(space)
                    stored = self.store_backend.table(table_digest)
                entry = stored.get(key)
                if entry is not None:
                    fetched[key] = entry
                    continue
            missing[key] = row
        new = [*fetched, *missing]
        self._count(hits=hits, misses=len(new))
        if self.store_backend is not None:
            self._count(store_hits=len(fetched), store_misses=len(missing))
        rows = list(missing.values())
        swept = _sweep(simulator, space, [snippets[row] for row in rows],
                       matrix[rows])
        if missing and table_digest is not None:
            self.store_backend.publish(table_digest, list(missing), swept)
        if new:
            known.update(zip(new, range(len(memo.columns),
                                        len(memo.columns) + len(new))))
            memo.columns = np.concatenate([
                memo.columns,
                np.array(list(fetched.values()), ORACLE_COLUMNS), swept])
        return OracleTable(
            space, {snippet.name: i for i, snippet in enumerate(snippets)},
            memo.columns[[known[key] for key in keys]])


#: Most (snippet, configuration) pairs one array pass of an Oracle sweep
#: evaluates.  A pass's working set is about twenty float arrays of this
#: many elements (128 KiB each), so the cap bounds the sweep's memory; the
#: sweep's time per pair is flat from a few thousand pairs a pass upwards,
#: where NumPy's per-call overhead is spread over enough elements.
SWEEP_PASS_PAIRS = 1 << 14


def _sweep(simulator: SoCSimulator, space: ConfigurationSpace,
           snippets: List[Snippet], matrix: np.ndarray) -> np.ndarray:
    """The :data:`~repro.core.oracle_store.ORACLE_COLUMNS` of every snippet.

    ``matrix`` holds the snippets'
    :func:`~repro.soc.simulator.characteristics_matrix` rows.  Consecutive
    snippets are swept over the space in passes of at most
    :data:`SWEEP_PASS_PAIRS` pairs, one
    :meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_batch` call
    each.  One row-wise ``np.argmin`` over the pass's energy picks each
    snippet's first minimum, matching the per-configuration loop's strict
    ``energy < best_energy`` tie-breaking, and the energy and time of
    those pairs are gathered from the pass's arrays.
    """
    per_pass = max(1, SWEEP_PASS_PAIRS // max(1, len(space)))
    columns = np.empty(len(snippets), ORACLE_COLUMNS)
    for start in range(0, len(snippets), per_pass):
        batch = simulator.evaluate_expected_batch(
            snippets[start:start + per_pass], space,
            matrix[start:start + per_pass])
        best = np.argmin(batch.energy_j, axis=1)
        pairs = (np.arange(len(best)), best)
        out = columns[start:start + len(best)]
        out["best_index"] = best
        out["energy_j"] = batch.energy_j[pairs]
        out["time_s"] = batch.execution_time_s[pairs]
    return columns


def build_oracle(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: Iterable[Snippet],
    cache: Optional[OracleCache] = None,
) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``.

    Every snippet is evaluated (noise-free) at every configuration of the
    space; the energy-minimising configuration is stored.  The sweep scales as
    ``len(snippets) * len(space)`` — this is exactly the "high computational
    complexity" that makes Oracle construction impossible at runtime on real
    hardware, so the snippets are swept together, in array passes of the
    simulator's ``evaluate_expected_batch`` (see :func:`_sweep`).  The
    per-configuration loop it replaced lives in
    ``tests/scalar_reference/oracle_loop.py``, where the tests and the sweep
    benchmark check that both build bitwise-identical columns.
    Passing an :class:`OracleCache` skips snippets whose rows were
    already computed for this space, in memory or in its store, and sweeps
    each content key once per call.
    """
    if cache is not None:
        return cache._build(simulator, space, snippets)
    snippets = list(snippets)
    return OracleTable(space,
                       {snippet.name: i for i, snippet in enumerate(snippets)},
                       _sweep(simulator, space, snippets,
                              characteristics_matrix(snippets)))


def oracle_results(simulator: SoCSimulator, table: OracleTable,
                   snippets: Sequence[Snippet],
                   noise: np.ndarray) -> List[SnippetResult]:
    """Each snippet executed at its Oracle configuration: one lane per
    snippet in one
    :meth:`~repro.soc.simulator.SoCSimulator.execute_in_space` call, on
    the array model the sweep ran.  ``noise`` holds one
    :meth:`~repro.soc.simulator.SoCSimulator.draw_noise` row per snippet;
    rows of ones give the noise-free results, bitwise the sweep's."""
    best = table.columns["best_index"][[table.rows[snippet.name]
                                        for snippet in snippets]]
    return simulator.execute_in_space(snippets, table.space, best, noise)
