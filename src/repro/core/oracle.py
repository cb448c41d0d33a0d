"""Oracle policy construction (Sec. IV-A1).

"Each snippet in the set of target applications is executed at each
configuration supported by the SoC ... these system states and power
consumption measurements are used to construct Oracle policies which optimise
different objectives."

The :class:`OraclePolicy` here does exactly that against the SoC simulator:
for every snippet it sweeps the full configuration space (noise free) and
records the configuration minimising the objective.  The resulting
:class:`OracleTable` is the ground truth used (a) to normalise policy energy
(Table II, Fig. 4), (b) to measure decision accuracy (Fig. 3), and (c) to
label the offline IL training data.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.objectives import ENERGY, Objective
from repro.core.oracle_store import (
    OracleStore,
    code_fingerprint,
    content_digest,
    get_default_oracle_store,
    store_stats_snapshot,
)
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult, SoCSimulator
from repro.soc.snippet import Snippet


@dataclass
class OracleEntry:
    """Best configuration and cost for one snippet."""

    snippet_name: str
    best_configuration: SoCConfiguration
    best_cost: float
    best_result: SnippetResult


@dataclass
class OracleTable:
    """Mapping from snippet name to its Oracle entry."""

    objective_name: str
    entries: Dict[str, OracleEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, snippet_name: str) -> bool:
        return snippet_name in self.entries

    def entry(self, snippet: Snippet) -> OracleEntry:
        if snippet.name not in self.entries:
            raise KeyError(f"snippet {snippet.name!r} not in Oracle table")
        return self.entries[snippet.name]

    def best_configuration(self, snippet: Snippet) -> SoCConfiguration:
        return self.entry(snippet).best_configuration


class OraclePolicy(DRMPolicy):
    """Policy that plays back the per-snippet optimal configurations.

    Unlike a deployable policy, the Oracle is told which snippet is about to
    execute (via :meth:`prepare_for`) — it has perfect knowledge by
    construction.  The framework runner handles this automatically.
    """

    def __init__(self, space: ConfigurationSpace, table: OracleTable) -> None:
        super().__init__(space)
        self.table = table
        self._next_snippet: Optional[Snippet] = None

    def prepare_for(self, snippet: Snippet) -> None:
        """Tell the Oracle which snippet the next decision is for."""
        self._next_snippet = snippet

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if self._next_snippet is None:
            return self.current
        self.current = self.table.best_configuration(self._next_snippet)
        return self.current


#: Cache key types (content-derived, never identity-derived).
SnippetKey = Tuple[str, int, float, Tuple[Tuple[str, float], ...]]

#: Key text of every live configuration space, keyed weakly by the space
#: object: the memo neither keeps a space alive nor rides along when one is
#: pickled (snapshots, rotations and shard bundles stay the same size).
_SPACE_KEY_TEXT: weakref.WeakKeyDictionary[ConfigurationSpace, str] = (
    weakref.WeakKeyDictionary()
)


def snippet_cache_key(snippet: Snippet) -> SnippetKey:
    """Content key for a snippet (two equal snippets share Oracle entries)."""
    return (
        snippet.application,
        snippet.index,
        snippet.n_instructions,
        tuple(sorted(snippet.characteristics.as_dict().items())),
    )


def space_cache_key(space: ConfigurationSpace) -> str:
    """Content key text of a configuration space: ``repr(space.cache_key())``.

    The key (platform parameters plus the exact configuration list) is
    several kB of text for a 48-configuration space, and a frozen-dataclass
    tuple re-hashes on every dict lookup, so the text is computed once per
    space object and held in a weak memo.  ``cache_key()`` itself memoizes,
    so a space's key never changes once computed and neither can the text.
    """
    text = _SPACE_KEY_TEXT.get(space)
    if text is None:
        text = repr(space.cache_key())
        _SPACE_KEY_TEXT[space] = text
    return text


def objective_cache_key(objective: Objective) -> Tuple[str, object]:
    """Key for an objective: its name plus the cost callable itself, so a
    custom objective reusing a built-in name never shares entries with it."""
    return (objective.name, objective.cost)


def _state_repr(value) -> str:
    """Content-faithful repr of digest material.

    ``repr`` of a large ndarray truncates (``...``), which could alias two
    different captured arrays; digest the full buffer instead.  Everything
    else uses plain ``repr`` — identity-based reprs digest uniquely per
    object, so such state never falsely *hits* the store (it merely never
    shares a table, the safe direction).
    """
    if isinstance(value, np.ndarray):
        return content_digest(str(value.dtype), value.shape, value.tobytes())
    return repr(value)


def _states_repr(values) -> Tuple[str, ...]:
    if values is None:
        return ()
    return tuple(_state_repr(value) for value in values)


def persistent_objective_key(objective: Objective) -> Tuple:
    """Cross-process content key for an objective.

    The in-memory key uses the cost callable's identity, which does not
    survive pickling to another process.  For the on-disk store the cost
    function is identified by where it lives plus a digest of its bytecode,
    default arguments and closure-cell values, so a custom objective
    reusing a built-in name still gets its own tables, an edited cost
    function invalidates old ones, and two parameterised closures over
    different values (same bytecode, different cells) never alias.
    """
    cost = objective.cost
    code = getattr(cost, "__code__", None)
    if code is not None:
        closure = getattr(cost, "__closure__", None)
        cells = (tuple(_state_repr(cell.cell_contents) for cell in closure)
                 if closure else ())
        code_digest = content_digest(
            code.co_code,
            repr(code.co_consts),
            _states_repr(getattr(cost, "__defaults__", None)),
            repr(getattr(cost, "__kwdefaults__", None)),
            cells,
        )
    else:
        # Callable object (class instance, functools.partial, ...): no
        # bytecode to identify it by, so digest the instance state and the
        # object's repr.  A default (identity-based) repr makes the digest
        # unique per object — such costs never alias a stored table, they
        # just never share one either, which is the safe direction.
        state = getattr(cost, "__dict__", None)
        state_repr = (repr({key: _state_repr(value)
                            for key, value in sorted(state.items())})
                      if isinstance(state, dict) else repr(state))
        code_digest = content_digest(
            type(cost).__module__,
            type(cost).__qualname__,
            state_repr,
            repr(cost),
        )
    return (
        objective.name,
        getattr(cost, "__module__", ""),
        getattr(cost, "__qualname__", type(cost).__qualname__),
        code_digest,
    )


def persistent_table_digest(space: ConfigurationSpace,
                            objective: Objective) -> str:
    """Store name of the Oracle table for ``(space, objective)``.

    Includes the :func:`~repro.core.oracle_store.code_fingerprint` of the
    modules the entries' semantics depend on, so a store written by older
    simulator/Oracle code cleanly misses instead of serving stale results.
    SHA-256 is fed exactly the bytes of ``content_digest(space.cache_key(),
    persistent_objective_key(objective), code_fingerprint())``, with the
    space's ``repr`` taken from :func:`space_cache_key`'s memo.
    """
    hasher = hashlib.sha256()
    for text in (space_cache_key(space),
                 repr(persistent_objective_key(objective)),
                 repr(code_fingerprint())):
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


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
    """Memo of Oracle entries keyed by (snippet, space, objective).

    Oracle construction is deterministic (noise-free), so an entry computed
    once for a snippet is valid for every later sweep over the same space
    and objective.  The framework attaches one cache per simulator instance;
    ``train_offline``, ``_bootstrap_models`` and
    ``evaluate_policy_on_snippets`` then stop re-sweeping snippets they have
    already solved.  Keys are derived from content, never object identity,
    so regenerated-but-identical snippets still hit.  The space part of a
    key is its :func:`space_cache_key` text, whose hash Python caches,
    rather than the tuple of configuration dataclasses it spells out, which
    would re-hash on every lookup.

    An optional :class:`~repro.core.oracle_store.OracleStore` layers a
    persistent, cross-process tier underneath: a :func:`build_oracle` call
    whose snippets miss memory consults the store's table for its space and
    objective once, and publishes the entries it swept as one segment of
    that table when it ends, so worker processes and later CLI invocations
    skip sweeps any process has ever completed.  ``store=None`` (the
    default) adopts the process-wide default store, if one is installed.
    """

    def __init__(self, store: Optional[OracleStore] = None) -> None:
        self._entries: Dict[Tuple, OracleEntry] = {}
        self.store_backend = (store if store is not None
                              else get_default_oracle_store())
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, counter: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        _GLOBAL_CACHE_STATS[counter] += 1

    def _build(self, simulator: SoCSimulator, space: ConfigurationSpace,
               snippets: Iterable[Snippet],
               objective: Objective) -> OracleTable:
        """:func:`build_oracle` through this cache.

        Each snippet's content key is looked up in memory, then in the
        store's table (fetched on the first memory miss of the call).  The
        first occurrence of every key that misses both is swept, all of
        them in the passes of one :func:`_sweep`.  A key's first lookup in
        the call counts one memory hit or miss, and each memory miss one
        store hit or miss; a repeat of a key within the call counts a
        memory hit and shares the first occurrence's entry.  The swept
        entries are published to the store as one segment when the call
        ends.
        """
        space_text = space_cache_key(space)
        objective_key = objective_cache_key(objective)
        table_digest: Optional[str] = None
        stored: Dict[SnippetKey, OracleEntry] = {}
        order: List[Tuple[str, SnippetKey]] = []
        found: Dict[SnippetKey, Optional[OracleEntry]] = {}
        fetched: List[SnippetKey] = []
        missing: Dict[SnippetKey, Snippet] = {}
        for snippet in snippets:
            snippet_key = snippet_cache_key(snippet)
            order.append((snippet.name, snippet_key))
            if snippet_key in found:
                self._count("hits")
                continue
            entry = self._entries.get((snippet_key, space_text, objective_key))
            if entry is not None:
                self._count("hits")
            else:
                self._count("misses")
                fetched.append(snippet_key)
                if self.store_backend is not None:
                    if table_digest is None:
                        table_digest = persistent_table_digest(space,
                                                               objective)
                        stored = self.store_backend.table(table_digest)
                    entry = stored.get(snippet_key)
                    self._count("store_misses" if entry is None
                                else "store_hits")
                if entry is None:
                    missing[snippet_key] = snippet
            found[snippet_key] = entry
        swept = dict(zip(missing, _sweep(simulator, space,
                                         list(missing.values()), objective)))
        found.update(swept)
        for snippet_key in fetched:
            self._entries[(snippet_key, space_text, objective_key)] = (
                found[snippet_key])
        table = OracleTable(objective_name=objective.name)
        for name, snippet_key in order:
            table.entries[name] = found[snippet_key]
        if swept and table_digest is not None:
            self.store_backend.publish(table_digest, swept)
        return table


#: Most (snippet, configuration) pairs one array pass of an Oracle sweep
#: evaluates.  A pass's working set is about twenty float arrays of this
#: many elements (128 KiB each), so the cap bounds the sweep's memory; the
#: sweep's time per pair is flat from a few thousand pairs a pass upwards,
#: where NumPy's per-call overhead is spread over enough elements.
SWEEP_PASS_PAIRS = 1 << 14


def _sweep(simulator: SoCSimulator, space: ConfigurationSpace,
           snippets: List[Snippet], objective: Objective) -> List[OracleEntry]:
    """The Oracle entry of every snippet, in order.

    Consecutive snippets are swept over the space in passes of at most
    :data:`SWEEP_PASS_PAIRS` pairs, one
    :meth:`~repro.soc.simulator.SoCSimulator.evaluate_expected_batch` call
    each.  One row-wise ``np.argmin`` over the objective's cost picks each
    snippet's first minimum, matching the per-configuration loop's strict
    ``cost < best_cost`` tie-breaking, and only those best results are
    materialised.
    """
    per_pass = max(1, SWEEP_PASS_PAIRS // max(1, len(space)))
    entries: List[OracleEntry] = []
    for start in range(0, len(snippets), per_pass):
        batch = simulator.evaluate_expected_batch(
            snippets[start:start + per_pass], space)
        costs = objective.batch_cost(batch)
        best = np.argmin(costs, axis=1)
        best_costs = costs[np.arange(len(best)), best].tolist()
        for result, cost in zip(batch.take(best).lane_results(), best_costs):
            entries.append(OracleEntry(
                snippet_name=result.snippet.name,
                best_configuration=result.configuration,
                best_cost=cost,
                best_result=result,
            ))
    return entries


def build_oracle(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: Iterable[Snippet],
    objective: Objective = ENERGY,
    cache: Optional[OracleCache] = None,
) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``.

    Every snippet is evaluated (noise-free) at every configuration of the
    space; the minimising configuration is stored.  The sweep scales as
    ``len(snippets) * len(space)`` — this is exactly the "high computational
    complexity" that makes Oracle construction impossible at runtime on real
    hardware, so the snippets are swept together, in array passes of the
    simulator's ``evaluate_expected_batch`` (see :func:`_sweep`).  The
    per-configuration loop it replaced lives in
    ``tests/scalar_reference/oracle_loop.py``, where the tests and the sweep
    benchmark check that both build bitwise-identical tables.
    Passing an :class:`OracleCache` skips snippets whose entries were
    already computed for this space/objective, in memory or in its store,
    and sweeps each content key once per call.
    """
    if cache is not None:
        return cache._build(simulator, space, snippets, objective)
    snippets = list(snippets)
    table = OracleTable(objective_name=objective.name)
    for snippet, entry in zip(snippets, _sweep(simulator, space, snippets,
                                               objective)):
        table.entries[snippet.name] = entry
    return table
