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

    def total_cost(self, snippets: Iterable[Snippet]) -> float:
        return sum(self.entry(s).best_cost for s in snippets)

    def storage_bytes(self, bytes_per_entry: int = 64) -> int:
        """Rough storage footprint — the reason Oracles cannot ship in firmware."""
        return len(self.entries) * bytes_per_entry


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
    shares shards, the safe direction).
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
    reusing a built-in name still gets its own shards, an edited cost
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
        # unique per object — such costs never alias a stored shard, they
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


def persistent_entry_digest(snippet: Snippet, space: ConfigurationSpace,
                            objective: Objective) -> str:
    """Shard digest for one (snippet, space, objective) Oracle entry.

    Includes the :func:`~repro.core.oracle_store.code_fingerprint` of the
    modules the entry's semantics depend on, so a store written by older
    simulator/Oracle code cleanly misses instead of serving stale results.
    SHA-256 is fed exactly the bytes of ``content_digest(snippet_cache_key,
    space.cache_key(), persistent_objective_key, code_fingerprint())``, with
    the space's ``repr`` taken from :func:`space_cache_key`'s memo.
    """
    hasher = hashlib.sha256()
    for text in (repr(snippet_cache_key(snippet)),
                 space_cache_key(space),
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
    persistent, cross-process tier underneath: in-memory misses fall
    through to the store, and freshly computed entries are written through
    to it, so worker processes and later CLI invocations skip sweeps any
    process has ever completed.  ``store=None`` (the default) adopts the
    process-wide default store, if one is installed.
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

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, int]:
        """This cache's hit/miss counters (memory tier and store tier)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
        }

    def lookup(self, snippet: Snippet, space: ConfigurationSpace,
               objective: Objective) -> Optional[OracleEntry]:
        key = (snippet_cache_key(snippet), space_cache_key(space),
               objective_cache_key(objective))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            _GLOBAL_CACHE_STATS["hits"] += 1
            return entry
        self.misses += 1
        _GLOBAL_CACHE_STATS["misses"] += 1
        if self.store_backend is not None:
            stored = self.store_backend.get(
                persistent_entry_digest(snippet, space, objective)
            )
            if stored is not None:
                self._entries[key] = stored
                self.store_hits += 1
                _GLOBAL_CACHE_STATS["store_hits"] += 1
                return stored
            self.store_misses += 1
            _GLOBAL_CACHE_STATS["store_misses"] += 1
        return None

    def store(self, snippet: Snippet, space: ConfigurationSpace,
              objective: Objective, entry: OracleEntry) -> OracleEntry:
        key = (snippet_cache_key(snippet), space_cache_key(space),
               objective_cache_key(objective))
        self._entries[key] = entry
        if self.store_backend is not None:
            self.store_backend.put(
                persistent_entry_digest(snippet, space, objective), entry
            )
        return entry

    def invalidate_snippet(self, snippet: Snippet) -> int:
        """Drop every entry for ``snippet`` (all spaces/objectives); return count."""
        target = snippet_cache_key(snippet)
        stale = [key for key in self._entries if key[0] == target]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0


def _best_entry(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippet: Snippet,
    objective: Objective,
    use_batch: bool,
) -> OracleEntry:
    """Sweep one snippet over the space and return its minimising entry."""
    if use_batch and hasattr(simulator, "evaluate_expected_batch"):
        batch = simulator.evaluate_expected_batch(snippet, space)
        costs = objective.batch_cost(batch)
        # np.argmin returns the first minimum, matching the scalar loop's
        # strict `cost < best_cost` tie-breaking.
        best_index = int(np.argmin(costs))
        return OracleEntry(
            snippet_name=snippet.name,
            best_configuration=batch.configurations[best_index],
            best_cost=float(costs[best_index]),
            best_result=batch.result_at(best_index),
        )
    best_config: Optional[SoCConfiguration] = None
    best_cost = float("inf")
    best_result: Optional[SnippetResult] = None
    for config in space:
        result = simulator.evaluate_expected(snippet, config)
        cost = objective(result)
        if cost < best_cost:
            best_cost = cost
            best_config = config
            best_result = result
    assert best_config is not None and best_result is not None
    return OracleEntry(
        snippet_name=snippet.name,
        best_configuration=best_config,
        best_cost=best_cost,
        best_result=best_result,
    )


def build_oracle(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: Iterable[Snippet],
    objective: Objective = ENERGY,
    cache: Optional[OracleCache] = None,
    use_batch: bool = True,
) -> OracleTable:
    """Exhaustively construct the Oracle table for ``snippets``.

    Every snippet is evaluated (noise-free) at every configuration of the
    space; the minimising configuration is stored.  The sweep scales as
    ``len(snippets) * len(space)`` — this is exactly the "high computational
    complexity" that makes Oracle construction impossible at runtime on real
    hardware, so the sweep runs through the simulator's vectorized
    ``evaluate_expected_batch`` engine method whenever available
    (``use_batch=False`` forces the scalar reference loop; both produce
    bitwise-identical tables).  Passing an :class:`OracleCache` skips
    snippets whose entries were already computed for this space/objective.
    """
    table = OracleTable(objective_name=objective.name)
    for snippet in snippets:
        entry = (cache.lookup(snippet, space, objective)
                 if cache is not None else None)
        if entry is None:
            entry = _best_entry(simulator, space, snippet, objective, use_batch)
            if cache is not None:
                cache.store(snippet, space, objective, entry)
        table.entries[snippet.name] = entry
    return table


def oracle_energy_for(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: List[Snippet],
    objective: Objective = ENERGY,
    table: Optional[OracleTable] = None,
) -> float:
    """Total objective cost achieved by the Oracle over ``snippets``."""
    oracle_table = table or build_oracle(simulator, space, snippets, objective)
    return oracle_table.total_cost(snippets)
