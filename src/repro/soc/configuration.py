"""SoC configurations and the discrete configuration space.

A configuration is the tuple of control-knob settings the DRM policy can
choose at each decision epoch: the OPP index of each DVFS domain and the
number of active cores per cluster.  The :class:`ConfigurationSpace`
enumerates all valid configurations of a platform (the Oracle sweeps them
exhaustively) and provides neighbourhood queries used by the online-IL
runtime Oracle and the RL action space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.platform import PlatformSpec


@dataclass(frozen=True)
class ClusterArrays:
    """Struct-of-arrays view of one cluster across every configuration.

    Each array has one element per configuration, in enumeration order.
    ``voltage_v``/``frequency_ghz`` are the per-OPP values gathered through
    ``opp_index``; the per-OPP source tables are built with the same
    Python-scalar arithmetic as the object-level accessors, so the gathered
    values are bitwise identical to what ``spec.opps[config.opp_index(name)]``
    would yield per configuration.
    """

    opp_index: np.ndarray      # (n,) intp
    active_cores: np.ndarray   # (n,) intp
    cores_f: np.ndarray        # (n,) float64 view of active_cores
    voltage_v: np.ndarray      # (n,) float64
    frequency_ghz: np.ndarray  # (n,) float64


@dataclass(frozen=True)
class SpaceArrays:
    """Struct-of-arrays view over a set of configurations.

    Either the whole space (:meth:`ConfigurationSpace.soa_view`) or one
    memoised candidate neighbourhood
    (:meth:`ConfigurationSpace.neighborhood_view`).  The space's view is
    the one array form of its knobs: the Oracle sweep and the fleet's
    lockstep step read their ``opp_index``/``active_cores`` from it, and
    the vectorized online decision loop its candidate columns, so no
    per-step path touches :class:`SoCConfiguration` objects.
    """

    cluster_order: Tuple[str, ...]
    clusters: Dict[str, ClusterArrays]

    def cluster(self, name: str) -> ClusterArrays:
        return self.clusters[name]

    def gather(self, indices: np.ndarray) -> "SpaceArrays":
        """Row subset of this view (arrays gathered at ``indices``)."""
        clusters = {
            name: ClusterArrays(
                opp_index=arrays.opp_index[indices],
                active_cores=arrays.active_cores[indices],
                cores_f=arrays.cores_f[indices],
                voltage_v=arrays.voltage_v[indices],
                frequency_ghz=arrays.frequency_ghz[indices],
            )
            for name, arrays in self.clusters.items()
        }
        return SpaceArrays(cluster_order=self.cluster_order, clusters=clusters)


@dataclass(frozen=True)
class NeighborhoodView:
    """Memoised candidate neighbourhood: index table plus gathered arrays.

    ``indices`` are configuration indices into the owning space (in
    neighbourhood enumeration order — the order the scalar reference sweeps
    candidates in); ``arrays`` holds the struct-of-arrays rows of exactly
    those candidates, pre-gathered once so the per-step decision path does
    no indexing work at all.
    """

    indices: np.ndarray
    arrays: SpaceArrays

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class SoCConfiguration:
    """One point in the SoC control space.

    ``opp_indices`` maps cluster name to the OPP (frequency) index and
    ``active_cores`` maps cluster name to the number of powered-on cores.
    Instances are immutable and hashable so they can be used as dict keys in
    Oracle tables and Q-tables.
    """

    opp_indices: Tuple[Tuple[str, int], ...]
    active_cores: Tuple[Tuple[str, int], ...]

    @classmethod
    def from_dicts(cls, opp_indices: Dict[str, int],
                   active_cores: Dict[str, int]) -> "SoCConfiguration":
        return cls(
            opp_indices=tuple(sorted(opp_indices.items())),
            active_cores=tuple(sorted(active_cores.items())),
        )

    def opp_index(self, cluster: str) -> int:
        for name, idx in self.opp_indices:
            if name == cluster:
                return idx
        raise KeyError(f"no OPP index recorded for cluster {cluster!r}")

    def cores(self, cluster: str) -> int:
        for name, count in self.active_cores:
            if name == cluster:
                return count
        raise KeyError(f"no core count recorded for cluster {cluster!r}")

    def as_dicts(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        return dict(self.opp_indices), dict(self.active_cores)


#: Fewest cores a gated cluster keeps active (gating never powers it off).
MIN_ACTIVE_CORES = 1


class ConfigurationSpace:
    """Enumerable set of valid configurations of a platform.

    Each cluster in ``gated_clusters`` runs 1 to all of its cores, every
    other cluster all of them; ``max_opp_index`` caps every cluster's OPP.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        gated_clusters: Sequence[str] = (),
        max_opp_index: Optional[int] = None,
    ) -> None:
        self.platform = platform
        unknown = set(gated_clusters) - set(platform.clusters)
        if unknown:
            raise KeyError(f"unknown clusters in gated_clusters: {sorted(unknown)}")
        self.gated_clusters = set(gated_clusters)
        self.cluster_order: List[str] = sorted(platform.clusters.keys())
        self.max_opp_index = self._binding_cap(max_opp_index)
        self._configs: List[SoCConfiguration] = self._enumerate()
        self._index: Dict[SoCConfiguration, int] = {
            cfg: i for i, cfg in enumerate(self._configs)
        }
        self._content_key: Optional[Tuple] = None
        self._restrictions: Dict[int, "ConfigurationSpace"] = {}
        self._soa: Optional[SpaceArrays] = None
        self._opp_lookup: Optional[np.ndarray] = None
        self._default_index: Optional[int] = None
        self._neighbor_tables: Dict[Tuple[int, int], np.ndarray] = {}
        self._neighbor_views: Dict[Tuple[int, int], NeighborhoodView] = {}
        self._neighborhood_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._clamp_cache: Dict[SoCConfiguration, SoCConfiguration] = {}

    def __reduce__(self):
        """Pickle the constructor state only.

        The configurations, their index and every memo (restrictions,
        struct-of-arrays views, neighbour tables, clamps) derive from it:
        the configurations are enumerated again on unpickling and the
        memos rebuild on first use, so a used space pickles to the same
        bytes as a fresh one.
        """
        return (type(self), (self.platform, sorted(self.gated_clusters),
                             self.max_opp_index))

    def _binding_cap(self, cap: Optional[int]) -> Optional[int]:
        """``cap`` if it binds some cluster of the platform, else ``None``."""
        if cap is None:
            return None
        if int(cap) < 0:
            raise ValueError(f"max_opp_index must be >= 0, got {cap}")
        top = max(len(self.platform.clusters[name].opps) - 1
                  for name in self.cluster_order)
        return int(cap) if int(cap) < top else None

    def _max_opp_index(self, cluster: str) -> int:
        """Highest reachable OPP index of ``cluster`` under the cap."""
        top = len(self.platform.clusters[cluster].opps) - 1
        return top if self.max_opp_index is None else min(top, self.max_opp_index)

    def _enumerate(self) -> List[SoCConfiguration]:
        opp_ranges = []
        core_ranges = []
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_ranges.append(range(self._max_opp_index(name) + 1))
            if name in self.gated_clusters:
                core_ranges.append(range(MIN_ACTIVE_CORES, spec.n_cores + 1))
            else:
                core_ranges.append([spec.n_cores])
        configs: List[SoCConfiguration] = []
        for opp_combo in product(*opp_ranges):
            for core_combo in product(*core_ranges):
                opp_map = dict(zip(self.cluster_order, opp_combo))
                core_map = dict(zip(self.cluster_order, core_combo))
                configs.append(SoCConfiguration.from_dicts(opp_map, core_map))
        return configs

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[SoCConfiguration]:
        return iter(self._configs)

    def __getitem__(self, index: int) -> SoCConfiguration:
        return self._configs[index]

    def index_of(self, config: SoCConfiguration) -> int:
        if config not in self._index:
            raise KeyError(f"configuration not in space: {config}")
        return self._index[config]

    def contains(self, config: SoCConfiguration) -> bool:
        return config in self._index

    @property
    def configurations(self) -> List[SoCConfiguration]:
        return list(self._configs)

    def default_configuration(self) -> SoCConfiguration:
        """Mid-frequency, all-cores-on configuration used as the initial state."""
        opp_map = {}
        core_map = {}
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_map[name] = min(len(spec.opps) // 2, self._max_opp_index(name))
            core_map[name] = spec.n_cores
        return SoCConfiguration.from_dicts(opp_map, core_map)

    def default_index(self) -> int:
        """Index of :meth:`default_configuration` (memoised).

        The default configuration is a constant of the space; hot paths
        (the batched fleet decide's contains-fallback) use this instead of
        rebuilding and re-hashing the configuration every step.
        """
        if self._default_index is None:
            self._default_index = self.index_of(self.default_configuration())
        return self._default_index

    def restrict(self, max_opp_index: int) -> "ConfigurationSpace":
        """This space with every cluster's OPP index capped at ``max_opp_index``.

        This is how thermal throttling events shrink the reachable
        configuration space: the restricted space is a genuine
        :class:`ConfigurationSpace` (a subset of this one's configurations,
        in the same order), with its own :meth:`content_key`, so Oracle
        entries computed against the full space are never reused for it.
        A cap already active on this space is kept (the tighter bound
        wins), and a non-binding cap returns this space itself.

        Restrictions are memoised per base space by the asked cap: every
        capped session step asks again, and after the first ask per cap
        the answer is one dict lookup.
        """
        restricted = self._restrictions.get(max_opp_index)
        if restricted is None:
            cap = int(max_opp_index)
            if self.max_opp_index is not None:
                cap = min(cap, self.max_opp_index)
            if self._binding_cap(cap) == self.max_opp_index:
                restricted = self
            else:
                restricted = ConfigurationSpace(
                    self.platform, gated_clusters=sorted(self.gated_clusters),
                    max_opp_index=cap,
                )
            self._restrictions[max_opp_index] = restricted
        return restricted

    def clamp(self, config: SoCConfiguration) -> SoCConfiguration:
        """Project ``config`` onto this space (per-knob clamping).

        Used when a policy that reasons over the full space issues a decision
        while a throttling restriction is active: each cluster's OPP index is
        clamped into the allowed range and the core count into the allowed
        gating range, which always lands inside the space because the space is
        a full cross product of the per-cluster ranges.

        Results are memoised per input configuration — a throttled scenario
        clamps the same few policy decisions every step, so repeat clamps cost
        one dict lookup instead of rebuilding a configuration object.
        """
        cached = self._clamp_cache.get(config)
        if cached is not None:
            return cached
        opp_map, core_map = config.as_dicts()
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            opp_map[name] = max(0, min(opp_map.get(name, 0),
                                       self._max_opp_index(name)))
            if name in self.gated_clusters:
                core_map[name] = max(MIN_ACTIVE_CORES,
                                     min(core_map.get(name, spec.n_cores),
                                         spec.n_cores))
            else:
                core_map[name] = spec.n_cores
        clamped = SoCConfiguration.from_dicts(opp_map, core_map)
        if clamped not in self._index:
            raise KeyError(f"clamped configuration not in space: {clamped}")
        self._clamp_cache[config] = clamped
        return clamped

    def _enumerate_neighbor_indices(self, config: SoCConfiguration,
                                    radius: int) -> np.ndarray:
        """Neighbourhood of ``config`` as configuration indices (uncached)."""
        opp_map, core_map = config.as_dicts()
        opp_options: List[List[int]] = []
        core_options: List[List[int]] = []
        for name in self.cluster_order:
            spec = self.platform.clusters[name]
            current_opp = opp_map[name]
            options = sorted(
                {spec.opps.clamp_index(current_opp + delta)
                 for delta in range(-radius, radius + 1)}
            )
            opp_options.append(options)
            current_cores = core_map[name]
            if name in self.gated_clusters:
                low = max(MIN_ACTIVE_CORES, current_cores - radius)
                high = min(spec.n_cores, current_cores + radius)
                core_options.append(list(range(low, high + 1)))
            else:
                core_options.append([current_cores])
        indices: List[int] = []
        for opp_combo in product(*opp_options):
            for core_combo in product(*core_options):
                candidate = SoCConfiguration.from_dicts(
                    dict(zip(self.cluster_order, opp_combo)),
                    dict(zip(self.cluster_order, core_combo)),
                )
                index = self._index.get(candidate)
                if index is not None:
                    indices.append(index)
        return np.array(indices, dtype=np.intp)

    def neighbor_indices(self, index: int, radius: int = 1) -> np.ndarray:
        """Indices of the configurations within ``radius`` OPP steps.

        The online-IL runtime Oracle evaluates candidate configurations "in
        a local neighbourhood of the current configuration" (Sec. IV-A3);
        this defines that neighbourhood.  Core counts are held fixed unless
        the cluster is gated, in which case +/- ``radius`` cores are
        included.  The neighbourhood includes configuration ``index``
        itself, so it is never empty.  It is enumerated once per
        ``(index, radius)`` and memoised, so the per-step candidate sweep
        stops rebuilding configuration objects.  The returned array is
        cached — treat it as read-only.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        key = (int(index), int(radius))
        table = self._neighbor_tables.get(key)
        if table is None:
            table = self._enumerate_neighbor_indices(
                self._configs[int(index)], radius
            )
            self._neighbor_tables[key] = table
        return table

    def neighborhood_view(self, index: int,
                          radius: int = 1) -> NeighborhoodView:
        """Memoised :class:`NeighborhoodView` of configuration ``index``.

        Combines :meth:`neighbor_indices` with the struct-of-arrays rows of
        the candidates, gathered once per ``(index, radius)``:
        the vectorized runtime Oracle's per-step sweep reduces to pure
        elementwise arithmetic over these cached arrays.
        """
        key = (int(index), int(radius))
        view = self._neighbor_views.get(key)
        if view is None:
            indices = self.neighbor_indices(index, radius)
            view = NeighborhoodView(
                indices=indices, arrays=self.soa_view().gather(indices)
            )
            self._neighbor_views[key] = view
        return view

    def neighborhood_table(self, radius: int = 1
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """Padded fleet-wide neighbour table ``(indices, lengths)``.

        ``indices`` is an ``(n_configs, max_neighborhood)`` intp array whose
        row ``i`` holds :meth:`neighbor_indices` of configuration ``i`` in
        enumeration order, padded with ``0`` past ``lengths[i]`` entries
        (mask with ``lengths`` before use).  One fancy-indexing gather of
        this table replaces per-device neighbourhood lookups in the fleet's
        segmented candidate sweep.  Memoised per ``radius``; treat the
        returned arrays as read-only.
        """
        key = int(radius)
        memo = self._neighborhood_tables.get(key)
        if memo is None:
            rows = [self.neighbor_indices(i, radius)
                    for i in range(len(self._configs))]
            lengths = np.fromiter((len(row) for row in rows), dtype=np.intp,
                                  count=len(rows))
            table = np.zeros((len(rows), int(lengths.max(initial=0))),
                             dtype=np.intp)
            for i, row in enumerate(rows):
                table[i, :len(row)] = row
            memo = (table, lengths)
            self._neighborhood_tables[key] = memo
        return memo

    def random_configuration(self, rng: np.random.Generator) -> SoCConfiguration:
        return self._configs[int(rng.integers(0, len(self._configs)))]

    def soa_view(self) -> SpaceArrays:
        """Struct-of-arrays view of the whole space (built once, cached).

        Per cluster: the OPP index and active-core count of every
        configuration, plus the voltage and frequency of that OPP gathered
        from per-OPP tables.  The per-OPP tables are filled element by
        element with the same scalar arithmetic as the object-level
        accessors, so every gathered value is bitwise identical to its
        scalar counterpart.  The space is immutable after construction, so
        the arrays are cached and shared — treat them as read-only.
        """
        if self._soa is None:
            n = len(self._configs)
            clusters: Dict[str, ClusterArrays] = {}
            for name in self.cluster_order:
                spec = self.platform.clusters[name]
                opp = np.fromiter((c.opp_index(name) for c in self._configs),
                                  dtype=np.intp, count=n)
                active = np.fromiter((c.cores(name) for c in self._configs),
                                     dtype=np.intp, count=n)
                voltage_by_opp = np.array(
                    [point.voltage_v for point in spec.opps], dtype=float
                )
                ghz_by_opp = np.array(
                    [point.frequency_hz / 1e9 for point in spec.opps],
                    dtype=float,
                )
                clusters[name] = ClusterArrays(
                    opp_index=opp,
                    active_cores=active,
                    cores_f=active.astype(float),
                    voltage_v=voltage_by_opp[opp],
                    frequency_ghz=ghz_by_opp[opp],
                )
            self._soa = SpaceArrays(
                cluster_order=tuple(self.cluster_order), clusters=clusters
            )
        return self._soa

    def opp_lookup_table(self) -> Optional[np.ndarray]:
        """Dense OPP-combination -> configuration-index table (non-gated only).

        One axis per cluster (in ``cluster_order``), sized by the
        *platform's full* OPP table; entry ``[i_0, ..., i_k]`` is the index
        of the configuration with those per-cluster OPP indices, or ``-1``
        when the combination lies outside this space (an active throttle
        cap).  Without core gating the OPP indices identify a
        configuration uniquely, which is what makes the table well defined;
        gated spaces return ``None``.  Used by cross-session batched
        decides (fleet lockstep) to turn vectors of per-cluster OPP
        indices into configuration indices with one fancy-indexing gather.
        Built once and cached — treat it as read-only.
        """
        if self.gated_clusters:
            return None
        if self._opp_lookup is None:
            shape = tuple(len(self.platform.clusters[name].opps)
                          for name in self.cluster_order)
            table = np.full(shape, -1, dtype=np.intp)
            for i, config in enumerate(self._configs):
                key = tuple(config.opp_index(name)
                            for name in self.cluster_order)
                table[key] = i
            self._opp_lookup = table
        return self._opp_lookup

    def content_key(self) -> Tuple:
        """Content-derived, process-stable identity of this space.

        The space's one identity key: the Oracle cache keys its tables by
        it, the on-disk store digests it into table names, and the fleet
        keys batched decide/observe groups on it.  Unlike ``id(space)`` it
        survives pickling into another process and cannot alias a
        garbage-collected space.  It holds the platform's
        :meth:`~repro.soc.platform.PlatformSpec.content_key` (every
        parameter of the power and performance models), the gated
        clusters and the binding OPP-index cap.  The configurations,
        ``soa_view`` and every other derived structure are a pure function
        of exactly this state, so the configuration list need not be
        embedded.  A non-binding cap is dropped at construction, so a
        restriction that keeps every configuration shares the unrestricted
        space's key, and a binding one never does.
        """
        if self._content_key is None:
            self._content_key = (
                self.platform.content_key(),
                tuple(sorted(self.gated_clusters)),
                self.max_opp_index,
            )
        return self._content_key
