"""Common interface for CPU dynamic-resource-management policies.

Every policy — offline/online IL, RL, and the simple governors — implements
the same decision loop so the experiment runner can swap them freely:

1. ``decide(counters)`` returns the configuration for the *next* snippet
   based on the counters observed for the previous one;
2. the runner executes the snippet at that configuration;
3. ``observe(result)`` feeds the outcome back (used by learning policies).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult
from repro.soc.snippet import Snippet
from repro.utils.rng import SeedLike, make_rng

#: Result of a batched fleet decide: the decided configurations plus their
#: indices in the policy's space, as two parallel lists.
FleetDecisions = Tuple[List[SoCConfiguration], List[int]]


class DRMPolicy(abc.ABC):
    """Base class for snippet-level DRM policies."""

    def __init__(self, space: ConfigurationSpace) -> None:
        self.space = space
        self.current = space.default_configuration()

    def reset(self, configuration: Optional[SoCConfiguration] = None) -> None:
        """Reset the policy's runtime state before a new run."""
        self.current = configuration or self.space.default_configuration()

    @abc.abstractmethod
    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        """Return the configuration for the next snippet.

        ``counters`` is ``None`` for the very first snippet of a run (no
        observation is available yet); policies should fall back to their
        current/default configuration in that case.
        """

    def observe(self, result: SnippetResult) -> None:
        """Consume the result of the snippet that was just executed."""
        self.current = result.configuration

    @property
    def name(self) -> str:
        return type(self).__name__

    # ------------------------------------------------------------------ #
    # Fleet batching capability
    # ------------------------------------------------------------------ #
    def fleet_decide_key(self) -> Optional[Tuple]:
        """Grouping key for cross-session batched decides (fleet lockstep).

        Policies sharing a (non-``None``) key can have their per-step
        decisions computed together by one :meth:`fleet_decide` call
        instead of per-policy :meth:`decide` calls.  The contract is
        strict: the batched path must reproduce every policy's scalar
        decision — and its state mutations — exactly, so a lockstep fleet
        stays bitwise identical to independent sequential runs.  The
        default is ``None``: not batchable, the fleet driver falls back to
        per-session scalar stepping.
        """
        return None

    @staticmethod
    def fleet_decide(
        policies: Sequence["DRMPolicy"],
        counters: Sequence[Optional[PerformanceCounters]],
        snippets: Sequence[Snippet],
        group_state: dict,
    ) -> FleetDecisions:
        """Batched decide for a group of policies sharing a fleet key.

        ``counters[i]`` is what ``policies[i].decide`` would have received
        (``None`` on a session's first step) and ``snippets[i]`` is the
        snippet about to execute.  ``group_state`` is a mutable dict owned
        by the fleet driver that persists across steps for this group —
        implementations may memoise adopted cross-device stacks there
        (stateless policies ignore it).  Only called on groups whose
        members all returned the same non-``None`` :meth:`fleet_decide_key`.
        """
        raise NotImplementedError

    def fleet_observe_key(self) -> Optional[Tuple]:
        """Grouping key for cross-session batched observes (fleet lockstep).

        The observe-side twin of :meth:`fleet_decide_key`: policies sharing
        a non-``None`` key can have their per-step :meth:`observe` calls —
        including any model updates they trigger — computed together by one
        :meth:`fleet_observe` call.  Same strict contract: batched state
        after the call must be bitwise identical to per-policy scalar
        observes.  Default ``None``: observe stays scalar.
        """
        return None

    @staticmethod
    def fleet_observe(
        policies: Sequence["DRMPolicy"],
        steps: Sequence[object],
        results: Sequence[SnippetResult],
        group_state: dict,
    ) -> None:
        """Batched observe for a group of policies sharing an observe key.

        ``steps[i]`` is the session step (carrying ``configuration_index``)
        whose execution produced ``results[i]``, exactly what
        ``policies[i].observe`` would have consumed.  ``group_state`` is
        the same persistent dict handed to :meth:`fleet_decide` for this
        group of sessions.
        """
        raise NotImplementedError


class StaticPolicy(DRMPolicy):
    """Always selects one fixed configuration (useful baseline and test stub)."""

    def __init__(self, space: ConfigurationSpace,
                 configuration: Optional[SoCConfiguration] = None) -> None:
        super().__init__(space)
        self.configuration = configuration or space.default_configuration()
        if not space.contains(self.configuration):
            raise ValueError("configuration is not part of the configuration space")
        self._fleet_index = space.index_of(self.configuration)

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        return self.configuration

    def fleet_decide_key(self) -> Optional[Tuple]:
        if type(self) is not StaticPolicy:
            # A subclass may override decide(); batching would silently
            # replay the base rule instead, so only the exact type batches.
            return None
        # Content key, not id(space): process-stable, so content-equal
        # spaces group together and sharded fleets key identically.
        return (type(self).__name__, self.space.content_key())

    @staticmethod
    def fleet_decide(
        policies: Sequence[DRMPolicy],
        counters: Sequence[Optional[PerformanceCounters]],
        snippets: Sequence[Snippet],
        group_state: dict,
    ) -> FleetDecisions:
        # The scalar decide neither reads counters nor mutates any state.
        return ([policy.configuration for policy in policies],  # type: ignore[attr-defined]
                [policy._fleet_index for policy in policies])  # type: ignore[attr-defined]


class GovernorPolicy(DRMPolicy):
    """Adapter running a :mod:`repro.soc.governors` governor as a DRM policy.

    Governors expose ``reset``/``decide`` but expect real counters (they
    are utilisation driven) and do not implement ``observe``; this adapter
    handles the first no-observation step and keeps the governor's notion
    of the current configuration in sync with what actually executed
    (which may differ under scenario throttling).
    """

    def __init__(self, governor) -> None:
        super().__init__(governor.space)
        self.governor = governor

    def reset(self, configuration: Optional[SoCConfiguration] = None) -> None:
        super().reset(configuration)
        self.governor.reset(configuration)

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if counters is None:
            return self.current
        self.current = self.governor.decide(counters)
        return self.current

    def observe(self, result: SnippetResult) -> None:
        # Inlined DRMPolicy.observe: both the policy's and the governor's
        # notion of the current configuration track what actually executed.
        configuration = result.configuration
        self.current = configuration
        self.governor.current = configuration

    @property
    def name(self) -> str:
        return f"governor-{type(self.governor).__name__}"

    #: Utilisation counter read per cluster (mirrors
    #: :meth:`~repro.soc.governors.Governor._cluster_utilization`).
    _UTILIZATION_ATTR = {
        "big": "big_cluster_utilization",
        "little": "little_cluster_utilization",
    }

    def fleet_decide_key(self) -> Optional[Tuple]:
        if type(self) is not GovernorPolicy:
            # A subclass may override decide(); batching would silently
            # replay the base rule instead, so only the exact type batches.
            return None
        governor = self.governor
        # decide_batch must come from the same class that defines the
        # scalar decide rule it mirrors — a governor subclass overriding
        # decide() without supplying its own decide_batch falls back to
        # scalar stepping instead of silently replaying the parent's rule.
        decide_owner = next(cls for cls in type(governor).__mro__
                            if "decide" in cls.__dict__)
        if "decide_batch" not in decide_owner.__dict__:
            return None
        if self.space.gated_clusters:
            # The scalar rule carries the current core counts through; the
            # batched path assumes OPP indices identify configurations.
            return None
        if any(name not in self._UTILIZATION_ATTR
               for name in self.space.cluster_order):
            return None
        return (type(self).__name__, type(governor).__name__,
                governor.fleet_params(), self.space.content_key())

    @staticmethod
    def fleet_decide(
        policies: Sequence[DRMPolicy],
        counters: Sequence[Optional[PerformanceCounters]],
        snippets: Sequence[Snippet],
        group_state: dict,
    ) -> FleetDecisions:
        """Vectorized governor decisions for one lockstep group.

        Mirrors the scalar path exactly: the governor rule produces raw
        per-cluster indices (:meth:`~repro.soc.governors.Governor
        .decide_batch`), which are clamped into the platform's full OPP
        range, validated against the space (falling back to the default
        configuration when an active cap excludes the combination — the
        ``_with_opp_indices`` contains-check), and written back into each
        governor's ``current`` state.  Devices with no counters yet keep
        their current configuration without touching the governor.  A
        current configuration outside the space raises :class:`KeyError`.
        """
        space = policies[0].space
        lookup = space.opp_lookup_table()
        assert lookup is not None  # guaranteed by fleet_decide_key
        cluster_order = space.cluster_order
        out_configs: List[Optional[SoCConfiguration]] = [None] * len(policies)
        out_indices: List[Optional[int]] = [None] * len(policies)
        live: List[int] = []
        live_current: List[int] = []
        for i, policy in enumerate(policies):
            governor = policy.governor  # type: ignore[attr-defined]
            if counters[i] is None:
                # GovernorPolicy.decide(None) returns self.current as-is.
                current = policy.current
                out_configs[i] = current
                out_indices[i] = space.index_of(current)
                continue
            live.append(i)
            # The previous batched decide memoises (config, index); the
            # identity check proves the governor state is still exactly
            # that object, so the space lookup is skipped on the hot path.
            memo = policy.__dict__.get("_fleet_state")
            if memo is not None and memo[0] is governor.current:
                live_current.append(memo[1])
            else:
                live_current.append(space.index_of(governor.current))
        if not live:
            return out_configs, out_indices  # type: ignore[return-value]
        utilization = {
            name: np.array([
                getattr(counters[i], GovernorPolicy._UTILIZATION_ATTR[name])
                for i in live
            ])
            for name in cluster_order
        }
        soa = space.soa_view()
        current_rows = np.array(live_current, dtype=np.intp)
        current_indices = {
            name: soa.cluster(name).opp_index[current_rows]
            for name in cluster_order
        }
        raw = policies[0].governor.decide_batch(  # type: ignore[attr-defined]
            utilization, current_indices
        )
        contained = np.ones(len(live), dtype=bool)
        clamped = []
        for name in cluster_order:
            spec = space.platform.cluster(name)
            indices = np.clip(raw[name].astype(np.intp), 0, len(spec.opps) - 1)
            clamped.append(indices)
            contained &= indices <= space._max_opp_index(name)
        config_indices = lookup[tuple(clamped)]
        config_indices = np.where(contained, config_indices,
                                  space.default_index())
        configs = space._configs
        index_list = config_indices.tolist()
        for row, i in enumerate(live):
            policy = policies[i]
            index = index_list[row]
            config = configs[index]
            policy.governor.current = config  # type: ignore[attr-defined]
            policy.current = config
            policy._fleet_state = (config, index)  # type: ignore[attr-defined]
            out_configs[i] = config
            out_indices[i] = index
        return out_configs, out_indices  # type: ignore[return-value]


class RandomPolicy(DRMPolicy):
    """Selects a uniformly random configuration each snippet (exploration floor)."""

    def __init__(self, space: ConfigurationSpace, seed: SeedLike = None) -> None:
        super().__init__(space)
        self.rng = make_rng(seed)

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        self.current = self.space.random_configuration(self.rng)
        return self.current
