"""Executing policies under a scenario trace.

A :class:`~repro.scenarios.base.ScenarioTrace` is more than a snippet list:
throttling scenarios restrict the reachable configuration space for whole
windows of the run.  A policy run honours them through the trace's
per-step OPP caps (:meth:`~repro.scenarios.base.ScenarioTrace.caps`),
which a :class:`~repro.core.session.PolicySession` holds as data.  This
module provides the three runtime pieces:

* :func:`restricted_spaces` — materialise the per-cap restricted
  :class:`~repro.soc.configuration.ConfigurationSpace` objects (one per
  distinct cap, built once).
* :func:`build_scenario_oracle` — a scenario-aware Oracle table: every
  snippet's row is computed against the space that is *actually
  reachable at its step* (via the vectorized batch sweep), so accuracy and
  normalised energy stay meaningful under throttling.  Rows flow
  through the :class:`~repro.core.oracle.OracleCache`, whose keys include
  the space restriction — a throttled window can never reuse a stale
  full-space row.
* :func:`run_policy_on_scenario` — the one-call evaluation entry point
  mirroring :func:`~repro.core.framework.run_policy_on_snippets`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.framework import PolicyRunResult, run_policy_on_snippets
from repro.core.oracle import ENERGY, OracleCache, OracleTable, build_oracle
from repro.core.oracle_store import ORACLE_COLUMNS
from repro.scenarios.base import ScenarioTrace
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet


def restricted_spaces(base_space: ConfigurationSpace,
                      trace: ScenarioTrace) -> Dict[int, ConfigurationSpace]:
    """One restricted space per distinct throttle cap in ``trace``."""
    caps = sorted({event.max_opp_index for event in trace.throttle_events})
    return {cap: base_space.restrict(max_opp_index=cap) for cap in caps}


def build_scenario_oracle(
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
    trace: ScenarioTrace,
    objective: str = ENERGY,
    cache: Optional[OracleCache] = None,
) -> OracleTable:
    """Oracle table for ``trace`` honouring its per-step space restrictions.

    Steps are grouped by their active throttle cap; each group is swept
    with :func:`~repro.core.oracle.build_oracle` (the vectorized batch
    engine path) against the matching restricted space, and the groups are
    merged into one table over ``base_space``, their best indices mapped to
    the base space's.  Snippet names are unique within a scenario trace, so
    the merge is collision free.  ``objective`` must be
    :data:`~repro.core.oracle.ENERGY`, the one cost an Oracle minimises.
    """
    if objective != ENERGY:
        raise ValueError(f"the Oracle minimises {ENERGY!r}, not {objective!r}")
    spaces = restricted_spaces(base_space, trace)
    by_cap: Dict[Optional[int], List[Snippet]] = {}
    for snippet, cap in zip(trace.snippets, trace.caps()):
        by_cap.setdefault(cap, []).append(snippet)
    names, groups = [], [np.empty(0, ORACLE_COLUMNS)]
    for cap, snippets in by_cap.items():
        space = base_space if cap is None else spaces[cap]
        columns = build_oracle(simulator, space, snippets, cache=cache).columns
        if space is not base_space:
            base_index = np.array([base_space.index_of(c) for c in space])
            columns["best_index"] = base_index[columns["best_index"]]
        names += [snippet.name for snippet in snippets]
        groups.append(columns)
    return OracleTable(base_space,
                       {name: row for row, name in enumerate(names)},
                       np.concatenate(groups))


def run_policy_on_scenario(
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
    policy: DRMPolicy,
    trace: ScenarioTrace,
    oracle_table: Optional[OracleTable] = None,
    rng: Optional[np.random.Generator] = None,
    reset_policy: bool = True,
) -> PolicyRunResult:
    """Run ``policy`` over a scenario trace, enforcing its throttle windows.

    Thin wrapper around
    :func:`~repro.core.framework.run_policy_on_snippets`: the scenario's
    per-step caps are installed so that decisions issued during a
    throttle window are clamped into the restricted space before
    execution.
    """
    return run_policy_on_snippets(
        simulator,
        base_space,
        policy,
        trace.snippets,
        oracle_table=oracle_table,
        rng=rng,
        reset_policy=reset_policy,
        caps=trace.caps(),
    )
