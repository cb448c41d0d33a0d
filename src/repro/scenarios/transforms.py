"""Built-in scenario transforms.

Each transform stresses the online-adaptation story along one axis the
static suite presets never exercise:

* :class:`PhaseChurn` — abrupt application/suite distribution shift every
  ``block`` snippets (the trace keeps switching phases mid-run).
* :class:`BurstyIdle` — bursty arrival pattern: bursts of real work
  separated by near-idle gaps (OS-housekeeping-like snippets).
* :class:`ConcurrentMix` — fine-grained round-robin interleaving of the
  applications, as if several apps time-share the board concurrently.
* :class:`ThermalThrottle` — periodic thermal events that cap the highest
  reachable OPP, shrinking the configuration space for whole windows.
* :class:`CharacteristicDrift` — slow parameterised drift of the snippet
  characteristics (memory intensity ramps up, exploitable ILP decays), so
  the distribution moves away from anything seen at design time.
* :class:`CompositeScenario` — ordered composition of other scenarios
  (used by the registered ``stress_combo``).

Default instances of all of these are placed in the scenario registry at
import time; see :func:`repro.scenarios.base.available_scenarios`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.scenarios.base import (
    ScenarioSpec,
    ScenarioTrace,
    ThrottleEvent,
    register_scenario,
)
from repro.soc.snippet import CHARACTERISTIC_FIELDS, Snippet, make_snippets
from repro.utils.stats import median
from repro.workloads.generator import (
    JITTERED_FIELDS,
    clip_as_python,
    jitter_characteristics,
)

#: ``BurstyIdle``'s idle-snippet means, in ``JITTERED_FIELDS`` order.
_IDLE_MEANS = (0.3, 0.10, 0.30, 1.0, 0.6)


def _group_by_application(
    snippets: Tuple[Snippet, ...]
) -> Dict[str, "deque[Snippet]"]:
    """Per-application FIFO queues, preserving each app's internal order."""
    groups: Dict[str, deque] = {}
    for snippet in snippets:
        groups.setdefault(snippet.application, deque()).append(snippet)
    return groups


def _round_robin_blocks(snippets: Tuple[Snippet, ...],
                        rng: np.random.Generator,
                        block: int) -> List[Snippet]:
    """Rebuild the trace as rng-ordered application blocks of ``block``.

    Every application keeps its own snippet order; the *global* order is a
    round robin over the applications (visit order shuffled by ``rng``),
    taking ``block`` snippets per visit.  Small blocks model concurrent
    time slicing; large blocks model abrupt phase churn.
    """
    if block < 1:
        raise ValueError("block must be >= 1")
    groups = _group_by_application(snippets)
    order = [str(app) for app in rng.permutation(list(groups))]
    out: List[Snippet] = []
    while len(out) < len(snippets):
        progressed = False
        for app in order:
            queue = groups[app]
            for _ in range(min(block, len(queue))):
                out.append(queue.popleft())
                progressed = True
        assert progressed, "round-robin made no progress"
    return out


@dataclass(frozen=True)
class PhaseChurn(ScenarioSpec):
    """Abrupt suite-to-suite distribution shift every ``block`` snippets."""

    description = ("abrupt application/suite switches every `block` "
                   "snippets (phase churn)")

    name: str = "phase_churn"
    block: int = 8

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        return ScenarioTrace(_round_robin_blocks(snippets, rng, self.block))


@dataclass(frozen=True)
class ConcurrentMix(ScenarioSpec):
    """Fine-grained interleaving of all applications (concurrent execution)."""

    description = ("round-robin time slicing across all applications "
                   "(concurrent-app interleaving)")

    name: str = "concurrent_mix"
    slice_snippets: int = 2

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        return ScenarioTrace(
            _round_robin_blocks(snippets, rng, self.slice_snippets)
        )


@dataclass(frozen=True)
class BurstyIdle(ScenarioSpec):
    """Bursts of real work separated by near-idle gaps.

    After every ``burst`` input snippets, ``idle_gap`` synthetic "idle"
    snippets are inserted: tiny, memory-light, LITTLE-leaning windows that
    look like OS housekeeping between arrivals.  Their characteristics get
    a small lognormal jitter from the scenario rng so gaps are not all
    identical.
    """

    description = ("bursty arrivals: `burst` real snippets separated by "
                   "`idle_gap` near-idle snippets")

    name: str = "bursty_idle"
    burst: int = 10
    idle_gap: int = 3
    idle_jitter: float = 0.10
    idle_instruction_fraction: float = 0.25

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.idle_gap < 0:
            raise ValueError("idle_gap must be non-negative")
        if self.idle_jitter < 0:
            raise ValueError("idle_jitter must be non-negative")
        idle_instructions = max(
            1.0,
            self.idle_instruction_fraction
            * median([s.n_instructions for s in snippets]),
        )
        # A gap follows every `burst`-th snippet except the last one.
        gaps = (len(snippets) - 1) // self.burst
        n_idle = gaps * self.idle_gap
        columns = jitter_characteristics(
            np.broadcast_to(_IDLE_MEANS, (n_idle, len(_IDLE_MEANS))),
            np.full(n_idle, self.idle_jitter), rng)
        idle = make_snippets(
            "idle", range(n_idle), idle_instructions,
            **dict(zip(JITTERED_FIELDS, columns.T)),
            parallel_fraction=0.0, thread_count=1, big_fraction=0.1,
        )
        out: List[Snippet] = []
        for gap in range(gaps):
            out += snippets[gap * self.burst:(gap + 1) * self.burst]
            out += idle[gap * self.idle_gap:(gap + 1) * self.idle_gap]
        out += snippets[gaps * self.burst:]
        return ScenarioTrace(out)


@dataclass(frozen=True)
class ThermalThrottle(ScenarioSpec):
    """Periodic thermal events that cap the reachable OPPs.

    Every ``period`` snippets one throttle window of ``duty * period``
    snippets opens (start offset jittered by the scenario rng), during
    which no cluster may run above OPP index ``max_opp_index``.  The
    snippets themselves are untouched — the stress is entirely on the
    *configuration space* the policy can act in.
    """

    description = ("periodic thermal-throttling windows capping the "
                   "reachable OPP indices")

    name: str = "thermal_throttle"
    period: int = 24
    duty: float = 0.5
    max_opp_index: int = 1

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.period < 2:
            raise ValueError("period must be >= 2")
        if not 0.0 < self.duty < 1.0:
            raise ValueError("duty must be in (0, 1)")
        n = len(snippets)
        window = max(1, int(round(self.duty * self.period)))
        events: List[ThrottleEvent] = []
        for origin in range(0, n, self.period):
            slack = max(1, self.period - window)
            offset = int(rng.integers(0, slack))
            start = origin + offset
            stop = min(n, start + window)
            if start < n:
                events.append(ThrottleEvent(start=start, stop=stop,
                                            max_opp_index=self.max_opp_index))
        return ScenarioTrace(list(snippets), throttle_events=tuple(events))


@dataclass(frozen=True)
class CharacteristicDrift(ScenarioSpec):
    """Slow drift of the snippet characteristics along the trace.

    Snippet ``i`` of ``n`` gets its memory intensity scaled by
    ``memory_intensity_scale ** (i / (n-1))`` and its ILP factor by
    ``ilp_scale ** (i / (n-1))`` — a geometric ramp from the original
    characteristics to a strongly memory-bound, low-ILP regime the offline
    policy never trained on.  The ramp is deterministic; the scenario rng
    adds a small per-snippet lognormal wobble when ``jitter`` is non-zero.
    """

    description = ("geometric drift of memory intensity and ILP across "
                   "the trace")

    name: str = "characteristic_drift"
    memory_intensity_scale: float = 3.0
    ilp_scale: float = 0.7
    jitter: float = 0.0

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.memory_intensity_scale <= 0 or self.ilp_scale <= 0:
            raise ValueError("drift scales must be positive")
        n = len(snippets)
        progress = [i / (n - 1) for i in range(n)] if n > 1 else [1.0]
        chars = [snippet.characteristics for snippet in snippets]
        columns = {name: [getattr(c, name) for c in chars]
                   for name in CHARACTERISTIC_FIELDS}
        # The ramps keep Python's ``**`` (libm ``pow``): ``np.power``
        # differs from it in the last bit for some progress values.
        intensity = (
            np.array(columns["memory_intensity"], dtype=float)
            * np.array([self.memory_intensity_scale ** p for p in progress])
        )
        if self.jitter > 0.0:
            # Unit normals as ``jitter_characteristics`` draws them.
            intensity *= np.exp(
                0.0 + self.jitter * rng.normal(0.0, 1.0, size=n))
        columns["memory_intensity"] = np.where(intensity > 0.0, intensity, 0.0)
        columns["ilp_factor"] = clip_as_python(
            np.array(columns["ilp_factor"], dtype=float)
            * np.array([self.ilp_scale ** p for p in progress]),
            0.05, 1.0,
        )
        return ScenarioTrace(make_snippets(
            [snippet.application for snippet in snippets],
            [snippet.index for snippet in snippets],
            [snippet.n_instructions for snippet in snippets],
            **columns,
        ))


@dataclass(frozen=True)
class CompositeScenario(ScenarioSpec):
    """Ordered composition of other scenarios.

    Children are applied left to right; each child sees the previous
    child's output snippets.  Throttle events from every child are
    concatenated, and their step indices refer to positions in the final
    trace — so once any child has produced throttle events, later children
    must leave the snippet sequence untouched (same snippets, same order).
    Violations raise instead of silently throttling the wrong steps; put
    reordering/inserting children *before* throttling children, as the
    registered ``stress_combo`` does.
    """

    description = "ordered composition of other registered scenario transforms"

    name: str = "composite"
    children: Tuple[ScenarioSpec, ...] = ()

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if not self.children:
            raise ValueError("CompositeScenario needs at least one child")
        current = list(snippets)
        events: List[ThrottleEvent] = []
        for child in self.children:
            trace = child.apply(current, rng)
            if events and not (
                len(trace.snippets) == len(current)
                and all(a is b for a, b in zip(trace.snippets, current))
            ):
                raise ValueError(
                    f"composite {self.name!r}: child {child.name!r} changed "
                    "the snippet sequence after an earlier child produced "
                    "throttle events; move trace-changing children before "
                    "throttling children"
                )
            current = trace.snippets
            events.extend(trace.throttle_events)
        return ScenarioTrace(current, throttle_events=tuple(events))


def _register_default_scenarios() -> None:
    register_scenario(PhaseChurn())
    register_scenario(BurstyIdle())
    register_scenario(ConcurrentMix())
    register_scenario(ThermalThrottle())
    register_scenario(CharacteristicDrift())
    register_scenario(
        CompositeScenario(
            name="stress_combo",
            children=(
                PhaseChurn(),
                CharacteristicDrift(),
                ThermalThrottle(),
            ),
        )
    )


_register_default_scenarios()
