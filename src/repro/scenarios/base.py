"""Scenario specifications, traces and the scenario registry.

The paper's central claim is that *online* imitation learning adapts to
workloads the offline policy never saw.  The three static suite presets
(Mi-Bench / CortexSuite / PARSEC) exercise only one kind of novelty —
unseen applications.  This subsystem makes *dynamic* novelty first class:
a :class:`ScenarioSpec` is a small, seedable transform that
perturbs a generated snippet trace (and, for throttling scenarios, the
platform's reachable configuration space) over time.

Design rules every scenario obeys:

* **Pure** — :meth:`ScenarioSpec.apply` never mutates the input snippets;
  it returns a fresh :class:`ScenarioTrace` whose snippets are either the
  unmodified input objects (reorderings) or newly constructed ones
  (insertions / characteristic rewrites).
* **Seedable** — all randomness comes from the generator passed to
  ``apply``; the same seed reproduces the same trace bit for bit, which is
  what makes the golden-trace and ``--jobs`` determinism tests possible.
* **Registered** — default instances live in a name registry mirroring the
  experiment registry, so drivers and the CLI resolve scenarios by name
  (``python -m repro.experiments robustness --scenario phase_churn``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.snippet import Snippet
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class ThrottleEvent:
    """One thermal-throttling window over a snippet trace.

    While ``start <= step < stop`` the platform may not run any cluster
    above OPP index ``max_opp_index`` — the reachable configuration space
    shrinks to :meth:`~repro.soc.configuration.ConfigurationSpace.restrict`
    of the base space.
    """

    start: int
    stop: int
    max_opp_index: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be non-negative")
        if self.stop <= self.start:
            raise ValueError("stop must be greater than start")
        if self.max_opp_index < 0:
            raise ValueError("max_opp_index must be non-negative")


@dataclass
class ScenarioTrace:
    """Output of a scenario transform: a snippet trace plus platform events.

    ``snippets`` is the perturbed trace; ``throttle_events`` the (possibly
    empty) set of windows during which the configuration space is capped.
    Snippet names are guaranteed unique within the trace (enforced by
    :meth:`ScenarioSpec.apply`), so one merged Oracle table can cover the
    whole trace even when different steps use different spaces.
    """

    snippets: List[Snippet] = field(default_factory=list)
    throttle_events: Tuple[ThrottleEvent, ...] = ()
    scenario_name: str = ""

    def __len__(self) -> int:
        return len(self.snippets)

    def caps(self) -> List[Optional[int]]:
        """Tightest OPP cap active at each step (None when unthrottled)."""
        caps: List[Optional[int]] = [None] * len(self.snippets)
        for event in self.throttle_events:
            for step in range(event.start, min(event.stop, len(caps))):
                cap = caps[step]
                if cap is None or event.max_opp_index < cap:
                    caps[step] = event.max_opp_index
        return caps

    def throttled_steps(self) -> int:
        """Number of steps with at least one active throttle window."""
        return sum(cap is not None for cap in self.caps())


class ScenarioSpec(abc.ABC):
    """One named, seedable trace perturbation.

    Subclasses are small frozen dataclasses whose fields are the scenario's
    parameters, always including a ``name`` field — the registry key and
    the label stamped onto produced traces.  They implement
    :meth:`_transform`; the public :meth:`apply` wraps it with seed
    handling and output validation.
    """

    #: One-line human description (class attribute on each subclass).
    description: str = ""

    #: Registry key; overridden by the subclasses' ``name`` dataclass field.
    name: str = ""

    # -- required subclass surface ------------------------------------- #
    @abc.abstractmethod
    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        """Produce the perturbed trace (must not mutate ``snippets``)."""

    # -- public API ----------------------------------------------------- #
    def apply(self, snippets: Sequence[Snippet],
              rng: SeedLike = None) -> ScenarioTrace:
        """Apply the scenario to ``snippets`` and return the new trace.

        ``rng`` may be a seed or a generator; the input sequence is never
        mutated.  The output trace is validated: it must be non-empty and
        its snippet names must be unique (Oracle tables key on the name).
        """
        frozen = tuple(snippets)
        if not frozen:
            raise ValueError("scenario input trace must not be empty")
        trace = self._transform(frozen, make_rng(rng))
        trace.scenario_name = self.name
        if not trace.snippets:
            raise ValueError(
                f"scenario {self.name!r} produced an empty trace"
            )
        # A name is f"{application}[{index}]" with an int index, so
        # unique (application, index) pairs are unique names.
        keys = {(snippet.application, snippet.index)
                for snippet in trace.snippets}
        if len(keys) != len(trace.snippets):
            raise ValueError(
                f"scenario {self.name!r} produced duplicate snippet names"
            )
        last = len(trace.snippets)
        for event in trace.throttle_events:
            if event.start >= last:
                raise ValueError(
                    f"scenario {self.name!r} produced a throttle event "
                    f"starting at {event.start} beyond the trace ({last})"
                )
        return trace


# --------------------------------------------------------------------- #
# Scenario registry (name -> default spec instance)
# --------------------------------------------------------------------- #
_SCENARIO_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec,
                      overwrite: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (resolvable by ``spec.name``)."""
    if spec.name in _SCENARIO_REGISTRY and not overwrite:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _SCENARIO_REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Resolve a registered scenario by name."""
    if name not in _SCENARIO_REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; available: {available_scenarios()}"
        )
    return _SCENARIO_REGISTRY[name]


def available_scenarios() -> List[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_SCENARIO_REGISTRY)
