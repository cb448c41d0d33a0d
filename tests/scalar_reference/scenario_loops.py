"""The per-snippet scenario loops (oracles of two scenario transforms).

:class:`~repro.scenarios.transforms.BurstyIdle` and
:class:`~repro.scenarios.transforms.CharacteristicDrift` compute their new
snippets' characteristics as arrays and make the snippets in one
:func:`~repro.soc.snippet.make_snippets` call.  The classes here are the
loops they replaced: per idle snippet, five scalar ``rng.normal`` draws
each exponentiated on its own and Python ``max``/``min`` clipping; per
drifted snippet, one optional scalar draw and two ``dataclasses.replace``
calls.  :func:`scalar_twin` swaps them into any spec, composite children
included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.scenarios.base import ScenarioSpec, ScenarioTrace
from repro.scenarios.transforms import (
    BurstyIdle,
    CharacteristicDrift,
    CompositeScenario,
)
from repro.soc.snippet import Snippet, SnippetCharacteristics


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


@dataclass(frozen=True)
class ScalarBurstyIdle(BurstyIdle):
    """:class:`BurstyIdle` with the per-idle-snippet loop."""

    def _idle_snippet(self, index: int, n_instructions: float,
                      rng: np.random.Generator) -> Snippet:
        def wobble(value: float) -> float:
            if self.idle_jitter == 0.0:
                return value
            return value * float(np.exp(rng.normal(0.0, self.idle_jitter)))

        characteristics = SnippetCharacteristics(
            memory_intensity=max(0.0, wobble(0.3)),
            memory_access_rate=_clip(wobble(0.10), 0.0, 1.0),
            external_request_rate=_clip(wobble(0.30), 0.0, 1.0),
            branch_misprediction_mpki=max(0.0, wobble(1.0)),
            ilp_factor=_clip(wobble(0.6), 0.05, 1.0),
            parallel_fraction=0.0,
            thread_count=1,
            big_fraction=0.1,
        )
        return Snippet(
            application="idle",
            index=index,
            n_instructions=n_instructions,
            characteristics=characteristics,
        )

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.idle_gap < 0:
            raise ValueError("idle_gap must be non-negative")
        idle_instructions = max(
            1.0,
            self.idle_instruction_fraction
            * float(np.median([s.n_instructions for s in snippets])),
        )
        out: List[Snippet] = []
        idle_index = 0
        for position, snippet in enumerate(snippets, start=1):
            out.append(snippet)
            if position % self.burst == 0 and position < len(snippets):
                for _ in range(self.idle_gap):
                    out.append(self._idle_snippet(idle_index,
                                                  idle_instructions, rng))
                    idle_index += 1
        return ScenarioTrace(out)


@dataclass(frozen=True)
class ScalarCharacteristicDrift(CharacteristicDrift):
    """:class:`CharacteristicDrift` with the per-snippet loop."""

    def _transform(self, snippets: Tuple[Snippet, ...],
                   rng: np.random.Generator) -> ScenarioTrace:
        if self.memory_intensity_scale <= 0 or self.ilp_scale <= 0:
            raise ValueError("drift scales must be positive")
        n = len(snippets)
        out: List[Snippet] = []
        for i, snippet in enumerate(snippets):
            progress = i / (n - 1) if n > 1 else 1.0
            wobble = 1.0
            if self.jitter > 0.0:
                wobble = float(np.exp(rng.normal(0.0, self.jitter)))
            chars = snippet.characteristics
            drifted = replace(
                chars,
                memory_intensity=max(
                    0.0,
                    chars.memory_intensity
                    * self.memory_intensity_scale ** progress * wobble,
                ),
                ilp_factor=_clip(
                    chars.ilp_factor * self.ilp_scale ** progress, 0.05, 1.0
                ),
            )
            out.append(replace(snippet, characteristics=drifted))
        return ScenarioTrace(out)


def scalar_twin(spec: ScenarioSpec) -> ScenarioSpec:
    """``spec`` with each bursty-idle or drift transform in it (a
    composite's children included) replaced by its loop, same fields."""
    if isinstance(spec, CompositeScenario):
        return replace(spec, children=tuple(scalar_twin(child)
                                            for child in spec.children))
    for production, loop in ((BurstyIdle, ScalarBurstyIdle),
                             (CharacteristicDrift, ScalarCharacteristicDrift)):
        if type(spec) is production:
            return loop(**{name: getattr(spec, name)
                           for name in spec.__dataclass_fields__})
    return spec
