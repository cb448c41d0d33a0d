"""The per-snippet trace generation loop (oracle of the trace generator).

:func:`~repro.workloads.generator.generate_snippets` (behind
``SnippetTraceGenerator.generate`` and ``build_online_sequence``) draws
all of a call's jittered phases as one normal block and exponentiates,
scales and clips it with NumPy.  :class:`ScalarSnippetTraceGenerator` is
the loop it replaced: per snippet, five scalar ``rng.normal`` draws (memory
intensity, access rate, external rate, branch MPKI, ILP), each
exponentiated on its own, and Python ``max``/``min`` clipping.
:func:`build_online_sequence` is the per-spec loop over it: each spec
scaled with ``WorkloadSpec.scaled`` and generated in turn.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.sequences import ApplicationSequence
from repro.workloads.spec import WorkloadPhase, WorkloadSpec


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


class ScalarSnippetTraceGenerator(SnippetTraceGenerator):
    """:class:`SnippetTraceGenerator` with the per-snippet draw loop."""

    def _sample_characteristics(
        self, phase: WorkloadPhase, rng: np.random.Generator
    ) -> SnippetCharacteristics:
        base = phase.characteristics
        jitter = phase.jitter

        def wobble(value: float) -> float:
            if jitter == 0.0:
                return value
            return value * float(np.exp(rng.normal(0.0, jitter)))

        return SnippetCharacteristics(
            memory_intensity=max(0.0, wobble(base.memory_intensity)),
            memory_access_rate=_clip(wobble(base.memory_access_rate), 0.0, 1.0),
            external_request_rate=_clip(wobble(base.external_request_rate), 0.0, 1.0),
            branch_misprediction_mpki=max(0.0, wobble(base.branch_misprediction_mpki)),
            ilp_factor=_clip(wobble(base.ilp_factor), 0.05, 1.0),
            parallel_fraction=_clip(base.parallel_fraction, 0.0, 1.0),
            thread_count=base.thread_count,
            big_fraction=_clip(base.big_fraction, 0.0, 1.0),
        )

    def generate(
        self,
        spec: WorkloadSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Snippet]:
        """Generate the snippet trace for one application run."""
        local_rng = rng if rng is not None else self.rng
        snippets: List[Snippet] = []
        index = 0
        for phase in spec.phases:
            for _ in range(phase.n_snippets):
                characteristics = self._sample_characteristics(phase, local_rng)
                snippets.append(
                    Snippet(
                        application=spec.name,
                        index=index,
                        n_instructions=spec.snippet_instructions,
                        characteristics=characteristics,
                    )
                )
                index += 1
        return snippets


def build_online_sequence(
    specs: Sequence[WorkloadSpec],
    snippet_factor: float = 1.0,
    seed: SeedLike = 0,
) -> ApplicationSequence:
    """The online sequence of ``specs``, one scaled spec at a time."""
    rng = make_rng(seed)
    generator = ScalarSnippetTraceGenerator(seed=rng)
    sequence = ApplicationSequence()
    for spec in specs:
        scaled = spec.scaled(snippet_factor) if snippet_factor != 1.0 else spec
        sequence.boundaries[spec.name] = len(sequence.snippets)
        sequence.snippets.extend(generator.generate(scaled, rng=rng))
    return sequence
