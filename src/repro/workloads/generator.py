"""Snippet trace generation from workload specifications.

Given a :class:`~repro.workloads.spec.WorkloadSpec`, the generator samples the
per-snippet characteristics around each phase's mean with the configured
jitter, producing the snippet sequence the SoC simulator executes.  A phase's
jitter is one ``(n_snippets, 5)`` normal block, one row per snippet in the
order of ``_JITTERED``, exponentiated, scaled and clipped with NumPy; a
zero-jitter phase draws nothing.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.spec import WorkloadSpec

#: The characteristics a phase's jitter scales, in draw order.
_JITTERED = ("memory_intensity", "memory_access_rate",
             "external_request_rate", "branch_misprediction_mpki",
             "ilp_factor")

#: Columns of ``_JITTERED`` that are only floored at 0.0 (the others
#: are clipped to ``[_LOW, _HIGH]``).
_FLOORED = np.array([True, False, False, True, False])
_LOW = np.array([0.0, 0.0, 0.0, 0.0, 0.05])
_HIGH = np.array([np.inf, 1.0, 1.0, np.inf, 1.0])


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


class SnippetTraceGenerator:
    """Expands workload specs into concrete snippet traces."""

    def __init__(self, seed: SeedLike = None) -> None:
        self.rng = make_rng(seed)

    def generate(
        self,
        spec: WorkloadSpec,
        rng: Optional[np.random.Generator] = None,
    ) -> List[Snippet]:
        """Generate the snippet trace for one application run."""
        local_rng = rng if rng is not None else self.rng
        snippets: List[Snippet] = []
        for phase in spec.phases:
            base = phase.characteristics
            shape = (phase.n_snippets, len(_JITTERED))
            means = np.array([getattr(base, name) for name in _JITTERED],
                             dtype=float)
            if phase.jitter == 0.0:
                values = np.broadcast_to(means, shape)
            else:
                values = means * np.exp(
                    local_rng.normal(0.0, phase.jitter, size=shape))
            # Python's max(0.0, v) and min(max(v, low), high), argument
            # order included, so -0.0 and NaN resolve as they would per value.
            clipped = np.where(_LOW > values, _LOW, values)
            clipped = np.where(_HIGH < clipped, _HIGH, clipped)
            rows = np.where(_FLOORED, np.where(values > 0.0, values, 0.0),
                            clipped).tolist()
            parallel_fraction = _clip(base.parallel_fraction, 0.0, 1.0)
            big_fraction = _clip(base.big_fraction, 0.0, 1.0)
            for intensity, access_rate, external_rate, mpki, ilp in rows:
                snippets.append(Snippet(
                    application=spec.name,
                    index=len(snippets),
                    n_instructions=spec.snippet_instructions,
                    characteristics=SnippetCharacteristics(
                        memory_intensity=intensity,
                        memory_access_rate=access_rate,
                        external_request_rate=external_rate,
                        branch_misprediction_mpki=mpki,
                        ilp_factor=ilp,
                        parallel_fraction=parallel_fraction,
                        thread_count=base.thread_count,
                        big_fraction=big_fraction,
                    ),
                ))
        return snippets
