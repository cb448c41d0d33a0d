"""Snippet trace generation from workload specifications.

Given :class:`~repro.workloads.spec.WorkloadSpec` objects, the generator
samples the per-snippet characteristics around each phase's mean with the
configured jitter, producing the snippet sequence the SoC simulator
executes.  All of a call's jittered phases draw one ``(rows, 5)`` unit
normal block, one row per snippet in the order of ``JITTERED_FIELDS``,
which is scaled per row, exponentiated, multiplied into the phase means
and clipped with NumPy; a zero-jitter phase draws nothing.  The snippets
are made in one :func:`~repro.soc.snippet.make_snippets` call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.soc.snippet import Snippet, make_snippets
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.spec import WorkloadSpec

#: The characteristics a phase's jitter scales, in draw order.
JITTERED_FIELDS = ("memory_intensity", "memory_access_rate",
                   "external_request_rate", "branch_misprediction_mpki",
                   "ilp_factor")

#: Columns of ``JITTERED_FIELDS`` that are only floored at 0.0 (the others
#: are clipped to ``[_LOW, _HIGH]``).
_FLOORED = np.array([True, False, False, True, False])
_LOW = np.array([0.0, 0.0, 0.0, 0.0, 0.05])
_HIGH = np.array([np.inf, 1.0, 1.0, np.inf, 1.0])


def _clip(value: float, low: float, high: float) -> float:
    return float(min(max(value, low), high))


def clip_as_python(values: np.ndarray, low, high) -> np.ndarray:
    """``min(max(v, low), high)`` per value, Python's argument order kept."""
    clipped = np.where(low > values, low, values)
    return np.where(high < clipped, high, clipped)


def jitter_characteristics(means: np.ndarray, sigma: np.ndarray,
                           rng: np.random.Generator) -> np.ndarray:
    """Jittered, clipped ``(rows, 5)`` columns of ``JITTERED_FIELDS``.

    Each value of row ``i`` is its mean times ``exp(normal(0, sigma[i]))``.
    The rows with a non-zero sigma draw one unit normal block ``z``, row by
    row, and ``0.0 + sigma * z`` is ``normal(0.0, sigma)`` bit for bit on
    the same stream, so the block equals five scalar draws per row and
    leaves ``rng`` in the same state.  The clipping is Python's
    ``max(0.0, v)`` on the two MPKI columns and ``min(max(v, low), high)``
    on the rest, argument order included, so -0.0 and NaN resolve as they
    would per value.

    The block is ``normal(0.0, 1.0)``, not ``standard_normal``: the same
    values (``0.0 + 1.0 * z`` differs from ``z`` only on -0.0, which
    ``0.0 + sigma * z`` maps to 0.0 either way) through the sampler every
    other draw of a run uses, so no library code is paged in for traces
    alone.  ``np.count_nonzero`` counts the rows for the same reason.
    """
    values = np.array(means, dtype=float)
    moving = sigma != 0.0
    rows = np.count_nonzero(moving)
    if rows:
        draws = rng.normal(0.0, 1.0, size=(rows, values.shape[1]))
        values[moving] *= np.exp(0.0 + sigma[moving, None] * draws)
    return np.where(_FLOORED, np.where(values > 0.0, values, 0.0),
                    clip_as_python(values, _LOW, _HIGH))


def generate_snippets(
    specs: Sequence[WorkloadSpec],
    rng: np.random.Generator,
    snippet_factor: float = 1.0,
) -> List[Snippet]:
    """The traces of ``specs``, back to back.

    Each spec's phases are ``snippet_factor`` times as long
    (:meth:`~repro.workloads.spec.WorkloadSpec.phase_lengths`), and its
    snippets are indexed from 0.
    """
    applications: List[str] = []
    indices: List[int] = []
    instructions: List[float] = []
    parallel: List[float] = []
    threads: List[int] = []
    big: List[float] = []
    lengths: List[int] = []
    means, jitters = [], []
    for spec in specs:
        spec_lengths = spec.phase_lengths(snippet_factor)
        total = sum(spec_lengths)
        applications += [spec.name] * total
        indices += range(total)
        instructions += [spec.snippet_instructions] * total
        for phase, n in zip(spec.phases, spec_lengths):
            base = phase.characteristics
            lengths.append(n)
            means.append([getattr(base, name) for name in JITTERED_FIELDS])
            jitters.append(phase.jitter)
            # A phase's constant fields are one object each, shared by
            # all of its snippets.
            parallel += [_clip(base.parallel_fraction, 0.0, 1.0)] * n
            threads += [base.thread_count] * n
            big += [_clip(base.big_fraction, 0.0, 1.0)] * n
    if not lengths:
        return []
    columns = jitter_characteristics(
        np.repeat(np.array(means, dtype=float), lengths, axis=0),
        np.repeat(np.array(jitters, dtype=float), lengths), rng)
    snippets = make_snippets(
        applications, indices, instructions,
        **dict(zip(JITTERED_FIELDS, columns.T)),
        parallel_fraction=parallel, thread_count=threads, big_fraction=big,
    )
    return snippets


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
        return generate_snippets([spec], rng if rng is not None else self.rng)
