"""Application sequences for the online-adaptation experiments.

Figure 3 of the paper runs a *sequence* of Cortex and PARSEC applications on
the board after the policies were trained offline on Mi-Bench, and tracks how
quickly each policy converges to the Oracle.  This module builds such
sequences (ordered lists of snippets with per-application boundaries) and
records the wall-clock offsets needed to plot accuracy against time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.soc.snippet import Snippet
from repro.utils.rng import SeedLike, make_rng
from repro.workloads.generator import generate_snippets
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suites import CORTEX_APPS, PARSEC_APPS


@dataclass
class ApplicationSequence:
    """An ordered snippet trace spanning several applications."""

    snippets: List[Snippet] = field(default_factory=list)
    boundaries: Dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.snippets)

    def applications(self) -> List[str]:
        """Application names in first-appearance order."""
        seen: List[str] = []
        for snippet in self.snippets:
            if snippet.application not in seen:
                seen.append(snippet.application)
        return seen


def build_online_sequence(
    specs: Optional[Sequence[WorkloadSpec]] = None,
    snippet_factor: float = 1.0,
    seed: SeedLike = 0,
) -> ApplicationSequence:
    """Build the Figure-3 style online sequence.

    By default the sequence contains every CortexSuite application followed by
    the PARSEC applications — i.e. only workloads that were *not* part of the
    offline training set — mirroring the paper's setup where the initial
    policies must adapt at runtime.
    """
    specs = (list(specs) if specs is not None
             else list(CORTEX_APPS.values()) + list(PARSEC_APPS.values()))
    snippets, starts = generate_snippets(specs, make_rng(seed), snippet_factor)
    sequence = ApplicationSequence(snippets)
    for spec, start in zip(specs, starts):
        sequence.boundaries[spec.name] = start
    return sequence
