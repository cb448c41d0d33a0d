"""Workload specifications.

A :class:`WorkloadSpec` describes one benchmark application as a sequence of
*phases*; each phase specifies mean snippet characteristics and how much they
jitter from snippet to snippet.  The trace generator expands a spec into a
concrete list of :class:`~repro.soc.snippet.Snippet` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.soc.snippet import DEFAULT_SNIPPET_INSTRUCTIONS, SnippetCharacteristics


@dataclass(frozen=True)
class WorkloadPhase:
    """One execution phase of an application.

    Parameters
    ----------
    characteristics:
        Mean snippet characteristics during this phase.
    n_snippets:
        Number of snippets the phase spans.
    jitter:
        Relative standard deviation applied to the continuous characteristics
        when sampling individual snippets (phase-internal variation).
    """

    characteristics: SnippetCharacteristics
    n_snippets: int = 10
    jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.n_snippets < 1:
            raise ValueError("n_snippets must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


@dataclass(frozen=True)
class WorkloadSpec:
    """A named benchmark application described by its phases."""

    name: str
    suite: str
    phases: tuple
    snippet_instructions: float = DEFAULT_SNIPPET_INSTRUCTIONS
    description: str = ""

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"workload {self.name!r} needs at least one phase")
        if self.snippet_instructions <= 0:
            raise ValueError("snippet_instructions must be positive")

    @property
    def n_snippets(self) -> int:
        return sum(phase.n_snippets for phase in self.phases)

    def phase_lengths(self, snippet_factor: float) -> List[int]:
        """Each phase's snippet count scaled by ``snippet_factor`` (at least 1)."""
        if snippet_factor <= 0:
            raise ValueError("snippet_factor must be positive")
        return [max(1, int(round(phase.n_snippets * snippet_factor)))
                for phase in self.phases]

    def scaled(self, snippet_factor: float) -> "WorkloadSpec":
        """Return a copy with each phase length scaled by ``snippet_factor``.

        Used to shorten traces in unit tests and to lengthen them for the
        long-running online sequences of Figure 3.
        """
        new_phases = tuple(
            WorkloadPhase(
                characteristics=phase.characteristics,
                n_snippets=n,
                jitter=phase.jitter,
            )
            for phase, n in zip(self.phases,
                                self.phase_lengths(snippet_factor))
        )
        return replace(self, phases=new_phases)


def single_phase_workload(
    name: str,
    suite: str,
    characteristics: SnippetCharacteristics,
    n_snippets: int = 20,
    jitter: float = 0.05,
    snippet_instructions: float = DEFAULT_SNIPPET_INSTRUCTIONS,
    description: str = "",
) -> WorkloadSpec:
    """Convenience constructor for workloads with a single steady phase."""
    return WorkloadSpec(
        name=name,
        suite=suite,
        phases=(WorkloadPhase(characteristics, n_snippets=n_snippets, jitter=jitter),),
        snippet_instructions=snippet_instructions,
        description=description,
    )
