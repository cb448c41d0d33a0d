"""Experiment scale presets and their registry.

``ExperimentScale`` controls how long the synthetic traces are and how much
offline training is performed, so the same experiment code serves everything
from fast unit tests (``TINY``) to the full reproduction (``FULL``).  The
four presets used across the repo — ``TINY`` (unit/integration tests),
``QUICK`` (smoke runs and examples), ``BENCH`` (the benchmark harness) and
``FULL`` (the complete reproduction) — live here in a single registry so that
tests, benchmarks and the :mod:`repro.experiments.runner` CLI all resolve the
same objects by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Union


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling experiment runtime vs fidelity."""

    name: str
    train_snippet_factor: float = 0.5
    eval_snippet_factor: float = 0.5
    sequence_snippet_factor: float = 2.0
    offline_epochs: int = 120
    buffer_capacity: int = 25
    update_epochs: int = 80
    rl_offline_episodes: int = 2
    gpu_frames: int = 300
    nmpc_surface_samples: int = 250

    def __post_init__(self) -> None:
        for attr in ("train_snippet_factor", "eval_snippet_factor",
                     "sequence_snippet_factor"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")


#: Extra-small preset for fast integration tests (seconds end to end).
TINY = ExperimentScale(
    name="tiny",
    train_snippet_factor=0.15,
    eval_snippet_factor=0.15,
    sequence_snippet_factor=0.6,
    offline_epochs=40,
    buffer_capacity=10,
    update_epochs=40,
    rl_offline_episodes=1,
    gpu_frames=80,
    nmpc_surface_samples=80,
)

#: Fast preset used by unit tests and smoke runs (tens of seconds end to end).
QUICK = ExperimentScale(
    name="quick",
    train_snippet_factor=0.25,
    eval_snippet_factor=0.25,
    sequence_snippet_factor=1.0,
    offline_epochs=60,
    buffer_capacity=15,
    update_epochs=60,
    rl_offline_episodes=1,
    gpu_frames=150,
    nmpc_surface_samples=150,
)

#: Scale used by the benchmark harness: larger than the unit-test scale but
#: still minutes (not hours) end to end.
BENCH = ExperimentScale(
    name="bench",
    train_snippet_factor=0.5,
    eval_snippet_factor=0.5,
    sequence_snippet_factor=2.0,
    offline_epochs=120,
    buffer_capacity=25,
    update_epochs=80,
    rl_offline_episodes=2,
    gpu_frames=400,
    nmpc_surface_samples=300,
)

#: Full preset used by the complete reproduction (minutes end to end).
FULL = ExperimentScale(
    name="full",
    train_snippet_factor=1.0,
    eval_snippet_factor=1.0,
    sequence_snippet_factor=4.0,
    offline_epochs=150,
    buffer_capacity=50,
    update_epochs=80,
    rl_offline_episodes=3,
    gpu_frames=600,
    nmpc_surface_samples=400,
)


_SCALE_REGISTRY: Dict[str, ExperimentScale] = {
    scale.name: scale for scale in (TINY, QUICK, BENCH, FULL)
}

ScaleLike = Union[str, ExperimentScale]


def get_scale(scale: ScaleLike) -> ExperimentScale:
    """Resolve a scale by name (or pass an :class:`ExperimentScale` through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    key = str(scale).lower()
    if key not in _SCALE_REGISTRY:
        raise KeyError(
            f"unknown scale {scale!r}; available: {available_scales()}"
        )
    return _SCALE_REGISTRY[key]


def available_scales() -> List[str]:
    """Names of all registered scale presets."""
    return sorted(_SCALE_REGISTRY)
