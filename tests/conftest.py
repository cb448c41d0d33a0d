"""Shared fixtures for the test suite.

Fixtures deliberately use small platforms, short traces and low training
budgets so the whole suite stays fast while still exercising every code path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.framework import OnlineLearningFramework
from repro.experiments.scales import TINY  # noqa: F401  (re-exported for tests)
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import generic_big_little, odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens", action="store_true", default=False,
        help="rewrite tests/goldens/*.json from the current code instead of "
             "comparing against them (equivalent to REPRO_REGEN_GOLDENS=1)",
    )


@pytest.fixture(scope="session")
def platform():
    return odroid_xu3_like()


@pytest.fixture(scope="session")
def small_platform():
    return generic_big_little(n_big_levels=4, n_little_levels=3)


@pytest.fixture(scope="session")
def space(platform):
    return ConfigurationSpace(platform)


@pytest.fixture(scope="session")
def small_space(small_platform):
    return ConfigurationSpace(small_platform)


@pytest.fixture()
def simulator(platform):
    return SoCSimulator(platform, noise_scale=0.0, seed=0)


@pytest.fixture()
def noisy_simulator(platform):
    return SoCSimulator(platform, noise_scale=0.02, seed=0)


@pytest.fixture()
def compute_snippet():
    """A compute-bound, single-threaded snippet."""
    return Snippet(
        application="compute", index=0,
        characteristics=SnippetCharacteristics(
            memory_intensity=0.5, ilp_factor=0.9, branch_misprediction_mpki=1.0,
            thread_count=1, parallel_fraction=0.05, big_fraction=0.9,
        ),
    )


@pytest.fixture()
def memory_snippet():
    """A memory-bound, single-threaded snippet."""
    return Snippet(
        application="memory", index=0,
        characteristics=SnippetCharacteristics(
            memory_intensity=18.0, ilp_factor=0.5, branch_misprediction_mpki=3.0,
            thread_count=1, parallel_fraction=0.05, big_fraction=0.9,
        ),
    )


@pytest.fixture()
def parallel_snippet():
    """A multi-threaded snippet (blackscholes-like)."""
    return Snippet(
        application="parallel", index=0,
        characteristics=SnippetCharacteristics(
            memory_intensity=3.0, ilp_factor=0.85, branch_misprediction_mpki=1.5,
            thread_count=4, parallel_fraction=0.95, big_fraction=0.95,
        ),
    )


@pytest.fixture()
def trace_generator():
    return SnippetTraceGenerator(seed=0)


@pytest.fixture(scope="module")
def trained_framework():
    """Framework with a small offline-trained IL policy (shared per module)."""
    framework = OnlineLearningFramework(seed=0)
    workloads = [w.scaled(0.15) for w in training_workloads()[:4]]
    framework.train_offline(workloads, epochs=40)
    return framework


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class PinnedGPUController:
    """A GPU controller that always picks one configuration."""

    def __init__(self, config) -> None:
        self.config = config
        self.observed = []

    def reset(self) -> None:
        self.observed = []

    def decide(self, upcoming_frame=None):
        return self.config

    def observe(self, result) -> None:
        self.observed.append(result)


@pytest.fixture(scope="session")
def pinned_gpu_controller():
    """The class of a GPU controller pinned to one configuration: a
    ``GPUSimulator.run`` under it runs a trace at that configuration."""
    return PinnedGPUController
