"""Dynamic scenario engine for stress/robustness sweeps.

Scenario transforms perturb generated snippet traces (and, for throttling
scenarios, the reachable configuration space) over time, so policies can
be stressed on dynamics the static suite presets never produce.  See
:mod:`repro.scenarios.base` for the design contract and
:mod:`repro.scenarios.transforms` for the built-in scenarios registered at
import time.
"""

from repro.scenarios.base import (
    ScenarioSpec,
    ScenarioTrace,
    ThrottleEvent,
    available_scenarios,
    get_scenario,
    register_scenario,
)
from repro.scenarios.transforms import (
    BurstyIdle,
    CharacteristicDrift,
    CompositeScenario,
    ConcurrentMix,
    PhaseChurn,
    ThermalThrottle,
)
from repro.scenarios.runtime import (
    build_scenario_oracle,
    restricted_spaces,
    run_policy_on_scenario,
)

__all__ = [
    "BurstyIdle",
    "CharacteristicDrift",
    "CompositeScenario",
    "ConcurrentMix",
    "PhaseChurn",
    "ScenarioSpec",
    "ScenarioTrace",
    "ThermalThrottle",
    "ThrottleEvent",
    "available_scenarios",
    "build_scenario_oracle",
    "get_scenario",
    "register_scenario",
    "restricted_spaces",
    "run_policy_on_scenario",
]
