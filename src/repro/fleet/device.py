"""Device descriptions for fleet simulations.

A :class:`DeviceSpec` captures everything that distinguishes one device of
a fleet: its name, its policy instance (with whatever learned state it
carries), its snippet trace *or* scenario trace, its own generator for
measurement noise, and an optional Oracle table for accuracy/energy
normalisation.  :func:`device_session` lowers a spec onto a
:class:`~repro.core.session.PolicySession`; :func:`build_fleet` lowers a
whole device list onto a prepared :class:`~repro.fleet.engine.FleetEngine`.

Scenario-driven devices get their snippets and throttle schedule from the
scenario trace via :func:`~repro.scenarios.runtime.make_space_schedule`,
exactly like :func:`~repro.scenarios.runtime.run_policy_on_scenario` does
for single runs — so a throttled fleet device behaves bitwise like the
equivalent sequential scenario run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.oracle import OracleTable
from repro.core.session import PolicySession
from repro.fleet.engine import FleetEngine
from repro.scenarios.base import ScenarioTrace
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet


@dataclass
class DeviceSpec:
    """One device of a simulated fleet.

    Exactly one of ``snippets`` / ``scenario`` provides the trace.  ``rng``
    is the device's private measurement-noise generator; a fleet refuses
    devices that share one (see
    :func:`~repro.fleet.engine.check_private_generators`).
    """

    name: str
    policy: DRMPolicy
    rng: np.random.Generator
    snippets: Sequence[Snippet] = field(default_factory=tuple)
    scenario: Optional[ScenarioTrace] = None
    oracle_table: Optional[OracleTable] = None

    def __post_init__(self) -> None:
        if self.scenario is not None and len(self.snippets) > 0:
            raise ValueError(
                f"device {self.name!r}: give either snippets or a scenario, "
                "not both"
            )
        if self.scenario is None and len(self.snippets) == 0:
            raise ValueError(f"device {self.name!r} has no trace to run")

    @property
    def trace(self) -> Sequence[Snippet]:
        """The snippets this device runs (its scenario's, if it has one)."""
        return self.scenario.snippets if self.scenario is not None \
            else self.snippets


def device_session(
    device: DeviceSpec,
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
) -> PolicySession:
    """Lower one :class:`DeviceSpec` onto a :class:`PolicySession`."""
    from repro.scenarios.runtime import make_space_schedule

    schedule = (make_space_schedule(base_space, device.scenario)
                if device.scenario is not None else None)
    return PolicySession(
        simulator,
        base_space,
        device.policy,
        device.trace,
        oracle_table=device.oracle_table,
        rng=device.rng,
        space_schedule=schedule,
        name=device.name,
    )


def build_fleet(
    devices: Sequence[DeviceSpec],
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
) -> FleetEngine:
    """Lower a device list onto a prepared :class:`FleetEngine`.

    :meth:`~repro.fleet.engine.FleetEngine.prepare` refuses a fleet
    outside the engine's input shape, naming the devices.
    """
    sessions: List[PolicySession] = [
        device_session(device, simulator, base_space) for device in devices
    ]
    engine = FleetEngine(sessions)
    engine.prepare()
    return engine
