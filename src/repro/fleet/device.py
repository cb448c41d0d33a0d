"""Device descriptions for fleet simulations.

A :class:`DeviceSpec` captures everything that distinguishes one device of
a fleet: its name, its policy instance (with whatever learned state it
carries), its snippet trace *or* scenario trace, its own generator for
measurement noise, and an optional Oracle table for accuracy/energy
normalisation.  :func:`device_session` lowers a spec onto a
:class:`~repro.core.session.PolicySession` (which draws its noise from
the generator); :func:`build_fleet` lowers a whole device list onto a
prepared :class:`~repro.fleet.engine.FleetEngine`, refusing devices
without a generator of their own (:func:`check_private_generators`).

Scenario-driven devices get their snippets and per-step OPP caps from the
scenario trace (:meth:`~repro.scenarios.base.ScenarioTrace.caps`),
exactly like :func:`~repro.scenarios.runtime.run_policy_on_scenario` does
for single runs — so a throttled fleet device behaves bitwise like the
equivalent sequential scenario run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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
    devices that share one (see :func:`check_private_generators`).
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


def check_private_generators(devices: Sequence[DeviceSpec],
                             simulator: SoCSimulator) -> None:
    """Raise :class:`ValueError` unless every device owns its noise generator.

    A generator is refused when it is missing, held by another device,
    the simulator's own, or held by the device's policy as ``rng`` or
    ``_rng``: each session draws its whole trace's noise when it is
    built, so a stream something else also draws from would be consumed
    in another order than by sequential runs, and a sharded fleet would
    draw from one copy per shard.
    """
    # Object-keyed map (identity hash, strong refs) — id() keys are
    # process-local and reusable after GC, so they are banned from every
    # fleet map (the lint test greps for them).
    holders: Dict[np.random.Generator, List[str]] = {}
    refused: List[str] = []
    for device in devices:
        rng = device.rng
        if rng is None:
            refused.append(f"{device.name!r} has none")
        elif rng is simulator.rng:
            refused.append(f"{device.name!r} holds the simulator's")
        elif any(getattr(device.policy, attr, None) is rng
                 for attr in ("rng", "_rng")):
            refused.append(f"{device.name!r} shares it with its policy")
        else:
            holders.setdefault(rng, []).append(device.name)
    refused.extend(f"{names} share one" for names in holders.values()
                   if len(names) > 1)
    if refused:
        raise ValueError("every fleet device needs a noise generator of "
                         "its own: " + "; ".join(refused))


def device_session(
    device: DeviceSpec,
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
) -> PolicySession:
    """Lower one :class:`DeviceSpec` onto a :class:`PolicySession`."""
    return PolicySession(
        simulator,
        base_space,
        device.policy,
        device.trace,
        oracle_table=device.oracle_table,
        rng=device.rng,
        caps=(device.scenario.caps() if device.scenario is not None
              else None),
        name=device.name,
    )


def build_fleet(
    devices: Sequence[DeviceSpec],
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
) -> FleetEngine:
    """Lower a device list onto a prepared :class:`FleetEngine`.

    :func:`check_private_generators` and then
    :meth:`~repro.fleet.engine.FleetEngine.prepare` refuse a fleet
    outside the engine's input shape, naming the devices.
    """
    check_private_generators(devices, simulator)
    sessions: List[PolicySession] = [
        device_session(device, simulator, base_space) for device in devices
    ]
    engine = FleetEngine(sessions)
    engine.prepare()
    return engine
