"""Device descriptions for fleet simulations.

A :class:`DeviceSpec` captures everything that distinguishes one device of
a fleet: its name, its policy instance (with whatever learned state it
carries), its snippet trace *or* scenario trace, its own seed (or
generator) for measurement noise, an optional per-device restricted
configuration space, and an optional Oracle table for accuracy/energy
normalisation.  :func:`device_session` lowers a spec onto a
:class:`~repro.core.session.PolicySession`; :func:`build_fleet` lowers a
whole device list onto a ready :class:`~repro.fleet.engine.FleetEngine`.

Scenario-driven devices get their snippets and throttle schedule from the
scenario trace via :func:`~repro.scenarios.runtime.make_space_schedule`,
exactly like :func:`~repro.scenarios.runtime.run_policy_on_scenario` does
for single runs — so a throttled fleet device behaves bitwise like the
equivalent sequential scenario run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.oracle import OracleTable
from repro.core.session import PolicySession
from repro.fleet.engine import FleetEngine
from repro.scenarios.base import ScenarioTrace
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet
from repro.utils.rng import SeedLike, make_rng


class FleetBuildWarning(UserWarning):
    """A fleet is configured in a way that silently degrades it.

    Emitted by :func:`build_fleet` when devices share a measurement-noise
    generator (the lockstep == sequential bitwise-equivalence contract is
    lost) or when sessions will silently fall back to scalar execution
    (the batched kernel's performance is lost with no other signal).
    """


@dataclass
class DeviceSpec:
    """One device of a simulated fleet.

    Exactly one of ``snippets`` / ``scenario`` provides the trace.  ``seed``
    derives the device's private measurement-noise generator (``rng``
    overrides it with an explicit generator); fleets whose devices share a
    generator lose the lockstep==sequential equivalence, so give every
    device its own.  ``space`` optionally restricts this device to a
    subset of the fleet's base configuration space (e.g. a permanently
    capped low-cost SKU).
    """

    name: str
    policy: DRMPolicy
    snippets: Sequence[Snippet] = field(default_factory=tuple)
    scenario: Optional[ScenarioTrace] = None
    seed: Optional[SeedLike] = None
    rng: Optional[np.random.Generator] = None
    space: Optional[ConfigurationSpace] = None
    oracle_table: Optional[OracleTable] = None
    initial_configuration: Optional[SoCConfiguration] = None
    reset_policy: bool = True

    def __post_init__(self) -> None:
        if self.scenario is not None and len(self.snippets) > 0:
            raise ValueError(
                f"device {self.name!r}: give either snippets or a scenario, "
                "not both"
            )
        if self.scenario is None and len(self.snippets) == 0:
            raise ValueError(f"device {self.name!r} has no trace to run")


def device_session(
    device: DeviceSpec,
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
) -> PolicySession:
    """Lower one :class:`DeviceSpec` onto a :class:`PolicySession`."""
    from repro.scenarios.runtime import make_space_schedule

    space = device.space if device.space is not None else base_space
    if device.scenario is not None:
        snippets: Sequence[Snippet] = device.scenario.snippets
        schedule = make_space_schedule(space, device.scenario)
    else:
        snippets = device.snippets
        schedule = None
    rng = device.rng
    if rng is None and device.seed is not None:
        rng = make_rng(device.seed)
    return PolicySession(
        simulator,
        space,
        device.policy,
        snippets,
        oracle_table=device.oracle_table,
        rng=rng,
        reset_policy=device.reset_policy,
        initial_configuration=device.initial_configuration,
        space_schedule=schedule,
        name=device.name,
    )


def warn_rng_hazards(devices: Sequence[DeviceSpec],
                     simulator: SoCSimulator) -> None:
    """Warn when devices do not each own a private noise generator.

    A generator is shared when several devices get it as ``rng`` or as
    ``seed`` (:func:`device_session` uses a ``Generator`` seed as-is), or
    when it is the simulator's own.  Such devices lose the lockstep ==
    sequential bitwise contract and batched execution, and a sharded
    fleet's results then depend on the shard count, because each shard
    draws from its own copy.  Devices with neither ``seed`` nor ``rng``
    draw from the simulator's stream and execute scalar.  Only the specs
    are read, so the check runs before any session exists.
    """
    # Object-keyed map (identity hash, strong refs) — id() keys are
    # process-local and reusable after GC, so they are banned from every
    # fleet map (the lint test greps for them).
    shared: Dict[np.random.Generator, List[str]] = {}
    unseeded: List[str] = []
    for device in devices:
        rng = device.rng
        if rng is None and isinstance(device.seed, np.random.Generator):
            rng = device.seed
        if rng is not None:
            shared.setdefault(rng, []).append(device.name)
        elif device.seed is None:
            unseeded.append(device.name)
    for names in shared.values():
        if len(names) > 1:
            warnings.warn(
                f"fleet devices {names} share one measurement-noise "
                "generator: lockstep results will not be bitwise identical "
                "to sequential runs, and their executions fall back to "
                "scalar — give each device its own seed/rng",
                FleetBuildWarning, stacklevel=3,
            )
    aliased = shared.get(simulator.rng)
    if aliased:
        warnings.warn(
            f"fleet devices {aliased} use the simulator's own noise "
            "generator: sequential equivalence is lost — give each "
            "device a private seed/rng",
            FleetBuildWarning, stacklevel=3,
        )
    if unseeded:
        warnings.warn(
            f"fleet devices {unseeded} have no private noise generator "
            "(no seed/rng): they draw measurement noise from the "
            "simulator's shared stream and execute scalar — give each "
            "device its own seed",
            FleetBuildWarning, stacklevel=3,
        )


def build_fleet(
    devices: Sequence[DeviceSpec],
    simulator: SoCSimulator,
    base_space: ConfigurationSpace,
    validate: bool = True,
) -> FleetEngine:
    """Lower a device list onto a ready-to-run :class:`FleetEngine`.

    ``validate`` (default on) eagerly checks RNG independence across the
    devices and emits a :class:`FleetBuildWarning` naming the devices
    whenever the lockstep equivalence contract is compromised or sessions
    will silently execute scalar.
    """
    sessions: List[PolicySession] = [
        device_session(device, simulator, base_space) for device in devices
    ]
    engine = FleetEngine(sessions)
    if validate:
        warn_rng_hazards(devices, simulator)
        # Object-keyed (never id()) map back to the device names.
        name_of = {session: device.name
                   for device, session in zip(devices, sessions)}
        fallback = [name_of[session]
                    for session in engine.execute_fallback_sessions()]
        if fallback:
            warnings.warn(
                f"fleet devices {fallback} fall back to scalar (unbatched) "
                "execution — see FleetEngine._execute_batchable for the "
                "eligibility rules",
                FleetBuildWarning, stacklevel=2,
            )
    return engine
