"""Tests for fault injection, fleet supervision and graceful degradation.

The acceptance bar is two invariants layered on the fleet equivalence
contract:

* **zero-fault identity** — a supervised fleet with an empty fault plan is
  bitwise identical to a bare :class:`~repro.fleet.engine.FleetEngine`;
* **quarantine isolation** — when K devices crash, the surviving N-K
  devices are bitwise identical to a fleet built without the crashed
  devices, and a recovered device is bitwise identical to an
  uninterrupted run.

Plus the degradation paths around them: deterministic plan generation,
serializable fault specs, online-IL gating of corrupted telemetry, and
the build-time refusal of fleets the lockstep kernel cannot run.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.control.policy import GovernorPolicy
from repro.fleet import (
    CounterDropout,
    DeviceCrash,
    DeviceHealth,
    DeviceSpec,
    FaultPlan,
    FleetEngine,
    FleetSupervisor,
    SnapshotRestart,
    StragglerStall,
    TelemetryCorruption,
    build_fleet,
    device_session,
    fault_from_dict,
)
from repro.scenarios import get_scenario
from repro.soc.governors import (OndemandGovernor, PerformanceGovernor,
                                 PowersaveGovernor)
from repro.soc.simulator import SoCSimulator
from repro.utils.rng import make_rng
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

LOG_KEYS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp")


def make_trace(i, factor=0.3):
    generator = SnippetTraceGenerator(seed=100 + i)
    workloads = training_workloads()
    return generator.generate(workloads[i % len(workloads)].scaled(factor))


def governor_devices(space, n=4):
    """Fresh governor fleet (policies and rngs are stateful: never reuse)."""
    return [
        DeviceSpec(
            name=f"dev{i}",
            policy=GovernorPolicy(OndemandGovernor(space)) if i % 2 == 0
            else GovernorPolicy(PowersaveGovernor(space)),
            snippets=make_trace(i),
            rng=make_rng(10 + i),
        )
        for i in range(n)
    ]


def assert_logs_equal(reference, actual, keys=LOG_KEYS):
    assert len(reference.log) == len(actual.log)
    for key in keys:
        np.testing.assert_array_equal(
            reference.log.column(key), actual.log.column(key), err_msg=key
        )


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #
class TestFaultPlan:
    def test_generation_is_deterministic(self):
        names = ["dev0", "dev1", "dev2", "dev3"]
        left = FaultPlan.generate(names, 1.0, seed=7, horizon=10)
        right = FaultPlan.generate(names, 1.0, seed=7, horizon=10)
        assert left == right
        assert FaultPlan.generate(names, 1.0, seed=8, horizon=10) != left

    def test_per_device_streams_are_independent(self):
        """A device's fault depends only on the seed and its own name."""
        full = FaultPlan.generate(["a", "b", "c"], 1.0, seed=3, horizon=10)
        solo = FaultPlan.generate(["b"], 1.0, seed=3, horizon=10)
        assert full.for_device("b") == solo.for_device("b")

    def test_rate_zero_is_empty_and_rate_one_faults_everyone(self):
        names = ["dev0", "dev1", "dev2"]
        assert len(FaultPlan.generate(names, 0.0, seed=1)) == 0
        full = FaultPlan.generate(names, 1.0, seed=1)
        assert full.device_names() == sorted(names)

    def test_fault_is_stable_across_rates(self):
        """Raising the rate adds devices; it never changes existing faults."""
        names = [f"dev{i}" for i in range(8)]
        half = FaultPlan.generate(names, 0.5, seed=2)
        full = FaultPlan.generate(names, 1.0, seed=2)
        for name in half.device_names():
            assert half.for_device(name) == full.for_device(name)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="fault_rate"):
            FaultPlan.generate(["a"], 1.5)
        with pytest.raises(ValueError, match="horizon"):
            FaultPlan.generate(["a"], 0.5, horizon=1)

    def test_plan_round_trips_through_dicts(self):
        """Each fault survives the dict form ``RunConfig.faults`` carries."""
        plan = FaultPlan.generate([f"dev{i}" for i in range(6)], 1.0, seed=5)
        assert len(plan) == 6
        restored = FaultPlan(faults=tuple(fault_from_dict(fault.to_dict())
                                          for fault in plan.faults),
                             seed=plan.seed)
        assert restored == plan

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="device name"):
            DeviceCrash(device="", step=1)
        with pytest.raises(ValueError, match="non-negative"):
            DeviceCrash(device="dev0", step=-1)
        with pytest.raises(ValueError, match="unknown counter fields"):
            CounterDropout(device="dev0", step=1, fields=("bogus",))
        with pytest.raises(ValueError, match="gain"):
            TelemetryCorruption(device="dev0", step=1, gain=0.5)
        with pytest.raises(ValueError, match="rounds"):
            StragglerStall(device="dev0", step=1, rounds=0)
        with pytest.raises(KeyError, match="unknown fault type"):
            fault_from_dict({"type": "NotAFault", "params": {}})


# --------------------------------------------------------------------- #
# Observation-fault purity
# --------------------------------------------------------------------- #
class TestObservationFaults:
    def _result(self, noisy_simulator, space):
        snippet = make_trace(0)[0]
        return noisy_simulator.run_snippet(
            snippet, space.default_configuration(),
            noisy_simulator.draw_noise(1, np.random.default_rng(0))[0],
        )

    def test_corrupt_is_pure_and_keeps_physics(self, noisy_simulator, space):
        original = self._result(noisy_simulator, space)
        before = original.counters.as_dict()
        fault = CounterDropout(device="dev0", step=0)
        corrupted = fault.corrupt(original)
        # Energy/time are measured physics, not telemetry: untouched.
        assert corrupted.energy_j == original.energy_j
        assert corrupted.execution_time_s == original.execution_time_s
        assert np.isnan(corrupted.counters.big_cluster_utilization)
        assert not corrupted.counters.is_valid()
        # The input result was not mutated.
        assert original.counters.as_dict() == before
        assert original.counters.is_valid()

    def test_telemetry_corruption_is_detectable(self, noisy_simulator, space):
        original = self._result(noisy_simulator, space)
        fault = TelemetryCorruption(device="dev0", step=0, gain=1e6)
        corrupted = fault.corrupt(original)
        assert corrupted.counters.big_cluster_utilization > 1.0
        assert not corrupted.counters.is_valid()


# --------------------------------------------------------------------- #
# Supervisor invariants
# --------------------------------------------------------------------- #
class TestSupervisorInvariants:
    def test_zero_fault_supervised_fleet_is_bitwise_identical(
            self, noisy_simulator, space):
        reference = build_fleet(governor_devices(space), noisy_simulator,
                                space).run()
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space)
        supervised = supervisor.run()
        for ref, got in zip(reference, supervised):
            assert_logs_equal(ref, got)
        assert all(report.health == "healthy" and not report.supervised
                   for report in supervisor.reports())

    def test_crash_quarantine_isolates_survivors(self, noisy_simulator,
                                                 space):
        """Survivors of a crashed fleet == a fleet built without the dead."""
        plan = FaultPlan(faults=(DeviceCrash("dev1", 3),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, max_restarts=0)
        results = supervisor.run()
        survivors = build_fleet(
            [d for d in governor_devices(space) if d.name != "dev1"],
            noisy_simulator, space,
        ).run()
        for survivor, slot in zip(survivors, (0, 2, 3)):
            assert_logs_equal(survivor, results[slot])
        report = {r.name: r for r in supervisor.reports()}["dev1"]
        assert report.health == "quarantined"
        assert not report.completed
        assert report.steps_completed == 3  # truncated at the crash
        assert supervisor.survival_fraction == pytest.approx(0.75)

    def test_health_map_matches_health_of(self, noisy_simulator, space):
        """Supervised and engine devices alike, in fleet order."""
        plan = FaultPlan(faults=(DeviceCrash("dev1", 3),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, max_restarts=0)
        names = [device.name for device in supervisor.devices]

        def checked_health_map():
            health = supervisor.health_map()
            assert list(health) == names
            assert health == {name: supervisor.health_of(name)
                              for name in names}
            return health

        checked_health_map()
        supervisor.run()
        health = checked_health_map()
        assert health["dev1"] is DeviceHealth.QUARANTINED
        assert health["dev0"] is DeviceHealth.HEALTHY

    def test_crash_recovery_is_bitwise_identical_to_uninterrupted(
            self, noisy_simulator, space):
        reference = build_fleet(governor_devices(space), noisy_simulator,
                                space).run()
        plan = FaultPlan(faults=(DeviceCrash("dev1", 3),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, snapshot_every=2,
                                     max_restarts=2)
        results = supervisor.run()
        for ref, got in zip(reference, results):
            assert_logs_equal(ref, got)
        report = {r.name: r for r in supervisor.reports()}["dev1"]
        assert report.health == "recovered"
        assert report.restarts == 1
        assert report.replayed_steps > 0  # snapshot at 2, crash at 3
        assert report.wasted_energy_j > 0
        assert supervisor.survival_fraction == 1.0

    def test_stall_triggers_watchdog_then_recovers(self, noisy_simulator,
                                                   space):
        reference = build_fleet(governor_devices(space), noisy_simulator,
                                space).run()
        plan = FaultPlan(faults=(StragglerStall("dev2", 2, rounds=8),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, watchdog_rounds=2,
                                     snapshot_every=2)
        results = supervisor.run()
        for ref, got in zip(reference, results):
            assert_logs_equal(ref, got)
        history = supervisor.health_history("dev2")
        assert DeviceHealth.DEGRADED in history      # flagged first
        assert DeviceHealth.QUARANTINED in history   # flatline confirmed
        assert history[-1] is DeviceHealth.RECOVERED
        report = {r.name: r for r in supervisor.reports()}["dev2"]
        assert report.watchdog_flags >= 1
        assert report.completed

    def test_short_stall_self_recovers_without_quarantine(
            self, noisy_simulator, space):
        """A hang shorter than the flatline window clears on its own."""
        plan = FaultPlan(faults=(StragglerStall("dev0", 2, rounds=3),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, watchdog_rounds=3)
        supervisor.run()
        history = supervisor.health_history("dev0")
        assert DeviceHealth.QUARANTINED not in history
        assert history[-1] is DeviceHealth.HEALTHY
        report = {r.name: r for r in supervisor.reports()}["dev0"]
        assert report.completed and report.restarts == 0

    def test_snapshot_restart_fault_completes_bitwise(self, noisy_simulator,
                                                      space):
        reference = build_fleet(governor_devices(space), noisy_simulator,
                                space).run()
        plan = FaultPlan(faults=(SnapshotRestart("dev0", 4),))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, snapshot_every=3)
        results = supervisor.run()
        for ref, got in zip(reference, results):
            assert_logs_equal(ref, got)
        report = {r.name: r for r in supervisor.reports()}["dev0"]
        assert report.restarts == 1
        assert report.replayed_steps == 1  # snapshot at 3, reboot at 4

    def test_scenario_device_recovers_with_rebuilt_schedule(
            self, noisy_simulator, space):
        """Crash-restore on a throttled device rebuilds its space schedule."""
        def devices():
            specs = governor_devices(space, n=2)
            scenario = get_scenario("thermal_throttle").apply(
                make_trace(2), 123
            )
            specs.append(DeviceSpec(
                name="dev2", policy=GovernorPolicy(OndemandGovernor(space)),
                scenario=scenario, rng=make_rng(12),
            ))
            return specs

        reference = build_fleet(devices(), noisy_simulator, space).run()
        assert np.nansum(reference[2].log.column("throttled")) > 0
        plan = FaultPlan(faults=(DeviceCrash("dev2", 3),))
        supervisor = FleetSupervisor(devices(), noisy_simulator, space,
                                     plan=plan, snapshot_every=2)
        results = supervisor.run()
        for ref, got in zip(reference, results):
            assert_logs_equal(ref, got)
        np.testing.assert_array_equal(
            reference[2].log.column("throttled"),
            results[2].log.column("throttled"),
        )

    def test_plan_named_devices_batch(self, noisy_simulator, space):
        """Faulted devices step inside the engine: every executed step,
        replays included, runs through the batched kernel."""
        reference = build_fleet(governor_devices(space), noisy_simulator,
                                space).run()
        plan = FaultPlan(faults=(DeviceCrash("dev1", 3),
                                 StragglerStall("dev2", 2, rounds=8)))
        supervisor = FleetSupervisor(governor_devices(space), noisy_simulator,
                                     space, plan=plan, snapshot_every=2,
                                     watchdog_rounds=2)
        results = supervisor.run()
        for ref, got in zip(reference, results):
            assert ref.log.table().tobytes() == got.log.table().tobytes()
        engine = supervisor.engine
        assert engine.steps_executed == sum(
            report.steps_completed + report.replayed_steps
            for report in supervisor.reports()
        )
        assert engine.batched_executions == engine.steps_executed

    def test_supervisor_validation(self, noisy_simulator, space):
        plan = FaultPlan(faults=(DeviceCrash("ghost", 1),))
        with pytest.raises(ValueError, match="not in the fleet"):
            FleetSupervisor(governor_devices(space), noisy_simulator, space,
                            plan=plan)
        with pytest.raises(ValueError, match="at least one device"):
            FleetSupervisor([], noisy_simulator, space)
        with pytest.raises(ValueError, match="snapshot_every"):
            FleetSupervisor(governor_devices(space), noisy_simulator, space,
                            snapshot_every=0)
        with pytest.raises(KeyError):
            supervisor = FleetSupervisor(governor_devices(space),
                                         noisy_simulator, space)
            supervisor.health_of("ghost")


class TestPolicySwap:
    def test_swap_survives_a_later_restore(self, noisy_simulator, space):
        """A crash after a policy swap restores the swapped-in policy: the
        run matches the same swap without the crash, bitwise."""
        def run(plan):
            devices = [
                DeviceSpec(name=f"dev{i}",
                           policy=GovernorPolicy(OndemandGovernor(space)),
                           snippets=make_trace(i, factor=1.5),
                           rng=make_rng(10 + i))
                for i in range(3)
            ]
            supervisor = FleetSupervisor(devices, noisy_simulator, space,
                                         plan=plan, snapshot_every=5)
            for _ in range(7):
                supervisor.step_round()
            session = supervisor.session_named("dev1")
            supervisor.replace_policy(
                "dev1", GovernorPolicy(PerformanceGovernor(session.space)))
            supervisor.run()
            return supervisor.session_named("dev1")

        reference = run(None)
        crashed = run(FaultPlan(faults=(DeviceCrash("dev1", 9),)))
        assert crashed.policy.name == "governor-PerformanceGovernor"
        assert crashed.log.table().tobytes() == reference.log.table().tobytes()
        assert crashed.total_energy_j == reference.total_energy_j


# --------------------------------------------------------------------- #
# Online-IL degradation under corrupted telemetry
# --------------------------------------------------------------------- #
class TestOnlineILGating:
    def test_corrupted_counters_are_rejected_not_learned(
            self, trained_framework):
        framework = trained_framework
        policy = framework.build_online_il_policy(
            buffer_capacity=10, update_epochs=5, isolated=True,
        )
        trace = make_trace(0)
        devices = [
            DeviceSpec(name="il", policy=policy, snippets=trace,
                       rng=make_rng(3)),
            DeviceSpec(name="gov",
                       policy=GovernorPolicy(OndemandGovernor(framework.space)),
                       snippets=make_trace(1), rng=make_rng(4)),
        ]
        plan = FaultPlan(faults=(
            CounterDropout("il", 1),
            TelemetryCorruption("il", 3),
        ))
        supervisor = FleetSupervisor(devices, framework.simulator,
                                     framework.space, plan=plan)
        with warnings.catch_warnings():
            # NaN telemetry must never leak into numpy reductions.
            warnings.simplefilter("error", RuntimeWarning)
            supervisor.run()
        assert policy.n_rejected_updates >= 2
        assert policy.n_rejected_decisions >= 1
        assert policy.diagnostics()["rejected_updates"] >= 2
        report = {r.name: r for r in supervisor.reports()}["il"]
        assert report.corrupted_observations == 2
        assert report.completed


# --------------------------------------------------------------------- #
# Fleets the lockstep kernel cannot run are refused at build time
# --------------------------------------------------------------------- #
class _OverridingSimulator(SoCSimulator):
    """Overrides ``run_snippet``, which the lockstep kernel cannot replay."""

    def run_snippet(self, *args, **kwargs):
        return super().run_snippet(*args, **kwargs)


class _OverridingLanesSimulator(SoCSimulator):
    """Overrides ``execute_lanes``: a lone session would run the override
    and a fleet SoCSimulator's."""

    def execute_lanes(self, *args, **kwargs):
        return super().execute_lanes(*args, **kwargs)


class TestBuildFleetRefusals:
    def test_shared_rng_raises_with_device_names(self, noisy_simulator,
                                                 space):
        shared = np.random.default_rng(0)
        devices = [
            DeviceSpec(name=f"dev{i}",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       snippets=make_trace(i), rng=shared)
            for i in range(2)
        ]
        with pytest.raises(ValueError,
                           match=r"\['dev0', 'dev1'\] share one"):
            build_fleet(devices, noisy_simulator, space)

    def test_missing_rng_raises_with_device_name(self, noisy_simulator,
                                                 space):
        devices = [DeviceSpec(name="dev0",
                              policy=GovernorPolicy(OndemandGovernor(space)),
                              snippets=make_trace(0), rng=None)]
        with pytest.raises(ValueError, match="'dev0' has none"):
            build_fleet(devices, noisy_simulator, space)

    def test_clean_fleet_builds_without_warnings(self, noisy_simulator,
                                                 space):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_fleet(governor_devices(space), noisy_simulator, space)

    @pytest.mark.parametrize("simulator_cls, method", [
        (_OverridingSimulator, "run_snippet"),
        (_OverridingLanesSimulator, "execute_lanes"),
    ], ids=["run_snippet", "execute_lanes"])
    def test_simulator_overriding_an_execution_method_raises(
            self, platform, space, simulator_cls, method):
        simulator = simulator_cls(platform, noise_scale=0.02, seed=0)
        with pytest.raises(ValueError,
                           match=r"\['dev0', 'dev1'\] run on "
                                 f"{simulator_cls.__name__}, which overrides "
                                 f"{method}:"):
            build_fleet(governor_devices(space, n=2), simulator, space)

    def test_session_on_another_simulator_raises(self, noisy_simulator,
                                                 platform, space):
        other = SoCSimulator(platform, noise_scale=0.02, seed=0)
        sessions = [device_session(device,
                                   other if i == 1 else noisy_simulator,
                                   space)
                    for i, device in enumerate(governor_devices(space))]
        engine = FleetEngine(sessions)
        with pytest.raises(ValueError, match=r"\['dev1'\] run on another "
                                             "simulator object than 'dev0'"):
            engine.step()
        assert all(session.step_index == 0 for session in sessions)


# --------------------------------------------------------------------- #
# Engine rebuilds (what a supervised restart or policy swap does)
# --------------------------------------------------------------------- #
def ragged_devices(space):
    """Fresh governor fleet whose traces are 7, 24, 7 and 24 steps."""
    return [
        DeviceSpec(
            name=f"dev{i}",
            policy=GovernorPolicy(OndemandGovernor(space)),
            snippets=make_trace(i, factor=0.3 if i % 2 == 0 else 1.0),
            rng=make_rng(10 + i),
        )
        for i in range(4)
    ]


class TestEngineRebuild:
    @pytest.mark.parametrize("noisy", [True, False],
                             ids=["noisy", "noise-free"])
    def test_rebuilt_engine_continues_every_row_bitwise(
            self, noisy_simulator, simulator, space, noisy):
        """Rows 0 and 2 finish, a new engine adopts every session (the
        finished ones included), and each row ends equal to its
        sequential run: sessions carry their noise."""
        sim = noisy_simulator if noisy else simulator
        engine = build_fleet(ragged_devices(space), sim, space)
        while not engine.sessions[0].done:
            engine.step()
        engine.step()
        rebuilt = FleetEngine(list(engine.sessions))
        rebuilt.step()
        assert [s.done for s in rebuilt.sessions] == [True, False] * 2
        rebuilt.run()
        for device, session in zip(ragged_devices(space), rebuilt.sessions):
            reference = device_session(device, sim, space).run()
            assert_logs_equal(reference, session.result())
            assert reference.total_energy_j == session.total_energy_j
