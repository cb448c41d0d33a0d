"""Tests for the lockstep fleet engine and its batched kernels.

The acceptance bar is the equivalence contract: a lockstep fleet of N
devices — batched decides, batched executions, pre-drawn noise streams —
produces **bitwise-identical per-device RunLogs** to N independent
sequential runs of the same sessions.  These tests pin that contract for
every batching combination (governor fleets, mixed-policy fleets, ragged
trace lengths, throttled scenario devices, a fleet over a restricted
space, online-IL learning devices) plus the capability plumbing around
it and the refusal of every input outside the engine's one shape.
"""

from __future__ import annotations

import copy
import struct

import numpy as np
import pytest

from repro.control.policy import GovernorPolicy, StaticPolicy
from repro.core.framework import run_policy_on_snippets
from repro.core.session import PolicySession
from repro.fleet import DeviceSpec, FleetEngine, build_fleet
from repro.fleet import engine as engine_module
from repro.fleet.kernels import lockstep_execute
from repro.fleet.supervisor import FleetSupervisor
from repro.scenarios import get_scenario
from repro.scenarios.runtime import run_policy_on_scenario
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.soc.simulator import SoCSimulator, characteristics_matrix
from repro.utils.rng import make_rng
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

from test_properties import PROPERTY_SEEDS, random_platform

LOG_KEYS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp",
            "config_index")


def make_trace(i, factor=0.3, extra=0):
    generator = SnippetTraceGenerator(seed=100 + i)
    workloads = training_workloads()
    trace = generator.generate(workloads[i % len(workloads)].scaled(factor))
    for j in range(extra):
        trace.extend(generator.generate(
            workloads[(i + j + 1) % len(workloads)].scaled(factor)
        ))
    return trace


def assert_runs_bitwise_equal(reference, actual, keys=LOG_KEYS):
    assert len(reference.log) == len(actual.log)
    for key in keys:
        np.testing.assert_array_equal(
            reference.log.column(key), actual.log.column(key), err_msg=key
        )
    assert reference.total_energy_j == actual.total_energy_j
    assert reference.total_time_s == actual.total_time_s


def assert_fields_bitwise_equal(reference, actual) -> None:
    """Same attribute names and types, every float equal bit for bit.

    A :class:`SnippetResult` compares field by field, its counters
    included, so a field that only one execution form sets fails here.
    """
    assert vars(reference).keys() == vars(actual).keys()
    for name, expected in vars(reference).items():
        value = getattr(actual, name)
        assert type(value) is type(expected), name
        if isinstance(expected, PerformanceCounters):
            assert_fields_bitwise_equal(expected, value)
        elif isinstance(expected, float):
            assert struct.pack("<d", value) == struct.pack("<d", expected), \
                name
        else:
            assert value == expected, name


# --------------------------------------------------------------------- #
# Kernel-level equivalence
# --------------------------------------------------------------------- #
class TestLockstepKernel:
    @pytest.mark.parametrize(
        "platform_seed", [None, *PROPERTY_SEEDS],
        ids=["odroid", *(f"core-gated-{seed}" for seed in PROPERTY_SEEDS)])
    def test_lockstep_execute_matches_run_snippet(self, platform, space,
                                                  platform_seed):
        """Random (snippet, config) pairs: kernel == scalar, bitwise, on
        the default space and on seeded random platforms' core-gated
        spaces."""
        if platform_seed is not None:
            platform = random_platform(np.random.default_rng(platform_seed))
            space = ConfigurationSpace(platform, gated_clusters=("big", "little"))
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=0)
        rng = np.random.default_rng(42)
        snippets = [s for w in training_workloads()
                    for s in SnippetTraceGenerator(seed=5).generate(w.scaled(0.2))]
        pairs = [(snippets[int(rng.integers(len(snippets)))],
                  space.random_configuration(rng)) for _ in range(40)]

        # One private stream per lane; scalar and kernel read the same rows.
        noise = np.concatenate([
            simulator.draw_noise(1, np.random.default_rng(900 + i))
            for i in range(len(pairs))
        ])
        scalar = [
            simulator.run_snippet(snippet, config, noise[i])
            for i, (snippet, config) in enumerate(pairs)
        ]
        chars = characteristics_matrix([snippet for snippet, _ in pairs])
        opp_index = {
            name: np.array([config.opp_index(name) for _, config in pairs],
                           dtype=np.intp)
            for name in platform.cluster_names
        }
        cores = {
            name: np.array([config.cores(name) for _, config in pairs],
                           dtype=np.intp)
            for name in platform.cluster_names
        }
        batched = lockstep_execute(
            simulator, [s for s, _ in pairs], chars, opp_index, cores,
            [c for _, c in pairs], noise,
        )
        for ref, out in zip(scalar, batched):
            assert_fields_bitwise_equal(ref, out)

    def test_noise_free_kernel_matches_deterministic_run(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        trace = make_trace(0)
        config = space.default_configuration()
        scalar = [simulator.run_snippet(s, config) for s in trace]
        chars = characteristics_matrix(trace)
        n = len(trace)
        opp_index = {name: np.full(n, config.opp_index(name), dtype=np.intp)
                     for name in platform.cluster_names}
        cores = {name: np.full(n, config.cores(name), dtype=np.intp)
                 for name in platform.cluster_names}
        batched = lockstep_execute(simulator, trace, chars, opp_index, cores,
                                   [config] * n, simulator.draw_noise(n))
        for ref, out in zip(scalar, batched):
            assert ref.energy_j == out.energy_j
            assert ref.counters.as_dict() == out.counters.as_dict()


# --------------------------------------------------------------------- #
# Fleet == sequential equivalence
# --------------------------------------------------------------------- #
class TestFleetEquivalence:
    @pytest.fixture()
    def fleet_simulator(self, platform):
        return SoCSimulator(platform, noise_scale=0.01, seed=0)

    def _policies(self, space, i):
        governors = (OndemandGovernor, PowersaveGovernor, InteractiveGovernor,
                     PerformanceGovernor)
        if i % 5 == 0:
            return StaticPolicy(space)
        return GovernorPolicy(governors[i % 4](space))

    def test_mixed_policy_fleet_matches_sequential(self, fleet_simulator,
                                                   space):
        n = 10
        traces = [make_trace(i) for i in range(n)]
        sequential = [
            run_policy_on_snippets(
                fleet_simulator, space, self._policies(space, i), traces[i],
                rng=np.random.default_rng(1000 + i),
            )
            for i in range(n)
        ]
        devices = [
            DeviceSpec(name=f"d{i}", policy=self._policies(space, i),
                       snippets=traces[i], rng=np.random.default_rng(1000 + i))
            for i in range(n)
        ]
        engine = build_fleet(devices, fleet_simulator, space)
        fleet = engine.run()
        assert engine.batched_executions == engine.steps_executed
        assert engine.batched_decisions > 0
        for reference, actual in zip(sequential, fleet):
            assert_runs_bitwise_equal(reference, actual)

    def test_ragged_trace_lengths(self, fleet_simulator, space):
        """Devices finishing at different steps keep lockstep equivalence."""
        traces = [make_trace(i, extra=i % 3) for i in range(6)]
        assert len({len(t) for t in traces}) > 1
        sequential = [
            run_policy_on_snippets(
                fleet_simulator, space,
                GovernorPolicy(OndemandGovernor(space)), traces[i],
                rng=np.random.default_rng(50 + i),
            )
            for i in range(6)
        ]
        devices = [
            DeviceSpec(name=f"d{i}",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       snippets=traces[i], rng=np.random.default_rng(50 + i))
            for i in range(6)
        ]
        fleet = build_fleet(devices, fleet_simulator, space).run()
        for reference, actual in zip(sequential, fleet):
            assert_runs_bitwise_equal(reference, actual)

    def test_restricted_space_device(self, fleet_simulator, space):
        """A capped device's governor falls back to the default config
        exactly like the scalar contains-check does."""
        restricted = space.restrict(max_opp_index=2)
        trace = make_trace(1)
        sequential = run_policy_on_snippets(
            fleet_simulator, restricted,
            GovernorPolicy(PerformanceGovernor(restricted)), trace,
            rng=np.random.default_rng(9),
        )
        devices = [
            DeviceSpec(name=name,
                       policy=GovernorPolicy(PerformanceGovernor(restricted)),
                       snippets=make_trace(i), rng=np.random.default_rng(8 + i))
            for i, name in ((1, "capped"), (2, "capped-too"))
        ]
        engine = build_fleet(devices, fleet_simulator, restricted)
        fleet = engine.run()
        assert engine.batched_decisions == engine.steps_executed
        assert_runs_bitwise_equal(sequential, fleet[0])
        # The performance governor always asks for the platform maximum,
        # which the cap excludes -> every decision lands on the default.
        default_opp = float(restricted.default_configuration().opp_index("big"))
        np.testing.assert_array_equal(
            fleet[0].log.column("big_opp")[1:],  # first step keeps initial
            np.full(len(trace) - 1, default_opp),
        )

    def test_scenario_throttled_device(self, fleet_simulator, space):
        trace = make_trace(3, extra=1)
        scenario = get_scenario("thermal_throttle").apply(trace, 77)
        assert scenario.throttle_events
        sequential = run_policy_on_scenario(
            fleet_simulator, space,
            GovernorPolicy(OndemandGovernor(space)), scenario,
            rng=np.random.default_rng(21),
        )
        devices = [
            DeviceSpec(name="throttled",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       scenario=scenario, rng=np.random.default_rng(21)),
            DeviceSpec(name="plain",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       snippets=make_trace(4), rng=np.random.default_rng(22)),
        ]
        engine = build_fleet(devices, fleet_simulator, space)
        fleet = engine.run()
        assert_runs_bitwise_equal(sequential, fleet[0],
                                  keys=LOG_KEYS + ("throttled",))
        assert fleet[0].log.column("throttled").sum() > 0

    def test_online_il_fleet_matches_sequential(self, trained_framework):
        """Learning devices — batched decides (stacked oracle sweeps +
        MLP inference), batched executions AND batched observes (stacked
        RLS model updates) — stay bitwise identical to independent
        sequential runs."""
        framework = trained_framework
        simulator = framework.simulator
        space = framework.space
        n = 3
        traces = [make_trace(i, factor=0.2) for i in range(n)]
        oracles = [framework.build_oracle_for(trace) for trace in traces]

        def make_policy():
            return framework.build_online_il_policy(
                buffer_capacity=10, update_epochs=10, isolated=True,
            )

        sequential = [
            run_policy_on_snippets(
                simulator, space, make_policy(), traces[i],
                oracle_table=oracles[i], rng=np.random.default_rng(400 + i),
            )
            for i in range(n)
        ]
        devices = [
            DeviceSpec(name=f"d{i}", policy=make_policy(),
                       snippets=traces[i], oracle_table=oracles[i],
                       rng=np.random.default_rng(400 + i))
            for i in range(n)
        ]
        engine = build_fleet(devices, simulator, space)
        fleet = engine.run()
        assert engine.batched_executions == engine.steps_executed
        assert engine.batched_decisions == engine.steps_executed
        assert engine.batched_observes > 0
        for reference, actual in zip(sequential, fleet):
            assert_runs_bitwise_equal(
                reference, actual,
                keys=LOG_KEYS + ("oracle_match", "oracle_energy_j"),
            )
            assert reference.oracle_energy_j == actual.oracle_energy_j

    def test_online_il_singleton_flushes_train_on_the_stack(
            self, trained_framework, monkeypatch):
        """Devices whose buffers never fill on the same step (different
        capacities, as in the buffer-size ablation) train every flush on
        the stack as one-row groups: no ``MLPClassifier.partial_fit``
        call, and the logs stay bitwise identical to sequential runs."""
        from repro.ml.mlp import FleetMLPStack, MLPClassifier

        framework = trained_framework
        simulator = framework.simulator
        space = framework.space
        trace = make_trace(0, factor=0.4, extra=2)
        oracle = framework.build_oracle_for(trace)
        capacities = (4, 6, 10)

        def make_policy(capacity):
            return framework.build_online_il_policy(
                buffer_capacity=capacity, update_epochs=10, isolated=True,
            )

        sequential = [
            run_policy_on_snippets(
                simulator, space, make_policy(capacity), trace,
                oracle_table=oracle, rng=np.random.default_rng(500 + i),
            )
            for i, capacity in enumerate(capacities)
        ]
        devices = [
            DeviceSpec(name=f"buffer-{capacity}",
                       policy=make_policy(capacity), snippets=trace,
                       oracle_table=oracle,
                       rng=np.random.default_rng(500 + i))
            for i, capacity in enumerate(capacities)
        ]
        scalar_fits = []
        group_sizes = []
        partial_fit = MLPClassifier.partial_fit
        partial_fit_rows = FleetMLPStack.partial_fit_rows

        def counting_partial_fit(classifier, *args, **kwargs):
            scalar_fits.append(classifier)
            return partial_fit(classifier, *args, **kwargs)

        def counting_partial_fit_rows(stack, rows, *args, **kwargs):
            group_sizes.append(len(rows))
            return partial_fit_rows(stack, rows, *args, **kwargs)

        monkeypatch.setattr(MLPClassifier, "partial_fit",
                            counting_partial_fit)
        monkeypatch.setattr(FleetMLPStack, "partial_fit_rows",
                            counting_partial_fit_rows)
        fleet = build_fleet(devices, simulator, space).run()

        updates = [device.policy.n_policy_updates for device in devices]
        assert all(count > 0 for count in updates)
        assert scalar_fits == []
        assert sum(group_sizes) == sum(updates)
        assert set(group_sizes) == {1}
        for reference, actual in zip(sequential, fleet):
            assert_runs_bitwise_equal(
                reference, actual,
                keys=LOG_KEYS + ("oracle_match", "oracle_energy_j"),
            )

    def test_online_il_scenario_fleet_matches_sequential(
            self, trained_framework):
        """Learning devices under scenario schedules batch through the
        engine's clamp mirror and stay bitwise faithful, alongside a
        plain device in the same decide/observe groups."""
        framework = trained_framework
        simulator = framework.simulator
        space = framework.space

        def make_policy():
            return framework.build_online_il_policy(
                buffer_capacity=10, update_epochs=10, isolated=True,
            )

        traces = [make_trace(i, factor=0.2, extra=1) for i in range(3)]
        scenarios = [
            get_scenario("thermal_throttle").apply(traces[0], 3),
            None,
            get_scenario("phase_churn").apply(traces[2], 9),
        ]
        assert scenarios[0].throttle_events
        sequential = []
        for i, scenario in enumerate(scenarios):
            rng = np.random.default_rng(600 + i)
            if scenario is None:
                sequential.append(run_policy_on_snippets(
                    simulator, space, make_policy(), traces[i], rng=rng,
                ))
            else:
                sequential.append(run_policy_on_scenario(
                    simulator, space, make_policy(), scenario, rng=rng,
                ))
        devices = []
        for i, scenario in enumerate(scenarios):
            rng = np.random.default_rng(600 + i)
            if scenario is None:
                devices.append(DeviceSpec(name=f"d{i}", policy=make_policy(),
                                          snippets=traces[i], rng=rng))
            else:
                devices.append(DeviceSpec(name=f"d{i}", policy=make_policy(),
                                          scenario=scenario, rng=rng))
        engine = build_fleet(devices, simulator, space)
        fleet = engine.run()
        assert engine.batched_decisions > 0
        assert engine.batched_observes > 0
        for i, (reference, actual) in enumerate(zip(sequential, fleet)):
            keys = LOG_KEYS + (("throttled",) if scenarios[i] is not None
                               else ())
            assert_runs_bitwise_equal(reference, actual, keys=keys)
        assert fleet[0].log.column("throttled").sum() > 0

# --------------------------------------------------------------------- #
# Capability plumbing
# --------------------------------------------------------------------- #
class TestRefusedInputs:
    """Every input outside the engine's one shape raises before any step,
    naming the devices, the rows or the configuration."""

    @staticmethod
    def _governor_device(space, i, rng):
        return DeviceSpec(name=f"d{i}",
                          policy=GovernorPolicy(OndemandGovernor(space)),
                          snippets=make_trace(i), rng=rng)

    def test_shared_rng_is_refused(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        shared = np.random.default_rng(0)
        devices = [self._governor_device(space, i, shared) for i in range(3)]
        with pytest.raises(ValueError,
                           match=r"\['d0', 'd1', 'd2'\] share one"):
            build_fleet(devices, simulator, space)

    def test_missing_rng_is_refused(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        devices = [
            DeviceSpec(name="d0", policy=StaticPolicy(space),
                       snippets=make_trace(0), rng=make_rng(1)),
            DeviceSpec(name="d1", policy=StaticPolicy(space),
                       snippets=make_trace(1), rng=None),
        ]
        with pytest.raises(ValueError, match="'d1' has none"):
            build_fleet(devices, simulator, space)

    def test_simulator_rng_is_refused(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        devices = [self._governor_device(space, 0, make_rng(1)),
                   self._governor_device(space, 1, simulator.rng)]
        with pytest.raises(ValueError, match="'d1' holds the simulator's"):
            build_fleet(devices, simulator, space)

    def test_policy_sharing_session_rng_is_refused(self, platform, space):
        """A policy drawing from the session's generator (RandomPolicy with
        an aliased rng) would desync against pre-drawn noise."""
        from repro.control.policy import RandomPolicy

        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        shared = np.random.default_rng(5)
        devices = [DeviceSpec(name="aliased",
                              policy=RandomPolicy(space, shared),
                              snippets=make_trace(0), rng=shared)]
        with pytest.raises(ValueError,
                           match="'aliased' shares it with its policy"):
            build_fleet(devices, simulator, space)

    def test_space_of_other_content_is_refused(self, platform, space):
        """A session over a restricted space cannot join a full-space
        fleet: the kernel gathers one space's knob columns."""
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        restricted = space.restrict(max_opp_index=2)
        sessions = [
            PolicySession(simulator, space,
                          GovernorPolicy(PerformanceGovernor(space)),
                          make_trace(2), rng=make_rng(10), name="full"),
            PolicySession(simulator, restricted,
                          GovernorPolicy(PerformanceGovernor(restricted)),
                          make_trace(1), rng=make_rng(9), name="capped"),
        ]
        with pytest.raises(ValueError, match=r"\['capped'\] have a "
                                             "configuration space of other "
                                             "content than 'full'"):
            FleetEngine(sessions).prepare()

    def test_policy_over_another_space_object_is_refused(self, platform,
                                                          space):
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        twin = ConfigurationSpace(platform)
        assert twin.content_key() == space.content_key()
        devices = [self._governor_device(space, 0, make_rng(1)),
                   DeviceSpec(name="twin",
                              policy=GovernorPolicy(OndemandGovernor(twin)),
                              snippets=make_trace(1), rng=make_rng(2))]
        with pytest.raises(ValueError, match=r"\['twin'\] have a policy "
                                             "over another space object"):
            build_fleet(devices, simulator, space)

    def test_governor_current_outside_the_space_is_refused(self, platform,
                                                           space):
        """A batched governor decide meeting a current configuration
        outside the space raises :class:`KeyError` naming it."""
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        engine = build_fleet(
            [self._governor_device(space, i, make_rng(i)) for i in range(2)],
            simulator, space)
        engine.step()
        foreign = SoCConfiguration.from_dicts(
            {name: 99 for name in space.cluster_order},
            {name: space.platform.clusters[name].n_cores
             for name in space.cluster_order})
        engine.sessions[1].policy.governor.current = foreign
        with pytest.raises(KeyError, match="configuration not in space"):
            engine.step()

    def test_online_il_rows_sharing_a_policy_are_refused(
            self, trained_framework):
        framework = trained_framework
        policy = framework.build_online_il_policy(
            buffer_capacity=10, update_epochs=10, isolated=True)
        devices = [DeviceSpec(name=f"d{i}", policy=policy,
                              snippets=make_trace(i, factor=0.2),
                              rng=make_rng(600 + i))
                   for i in range(2)]
        engine = build_fleet(devices, framework.simulator, framework.space)
        with pytest.raises(ValueError, match="online-IL rows 0 and 1 of one "
                                             "fleet group share one "
                                             "OnlineILPolicy"):
            engine.step()

    def test_online_il_rows_sharing_learning_state_are_refused(
            self, trained_framework):
        """Two policies built without ``isolated=True`` share the
        framework's offline policy and models."""
        framework = trained_framework
        devices = [DeviceSpec(name=f"d{i}",
                              policy=framework.build_online_il_policy(),
                              snippets=make_trace(i, factor=0.2),
                              rng=make_rng(610 + i))
                   for i in range(3)]
        engine = build_fleet(devices, framework.simulator, framework.space)
        with pytest.raises(ValueError, match="rows 0 and 1 of one fleet "
                                             "group share one OfflineILPolicy"):
            engine.step()

    def test_online_il_current_outside_the_space_is_refused(
            self, trained_framework):
        framework = trained_framework
        space = framework.space
        devices = [DeviceSpec(name=f"d{i}",
                              policy=framework.build_online_il_policy(
                                  buffer_capacity=10, update_epochs=10,
                                  isolated=True),
                              snippets=make_trace(i, factor=0.2),
                              rng=make_rng(620 + i))
                   for i in range(2)]
        engine = build_fleet(devices, framework.simulator, space)
        engine.step()
        engine.sessions[0].policy.current = SoCConfiguration.from_dicts(
            {name: 99 for name in space.cluster_order},
            {name: space.platform.clusters[name].n_cores
             for name in space.cluster_order})
        with pytest.raises(KeyError, match="configuration not in space"):
            engine.step()


class TestRowReplacement:
    """``FleetEngine.replace`` swaps one row at a round boundary, as a
    ``set-policy`` dispatch and a supervised restart do: the step tensors
    stay as they are, the policies regroup, and every row stays bitwise
    identical to a sequential run that swaps the same policy."""

    SWAP_AT = 5

    @staticmethod
    def _fleet(simulator, space):
        devices = [
            DeviceSpec(name=f"d{i}",
                       policy=GovernorPolicy(OndemandGovernor(space)),
                       snippets=make_trace(i, extra=i % 2),
                       rng=np.random.default_rng(700 + i))
            for i in range(4)
        ]
        return build_fleet(devices, simulator, space)

    def test_policy_swap_keeps_the_tensors_and_matches_sequential(
            self, noisy_simulator, space, monkeypatch):
        engine = self._fleet(noisy_simulator, space)
        references = []
        for row, session in enumerate(engine.sessions):
            reference = PolicySession(
                noisy_simulator, space, GovernorPolicy(OndemandGovernor(space)),
                session.snippets, rng=np.random.default_rng(700 + row))
            for _ in range(self.SWAP_AT):
                reference.advance()
            references.append(reference)
        references[1].policy = GovernorPolicy(PowersaveGovernor(space))
        for _ in range(self.SWAP_AT):
            engine.step()
        tensors = (engine._chars, engine._noise)
        read = []
        monkeypatch.setattr(engine_module, "characteristics_matrix",
                            read.append)
        session = engine.sessions[1]
        session.policy = GovernorPolicy(PowersaveGovernor(space))
        engine.replace(1, session)
        assert engine._chars is tensors[0] and engine._noise is tensors[1]
        assert read == []
        assert [[engine.sessions.index(member) for member in group.sessions]
                for group in engine._decide_groups] == [[0, 2, 3], [1]]
        fleet = engine.run()
        for reference, actual in zip(references, fleet):
            assert_runs_bitwise_equal(reference.run(), actual)

    def test_policy_over_another_space_object_is_refused(
            self, noisy_simulator, platform, space):
        """The row gets prepare()'s input-shape checks, and a set-policy
        through the supervisor is refused before the session changes;
        both name the device."""
        engine = self._fleet(noisy_simulator, space)
        twin = ConfigurationSpace(platform)
        session = copy.copy(engine.sessions[2])
        session.policy = GovernorPolicy(PowersaveGovernor(twin))
        with pytest.raises(ValueError, match=r"\['d2'\] have a policy over "
                                             "another space object"):
            engine.replace(2, session)
        assert engine.sessions[2] is not session
        supervisor = FleetSupervisor(
            [DeviceSpec(name=s.name, policy=s.policy, snippets=s.snippets,
                        rng=np.random.default_rng(row))
             for row, s in enumerate(engine.sessions)],
            noisy_simulator, space)
        policy = supervisor.session_named("d2").policy
        with pytest.raises(ValueError, match="'d2' must be built over the "
                                             "session's own configuration"):
            supervisor.replace_policy(
                "d2", GovernorPolicy(PowersaveGovernor(twin)))
        assert supervisor.session_named("d2").policy is policy

    def test_a_session_over_another_trace_is_refused(self, noisy_simulator,
                                                     space):
        engine = self._fleet(noisy_simulator, space)
        other = PolicySession(noisy_simulator, space,
                              GovernorPolicy(OndemandGovernor(space)),
                              engine.sessions[1].snippets,
                              rng=np.random.default_rng(701), name="d1")
        with pytest.raises(ValueError, match="'d1' does not carry the trace "
                                             "and noise of row 1"):
            engine.replace(1, other)


class TestBatchingEligibility:
    def test_external_pending_step_is_not_clobbered(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        devices = [DeviceSpec(name="d0",
                              policy=GovernorPolicy(OndemandGovernor(space)),
                              snippets=make_trace(0), rng=make_rng(1))]
        engine = build_fleet(devices, simulator, space)
        engine.prepare()
        engine.step()
        engine.sessions[0].decide()  # out-of-band decision
        with pytest.raises(RuntimeError, match="unobserved pending"):
            engine.step()

    def test_throttled_session_batches_with_clamp_mirror(self, platform,
                                                         space):
        """Scenario-scheduled sessions batch their decides: the engine
        replays the session's clamp/throttle phase on the batched
        proposals, statement for statement."""
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        trace = make_trace(0, extra=1)
        scenario = get_scenario("thermal_throttle").apply(trace, 3)
        assert scenario.throttle_events
        sequential = run_policy_on_scenario(
            simulator, space, GovernorPolicy(OndemandGovernor(space)),
            scenario,
        )
        devices = [DeviceSpec(name="d0",
                              policy=GovernorPolicy(OndemandGovernor(space)),
                              scenario=scenario, rng=make_rng(4))]
        engine = build_fleet(devices, simulator, space)
        fleet = engine.run()
        assert engine.batched_decisions == engine.steps_executed
        assert_runs_bitwise_equal(sequential, fleet[0],
                                  keys=LOG_KEYS + ("throttled",))
        assert fleet[0].log.column("throttled").sum() > 0

    def test_gated_space_governor_not_batchable(self, platform):
        gated = ConfigurationSpace(platform, gated_clusters=("big",))
        policy = GovernorPolicy(OndemandGovernor(gated))
        assert policy.fleet_decide_key() is None

    def test_static_and_governor_keys_differ(self, space):
        static = StaticPolicy(space)
        governor = GovernorPolicy(OndemandGovernor(space))
        assert static.fleet_decide_key() is not None
        assert governor.fleet_decide_key() is not None
        assert static.fleet_decide_key() != governor.fleet_decide_key()

    def test_governor_params_split_groups(self, space):
        a = GovernorPolicy(OndemandGovernor(space, up_threshold=0.8))
        b = GovernorPolicy(OndemandGovernor(space, up_threshold=0.9))
        assert a.fleet_decide_key() != b.fleet_decide_key()

    def test_subclasses_overriding_decide_are_not_batchable(self, space):
        """A subclass with its own scalar rule must not silently replay the
        parent's batched rule in lockstep fleets."""

        class TweakedStatic(StaticPolicy):
            def decide(self, counters):
                return self.configuration

        assert TweakedStatic(space).fleet_decide_key() is None

        class TweakedOndemand(OndemandGovernor):
            def decide(self, counters):
                return super().decide(counters)

        assert GovernorPolicy(TweakedOndemand(space)).fleet_decide_key() is None

        class TweakedGovernorPolicy(GovernorPolicy):
            def decide(self, counters):
                return super().decide(counters)

        policy = TweakedGovernorPolicy(OndemandGovernor(space))
        assert policy.fleet_decide_key() is None

    def test_governor_subclass_with_own_batch_rule_stays_batchable(self, space):
        """Defining decide AND its decide_batch mirror is the escape hatch."""

        class PairedGovernor(OndemandGovernor):
            def decide(self, counters):
                return super().decide(counters)

            def decide_batch(self, utilization, current_indices):
                return super().decide_batch(utilization, current_indices)

        assert GovernorPolicy(PairedGovernor(space)).fleet_decide_key() is not None


class TestOppLookupTable:
    def test_lookup_matches_index_of(self, space):
        table = space.opp_lookup_table()
        assert table is not None
        for i, config in enumerate(space):
            key = tuple(config.opp_index(name) for name in space.cluster_order)
            assert table[key] == i

    def test_restricted_space_marks_missing_combos(self, space):
        restricted = space.restrict(max_opp_index=1)
        table = restricted.opp_lookup_table()
        assert table is not None
        assert table.max() == len(restricted) - 1
        assert (table == -1).any()

    def test_gated_space_has_no_lookup(self, platform):
        gated = ConfigurationSpace(platform, gated_clusters=("big", "little"))
        assert gated.opp_lookup_table() is None


class TestDeviceSpec:
    def test_requires_a_generator(self, space):
        with pytest.raises(TypeError, match="'rng'"):
            DeviceSpec(name="d", policy=StaticPolicy(space),
                       snippets=make_trace(0))

    def test_requires_a_trace(self, space):
        with pytest.raises(ValueError, match="no trace"):
            DeviceSpec(name="d", policy=StaticPolicy(space), rng=make_rng(0))

    def test_rejects_trace_and_scenario(self, space):
        trace = make_trace(0)
        scenario = get_scenario("phase_churn").apply(trace, 1)
        with pytest.raises(ValueError, match="not both"):
            DeviceSpec(name="d", policy=StaticPolicy(space), rng=make_rng(0),
                       snippets=trace, scenario=scenario)

    def test_seed_derives_private_stream(self, platform, space):
        simulator = SoCSimulator(platform, noise_scale=0.01, seed=0)
        devices = [DeviceSpec(name="d", policy=StaticPolicy(space),
                              snippets=make_trace(0), rng=make_rng(123))]
        first = build_fleet(devices, simulator, space).run()
        devices = [DeviceSpec(name="d", policy=StaticPolicy(space),
                              snippets=make_trace(0), rng=make_rng(123))]
        second = build_fleet(devices, simulator, space).run()
        assert_runs_bitwise_equal(first[0], second[0])


class TestFleetExperiment:
    def test_run_fleet_is_deterministic(self):
        from repro.experiments.fleet import run_fleet
        from repro.experiments.scales import TINY

        first = run_fleet(TINY, seed=0, n_devices=2)
        second = run_fleet(TINY, seed=0, n_devices=2)
        assert first.aggregates == second.aggregates
        assert first.n_devices == 2
        assert first.total_steps == sum(d.steps for d in first.devices)
        scenarios = [d.scenario for d in first.devices]
        assert scenarios[0] == ""  # baseline device
        assert any(scenarios[1:])  # scenario rotation kicked in


class TestExperimentFleetsStayBatched:
    """Experiments that run their cells as one fleet build it cleanly:
    the engine would refuse a shared or missing noise generator, or a
    policy over another space object, by raising."""

    def test_robustness(self):
        from repro.experiments.robustness import (ROBUSTNESS_POLICIES,
                                                  run_robustness)
        from repro.experiments.scales import TINY
        from repro.scenarios import available_scenarios

        result = run_robustness(TINY, seed=0)
        assert len(result.rows) == (len(available_scenarios())
                                    * len(ROBUSTNESS_POLICIES))

    def test_buffer_size_ablation(self):
        from repro.experiments.ablations import run_buffer_size_ablation
        from repro.experiments.scales import TINY

        rows = run_buffer_size_ablation(scale=TINY, seed=0)
        assert [row.buffer_capacity for row in rows] == [10, 25, 50, 100]
