"""Tests for the dynamic scenario engine.

Covers the scenario registry, the determinism, purity, pickling and
immutability contracts of every registered transform, space restriction and its
interaction with the :class:`~repro.core.oracle.OracleCache` (a throttled
window must never reuse a stale full-space Oracle entry), throttle
enforcement in the shared policy-evaluation loop, the robustness driver,
and the ``--jobs`` invariance of the scenario sweep.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from scalar_reference import trace_generator_loop
from scalar_reference.scenario_loops import scalar_twin

from repro.control.policy import GovernorPolicy, StaticPolicy
from repro.core.oracle import ENERGY, OracleCache, build_oracle
from repro.core.session import PolicySession
from repro.experiments.robustness import (
    ROBUSTNESS_POLICIES,
    format_robustness,
    run_robustness,
)
from repro.experiments.runner import ExperimentRunner, get_experiment, main
from repro.experiments.scales import TINY, ExperimentScale
from repro.scenarios import (
    BurstyIdle,
    CharacteristicDrift,
    CompositeScenario,
    PhaseChurn,
    ScenarioTrace,
    ThermalThrottle,
    ThrottleEvent,
    available_scenarios,
    build_scenario_oracle,
    get_scenario,
    register_scenario,
    run_policy_on_scenario,
)
from repro.scenarios import base as scenario_base
from repro.scenarios.base import ScenarioSpec
from repro.scenarios.runtime import restricted_spaces
from repro.soc.configuration import ConfigurationSpace
from repro.soc.governors import PowersaveGovernor
from repro.soc.simulator import characteristics_matrix
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads

REQUIRED_SCENARIOS = {
    "phase_churn", "bursty_idle", "concurrent_mix", "thermal_throttle",
    "characteristic_drift", "stress_combo",
}


@pytest.fixture(scope="module")
def base_trace():
    return build_online_sequence(
        specs=unseen_workloads(), snippet_factor=0.3, seed=0
    ).snippets


def snapshot(snippets):
    """Content snapshot of a trace (for purity checks)."""
    return [
        (s.application, s.index, s.n_instructions, s.characteristics.as_dict())
        for s in snippets
    ]


class TestRegistry:
    def test_required_scenarios_registered(self):
        names = set(available_scenarios())
        assert REQUIRED_SCENARIOS <= names
        assert len(names) >= 5

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_scenario("heat-death")

    def test_duplicate_registration_rejected(self):
        spec = PhaseChurn(name="test-duplicate")
        register_scenario(spec)
        try:
            with pytest.raises(ValueError):
                register_scenario(PhaseChurn(name="test-duplicate"))
            assert get_scenario("test-duplicate") is spec
        finally:
            scenario_base._SCENARIO_REGISTRY.pop("test-duplicate", None)


@pytest.mark.parametrize("name", sorted(REQUIRED_SCENARIOS))
class TestScenarioContracts:
    def test_same_seed_same_trace(self, name, base_trace):
        spec = get_scenario(name)
        first = spec.apply(base_trace, 7)
        second = spec.apply(base_trace, 7)
        assert snapshot(first.snippets) == snapshot(second.snippets)
        assert first.throttle_events == second.throttle_events
        assert first.scenario_name == name

    def test_input_trace_is_not_mutated(self, name, base_trace):
        before = snapshot(base_trace)
        get_scenario(name).apply(base_trace, 3)
        assert snapshot(base_trace) == before

    def test_output_names_unique_and_indexable(self, name, base_trace):
        trace = get_scenario(name).apply(base_trace, 11)
        names = [s.name for s in trace.snippets]
        assert len(set(names)) == len(names)
        for event in trace.throttle_events:
            assert 0 <= event.start < len(trace)

    def test_empty_input_rejected(self, name):
        with pytest.raises(ValueError):
            get_scenario(name).apply([], 0)

    def test_spec_survives_pickling(self, name, base_trace):
        """Where fork is unavailable a shard child gets its devices, and so
        their scenarios, pickled; the copy must perturb traces alike."""
        spec = get_scenario(name)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        original = spec.apply(base_trace, 5)
        restored = copy.apply(base_trace, 5)
        assert snapshot(restored.snippets) == snapshot(original.snippets)
        assert restored.throttle_events == original.throttle_events

    def test_registered_spec_is_immutable(self, name):
        """Every ``get_scenario`` caller shares the registered object, so
        none may change it for the others."""
        spec = get_scenario(name)
        assert get_scenario(name) is spec
        for field in dataclasses.fields(spec):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field.name, getattr(spec, field.name))
        assert hash(spec) == hash(dataclasses.replace(spec))


class TestTransformSemantics:
    def test_phase_churn_is_permutation_preserving_app_order(self, base_trace):
        trace = PhaseChurn(block=5).apply(base_trace, 2)
        assert sorted(s.name for s in trace.snippets) == sorted(
            s.name for s in base_trace
        )
        per_app = {}
        for s in trace.snippets:
            per_app.setdefault(s.application, []).append(s.index)
        for indices in per_app.values():
            assert indices == sorted(indices)

    def test_concurrent_mix_interleaves_more_than_phase_churn(self, base_trace):
        def switches(snippets):
            return sum(
                1 for a, b in zip(snippets, snippets[1:])
                if a.application != b.application
            )
        churn = get_scenario("phase_churn").apply(base_trace, 5)
        mix = get_scenario("concurrent_mix").apply(base_trace, 5)
        assert switches(mix.snippets) > switches(churn.snippets)
        assert switches(churn.snippets) >= switches(base_trace)

    def test_bursty_idle_inserts_idle_snippets(self, base_trace):
        spec = BurstyIdle(burst=8, idle_gap=2)
        trace = spec.apply(base_trace, 4)
        idle = [s for s in trace.snippets if s.application == "idle"]
        real = [s for s in trace.snippets if s.application != "idle"]
        assert snapshot(real) == snapshot(base_trace)
        expected_gaps = (len(base_trace) - 1) // spec.burst
        assert len(idle) == expected_gaps * spec.idle_gap
        assert all(s.n_instructions < base_trace[0].n_instructions
                   for s in idle)
        assert all(s.characteristics.big_fraction <= 0.2 for s in idle)

    def test_thermal_throttle_leaves_snippets_untouched(self, base_trace):
        trace = get_scenario("thermal_throttle").apply(base_trace, 9)
        assert all(a is b for a, b in zip(trace.snippets, base_trace))
        assert trace.throttle_events
        assert 0 < trace.throttled_steps() < len(trace)

    def test_characteristic_drift_ramps_memory_intensity(self, base_trace):
        spec = CharacteristicDrift(memory_intensity_scale=3.0, ilp_scale=0.7)
        trace = spec.apply(base_trace, 0)
        assert [s.name for s in trace.snippets] == [s.name for s in base_trace]
        first_ratio = (trace.snippets[0].characteristics.memory_intensity
                       / base_trace[0].characteristics.memory_intensity)
        last_ratio = (trace.snippets[-1].characteristics.memory_intensity
                      / base_trace[-1].characteristics.memory_intensity)
        assert first_ratio == pytest.approx(1.0)
        assert last_ratio == pytest.approx(3.0)
        for s in trace.snippets:
            assert 0.05 <= s.characteristics.ilp_factor <= 1.0

    def test_stress_combo_composes_reorder_drift_throttle(self, base_trace):
        trace = get_scenario("stress_combo").apply(base_trace, 6)
        assert len(trace) == len(base_trace)
        assert trace.throttle_events
        assert sorted(s.name for s in trace.snippets) == sorted(
            s.name for s in base_trace
        )

    def test_composite_requires_children(self, base_trace):
        with pytest.raises(ValueError):
            CompositeScenario(name="empty").apply(base_trace, 0)

    def test_composite_rejects_trace_changes_after_throttling(self, base_trace):
        """Throttle-event indices refer to the final trace; a child that
        reorders or inserts after a throttling child would silently throttle
        the wrong steps, so the composition must raise instead."""
        bad_reorder = CompositeScenario(
            name="bad-reorder", children=(ThermalThrottle(), PhaseChurn())
        )
        with pytest.raises(ValueError, match="throttle"):
            bad_reorder.apply(base_trace, 0)
        bad_insert = CompositeScenario(
            name="bad-insert", children=(ThermalThrottle(), BurstyIdle())
        )
        with pytest.raises(ValueError, match="throttle"):
            bad_insert.apply(base_trace, 0)
        # Throttling twice is fine — the trace is untouched in between.
        double = CompositeScenario(
            name="double-throttle",
            children=(ThermalThrottle(period=20),
                      ThermalThrottle(period=14, max_opp_index=0)),
        )
        trace = double.apply(base_trace, 0)
        assert len(trace.throttle_events) > 1


def _trace_bits(trace):
    """Characteristics bytes, names and pickle of a trace's snippets (the
    pickle adds field types and attribute order), and its caps."""
    snippets = list(trace.snippets)
    return (characteristics_matrix(snippets).tobytes(),
            [s.name for s in snippets], pickle.dumps(snippets), trace.caps())


class TestTransformsMatchScalarLoops:
    """The array transforms equal their per-snippet loops
    (``tests/scalar_reference/scenario_loops.py``) bit for bit, and leave
    the generator in the same state, on online sequences that equal the
    per-spec generator loop's."""

    @pytest.mark.parametrize("factor", [0.15, 0.6, 1.0, 2.0])
    def test_every_scenario_matches_over_seeds(self, factor):
        specs = [get_scenario(name) for name in available_scenarios()]
        # Draw paths no registered scenario takes.
        specs += [CharacteristicDrift(jitter=0.2), BurstyIdle(idle_jitter=0.0)]
        workloads = unseen_workloads()
        for seed in range(6):
            sequence = build_online_sequence(
                specs=workloads, snippet_factor=factor, seed=seed)
            reference = trace_generator_loop.build_online_sequence(
                workloads, snippet_factor=factor, seed=seed)
            assert (_trace_bits(ScenarioTrace(sequence.snippets))
                    == _trace_bits(ScenarioTrace(reference.snippets)))
            for snippets in (sequence.snippets, sequence.snippets[:1],
                             sequence.snippets[:2]):
                for spec in specs:
                    rng = np.random.default_rng(seed)
                    reference_rng = np.random.default_rng(seed)
                    trace = spec.apply(snippets, rng)
                    expected = scalar_twin(spec).apply(snippets, reference_rng)
                    assert _trace_bits(trace) == _trace_bits(expected), spec
                    assert (rng.bit_generator.state
                            == reference_rng.bit_generator.state), spec

    @pytest.mark.parametrize("factor", [0.15, 1.0])
    def test_repeated_spec_sequence_matches(self, factor):
        """Indices restart per spec, as in the per-spec loop."""
        app = unseen_workloads()[0]
        for seed in range(6):
            sequence = build_online_sequence(
                specs=[app, app], snippet_factor=factor, seed=seed)
            reference = trace_generator_loop.build_online_sequence(
                [app, app], snippet_factor=factor, seed=seed)
            assert (_trace_bits(ScenarioTrace(sequence.snippets))
                    == _trace_bits(ScenarioTrace(reference.snippets)))
            length = len(sequence) // 2
            assert [s.index for s in sequence.snippets] == 2 * list(range(length))


class TestScenarioTrace:
    def test_caps_take_tightest_active_event(self, base_trace):
        trace = ScenarioTrace(
            snippets=list(base_trace[:12]),
            throttle_events=(
                ThrottleEvent(start=0, stop=10, max_opp_index=3),
                ThrottleEvent(start=5, stop=8, max_opp_index=1),
                ThrottleEvent(start=11, stop=40, max_opp_index=2),
            ),
        )
        assert trace.caps() == [3] * 5 + [1] * 3 + [3] * 2 + [None, 2]
        assert trace.throttled_steps() == 11

    def test_throttle_event_validation(self):
        with pytest.raises(ValueError):
            ThrottleEvent(start=-1, stop=2, max_opp_index=0)
        with pytest.raises(ValueError):
            ThrottleEvent(start=3, stop=3, max_opp_index=0)
        with pytest.raises(ValueError):
            ThrottleEvent(start=0, stop=2, max_opp_index=-1)

    def test_duplicate_snippet_names_rejected(self, base_trace):
        @dataclasses.dataclass(frozen=True)
        class Duplicator(ScenarioSpec):
            name: str = "test-duplicator"

            def _transform(self, snippets, rng):
                return ScenarioTrace([snippets[0], snippets[0]])

        with pytest.raises(ValueError):
            Duplicator().apply(base_trace, 0)


class TestSpaceRestriction:
    def test_restrict_shrinks_and_composes(self, space):
        restricted = space.restrict(max_opp_index=2)
        assert 0 < len(restricted) < len(space)
        assert all(space.contains(cfg) for cfg in restricted)
        tighter = restricted.restrict(max_opp_index=1)
        assert len(tighter) < len(restricted)
        # Restricting with a looser cap keeps the tighter bound.
        still = tighter.restrict(max_opp_index=5)
        assert len(still) == len(tighter)
        assert restricted.contains(restricted.default_configuration())

    def test_repeated_one_cap_restrict_is_one_lookup(self, space,
                                                     monkeypatch):
        """A capped session step asks for ``restrict(max_opp_index=cap)``;
        after the first ask per cap no per-cluster cap is recomputed."""
        fresh = ConfigurationSpace(space.platform)
        capped = fresh.restrict(max_opp_index=1)
        loose = fresh.restrict(max_opp_index=10**6)
        calls = []
        original = ConfigurationSpace._max_opp_index

        def counted(self, cluster):
            calls.append(cluster)
            return original(self, cluster)

        monkeypatch.setattr(ConfigurationSpace, "_max_opp_index", counted)
        for _ in range(3):
            assert fresh.restrict(max_opp_index=1) is capped
            assert fresh.restrict(max_opp_index=10**6) is loose is fresh
        assert calls == []

    def test_clamp_projects_into_restricted_space(self, space):
        restricted = space.restrict(max_opp_index=1)
        for config in space:
            clamped = restricted.clamp(config)
            assert restricted.contains(clamped)
            for cluster in space.cluster_order:
                assert clamped.opp_index(cluster) <= 1
                if config.opp_index(cluster) <= 1:
                    assert clamped.opp_index(cluster) == config.opp_index(cluster)

    def test_restricted_cache_key_differs(self, space):
        restricted = space.restrict(max_opp_index=1)
        assert restricted.content_key() != space.content_key()
        # A non-binding restriction is the same space and shares the key.
        assert (space.restrict(max_opp_index=10**6).content_key()
                == space.content_key())

    def test_oracle_cache_never_reuses_full_space_entries(
            self, simulator, space, compute_snippet):
        """Satellite regression: throttled sweeps must miss the cache."""
        cache = OracleCache()
        build_oracle(simulator, space, [compute_snippet], cache=cache)
        assert cache.misses == 1
        restricted = space.restrict(max_opp_index=0)
        table = build_oracle(simulator, restricted, [compute_snippet],
                             cache=cache)
        assert cache.hits == 0 and cache.misses == 2
        assert restricted.contains(
            table.best_configuration(compute_snippet)
        )
        # Same restriction again: now it hits its own entry.
        build_oracle(simulator, space.restrict(max_opp_index=0),
                     [compute_snippet], cache=cache)
        assert cache.hits == 1


class TestScenarioRuntime:
    @pytest.fixture()
    def throttle_trace(self, base_trace):
        spec = ThermalThrottle(period=10, duty=0.5, max_opp_index=0)
        return spec.apply(base_trace[:20], 1)

    def test_restricted_spaces_one_per_cap(self, space, throttle_trace):
        spaces = restricted_spaces(space, throttle_trace)
        assert set(spaces) == {0}
        assert len(spaces[0]) < len(space)

    def test_session_clamps_into_each_steps_restricted_space(
            self, simulator, space, throttle_trace):
        """A session resolves the trace's caps against its own space: a
        capped step runs in the space ``restricted_spaces`` builds."""
        top = space[len(space) - 1]
        session = PolicySession(simulator, space, StaticPolicy(space, top),
                                throttle_trace.snippets,
                                caps=throttle_trace.caps())
        restricted = restricted_spaces(space, throttle_trace)
        for cap in throttle_trace.caps():
            step = session.decide()
            if cap is None:
                assert (step.configuration, step.throttled) == (top, False)
            else:
                assert step.throttled
                assert step.configuration == restricted[cap].clamp(top)
            session.observe(step, session.execute(step))

    def test_trace_without_events_throttles_no_step(self, simulator, space,
                                                    base_trace):
        trace = CharacteristicDrift().apply(base_trace[:5], 0)
        assert trace.caps() == [None] * 5
        run = run_policy_on_scenario(
            simulator, space, StaticPolicy(space, space[len(space) - 1]),
            trace)
        assert not run.log.column("throttled").any()

    def test_throttle_windows_enforced_on_static_policy(
            self, simulator, space, throttle_trace):
        top = space[len(space) - 1]
        run = run_policy_on_scenario(
            simulator, space, StaticPolicy(space, top), throttle_trace
        )
        throttled = run.log.column("throttled")
        big_opp = run.log.column("big_opp")
        assert throttled.sum() == throttle_trace.throttled_steps()
        for step, cap in enumerate(throttle_trace.caps()):
            if cap is not None:
                assert big_opp[step] == 0.0
            else:
                assert big_opp[step] == float(top.opp_index("big"))

    def test_scenario_oracle_respects_restrictions(
            self, simulator, space, throttle_trace):
        cache = OracleCache()
        table = build_scenario_oracle(simulator, space, throttle_trace,
                                      cache=cache)
        assert len(table.rows) == len(throttle_trace)
        restricted = space.restrict(max_opp_index=0)
        for snippet, cap in zip(throttle_trace.snippets,
                                throttle_trace.caps()):
            best = table.best_configuration(snippet)
            if cap is not None:
                assert restricted.contains(best)
            assert space.contains(best)

    def test_scenario_oracle_minimises_energy_only(
            self, simulator, space, throttle_trace):
        """The fourth parameter names the Oracle's cost: energy, the only
        one there is, is the same table as leaving it out; any other name
        raises."""
        table = build_scenario_oracle(simulator, space, throttle_trace)
        named = build_scenario_oracle(simulator, space, throttle_trace,
                                      ENERGY)
        assert named.columns.tobytes() == table.columns.tobytes()
        with pytest.raises(ValueError, match="minimises 'energy', not 'edp'"):
            build_scenario_oracle(simulator, space, throttle_trace, "edp")

    def test_framework_scenario_evaluation(self, trained_framework, base_trace):
        trace = ThermalThrottle(period=8, duty=0.5, max_opp_index=1).apply(
            base_trace[:16], 5
        )
        policy = GovernorPolicy(PowersaveGovernor(trained_framework.space))
        run = trained_framework.evaluate_policy_on_scenario(policy, trace)
        assert run.oracle_energy_j > 0.0
        assert run.normalized_energy >= 0.95
        assert len(run.log) == len(trace)

    def test_isolated_online_policy_leaves_framework_untouched(
            self, trained_framework, base_trace):
        framework = trained_framework
        weights_before = [w.copy() for w in
                          framework.offline_policy.classifier._core.weights]
        policy = framework.build_online_il_policy(
            buffer_capacity=5, update_epochs=5, isolated=True
        )
        trace = get_scenario("phase_churn").apply(base_trace[:15], 3)
        framework.evaluate_policy_on_scenario(policy, trace)
        weights_after = framework.offline_policy.classifier._core.weights
        for before, after in zip(weights_before, weights_after):
            np.testing.assert_array_equal(before, after)
        # The run must actually have adapted the isolated copy — otherwise
        # the no-mutation assertions above would be vacuous.
        assert policy.n_policy_updates > 0
        assert any(
            not np.array_equal(before, after)
            for before, after in zip(weights_before,
                                     policy.classifier._core.weights)
        )
        # The non-isolated build shares the classifier object.
        shared = framework.build_online_il_policy(buffer_capacity=5,
                                                  update_epochs=5)
        assert shared.classifier is framework.offline_policy.classifier
        assert policy.classifier is not framework.offline_policy.classifier

    def test_isolated_policies_share_space_and_platform_only(
            self, trained_framework):
        """Isolated copies keep the framework's space and platform (nothing
        mutates them) and own every piece of learning state."""
        from repro.core.online_il import OnlineILPolicy

        framework = trained_framework
        policies = [framework.build_online_il_policy(isolated=True)
                    for _ in range(2)]
        for policy in policies:
            oracle = policy.runtime_oracle
            assert policy.space is framework.space
            assert policy.offline_policy.space is framework.space
            assert oracle.space is framework.space
            assert oracle.power_model.platform is framework.platform
            assert oracle.performance_model.platform is framework.platform

        def learning_state(policy):
            oracle = policy.runtime_oracle
            return [
                policy.offline_policy, policy.classifier,
                policy.classifier._core, policy.classifier.rng,
                policy.offline_policy.scaler, policy.buffer, oracle,
                oracle.power_model, oracle.performance_model,
                oracle.power_model.rls, oracle.performance_model.rls,
            ]

        framework_state = [
            framework.offline_policy, framework.offline_policy.classifier,
            framework.offline_policy.classifier._core,
            framework.offline_policy.classifier.rng,
            framework.offline_policy.scaler, framework.power_model,
            framework.performance_model, framework.power_model.rls,
            framework.performance_model.rls,
        ]
        first, second = (learning_state(policy) for policy in policies)
        for obj in first:
            assert all(obj is not other for other in second + framework_state)
        for obj in second:
            assert all(obj is not other for other in framework_state)
        state = OnlineILPolicy._fleet_adopt(tuple(policies), {})
        assert state["members"] == tuple(policies)
        assert state["cores"] == [policy.classifier._core
                                  for policy in policies]

    def test_robustness_offline_policies_share_the_space(
            self, trained_framework):
        """The robustness driver's offline-IL copies reason over the
        framework's space object, as every fleet policy must, and own
        their classifier."""
        from repro.experiments.robustness import _policy_factories

        framework = trained_framework
        make = _policy_factories(framework, TINY)["offline-il"]
        first, second = make(), make()
        for policy in (first, second):
            assert policy.space is framework.space
            assert policy.classifier is not (
                framework.offline_policy.classifier)
        assert first.classifier is not second.classifier


class TestRobustnessDriver:
    @pytest.fixture(scope="class")
    def result(self):
        return run_robustness(TINY, seed=0,
                              scenarios=("phase_churn", "thermal_throttle"))

    def test_sweep_shape(self, result):
        assert result.scenarios() == ["phase_churn", "thermal_throttle"]
        assert result.policies() == list(ROBUSTNESS_POLICIES)
        assert len(result.rows) == 2 * len(ROBUSTNESS_POLICIES)
        for row in result.rows:
            assert row.normalized_energy >= 0.95
            assert 0.0 <= row.final_accuracy_percent <= 100.0
            assert row.n_snippets > 0
        throttle_rows = [r for r in result.rows
                         if r.scenario == "thermal_throttle"]
        assert all(r.throttled_steps > 0 for r in throttle_rows)

    def test_online_il_beats_offline_il(self, result):
        for scenario in result.scenarios():
            assert result.online_advantage(scenario) > 0.0

    def test_formatter_mentions_everything(self, result):
        text = format_robustness(result)
        for scenario in result.scenarios():
            assert scenario in text
        for policy in ROBUSTNESS_POLICIES:
            assert policy in text

    def test_unknown_inputs_rejected(self):
        with pytest.raises(KeyError):
            run_robustness(TINY, seed=0, scenarios=("no-such-scenario",))
        with pytest.raises(KeyError):
            run_robustness(TINY, seed=0, policies=("no-such-policy",))
        # An empty filter must not silently expand to the full sweep.
        with pytest.raises(ValueError):
            run_robustness(TINY, seed=0, scenarios=())


class TestJobsDeterminism:
    """Satellite: identical scenario-sweep results for any job count."""

    SCALE = ExperimentScale(
        name="scenario-determinism",
        train_snippet_factor=0.1,
        eval_snippet_factor=0.1,
        sequence_snippet_factor=0.3,
        offline_epochs=20,
        buffer_capacity=8,
        update_epochs=20,
        rl_offline_episodes=1,
        gpu_frames=40,
        nmpc_surface_samples=40,
    )

    def test_robustness_identical_across_job_counts(self):
        filter_ = ("phase_churn", "thermal_throttle")
        seeds = (0, 1, 2, 3)
        with ExperimentRunner(scale=self.SCALE, seeds=seeds, jobs=1,
                              scenario_filter=filter_) as sequential:
            seq = sequential.run("robustness")
        with ExperimentRunner(scale=self.SCALE, seeds=seeds, jobs=4,
                              scenario_filter=filter_) as parallel:
            par = parallel.run("robustness")
        assert [r.seed for r in seq.seed_runs] == [r.seed for r in par.seed_runs]
        assert [r.result for r in seq.seed_runs] == [r.result for r in par.seed_runs]

    def test_repeated_sequential_runs_identical(self):
        first = run_robustness(self.SCALE, seed=0, scenarios=("stress_combo",))
        second = run_robustness(self.SCALE, seed=0, scenarios=("stress_combo",))
        assert first == second


class TestCLI:
    def test_robustness_with_scenario_flag(self, capsys):
        assert main(["robustness", "--scenario", "phase_churn",
                     "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "phase_churn" in out
        assert "online-il" in out
        assert "thermal_throttle" not in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["robustness", "--scenario", "heat-death",
                     "--scale", "tiny"]) == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_scenario_flag_on_non_scenario_experiment_rejected(self, capsys):
        assert main(["figure2", "--scenario", "phase_churn",
                     "--scale", "tiny"]) == 2
        assert "--scenario has no effect" in capsys.readouterr().err

    def test_list_includes_scenarios(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "robustness" in out
        for name in sorted(REQUIRED_SCENARIOS):
            assert name in out

    def test_registry_spec_round_trip(self):
        spec = get_experiment("robustness")
        assert "scenario" in spec.tags
        assert callable(spec.runner)
