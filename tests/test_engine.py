"""Tests for the vectorized Oracle sweep and the experiment plumbing.

Covers batch-vs-scalar Oracle sweep parity (bitwise, column by column),
the noise-free results rebuilt from a table, the exact number of
simulator results an Oracle build and offline training create (and the
offline executions against the scalar SoC model), the
:class:`~repro.core.oracle.OracleCache` hit/miss behaviour, the scale
registry, and the experiment registry / runner / CLI round-trips.
"""

import copy
import dataclasses
import pickle
from collections import Counter

import numpy as np
import pytest

import repro.core.oracle as oracle_module
from repro.core.oracle import (
    OracleCache,
    build_oracle,
    content_keys,
    oracle_results,
)
from repro.core.oracle_store import ORACLE_COLUMNS
from repro.experiments.runner import (
    ExperimentRunner,
    available_experiments,
    get_experiment,
    main,
    register_experiment,
)
from repro.experiments.scales import (
    BENCH,
    FULL,
    QUICK,
    TINY,
    available_scales,
    get_scale,
)
from repro.scenarios.base import ScenarioTrace, ThrottleEvent
from repro.scenarios.runtime import build_scenario_oracle, restricted_spaces
from repro.soc.configuration import ConfigurationSpace
from repro.soc.simulator import (SnippetResult, SoCBatchResult,
                                 characteristics_matrix)
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import get_workload

from scalar_reference import oracle_loop, soc_scalar


@pytest.fixture(scope="module")
def sweep_trace():
    generator = SnippetTraceGenerator(seed=7)
    return generator.generate(get_workload("kmeans").scaled(0.3))


#: Workloads whose energy-minimising configurations lie in different parts
#: of the space, from the lowest OPPs (memory-bound kmeans) to the big
#: cluster's higher ones (compute-bound sha), so the sweep paths are
#: compared on argmins at several columns.
PARITY_APPS = ("kmeans", "spectral", "dijkstra", "fft", "sha")


@pytest.fixture(scope="module", params=PARITY_APPS)
def parity_trace(request):
    generator = SnippetTraceGenerator(seed=7)
    return generator.generate(get_workload(request.param).scaled(0.3))


def _keys(snippets):
    """Content keys of ``snippets``, cut from their own characteristic rows."""
    return content_keys(snippets, characteristics_matrix(snippets))


def _one_cluster_snippets():
    """Snippets whose instructions all run on one cluster (the other
    cluster's share is exactly zero), serial and parallel."""
    return [
        Snippet("one-cluster", index, characteristics=SnippetCharacteristics(
            big_fraction=big_fraction, thread_count=threads,
            parallel_fraction=0.6 if threads > 1 else 0.0))
        for index, (big_fraction, threads) in enumerate(
            [(0.0, 1), (1.0, 1), (0.0, 4), (1.0, 3)])
    ]


def _column_results(batch, column):
    """The results of every snippet of a sweep at configuration ``column``:
    each array broadcast to the sweep's shape and cut to that column, as a
    lane batch of one snippet per lane."""
    rows = np.arange(len(batch.snippets))

    def at(values):
        return np.broadcast_to(values, batch.energy_j.shape)[rows, column]

    arrays = {}
    for field in dataclasses.fields(SoCBatchResult)[2:]:
        values = getattr(batch, field.name)
        arrays[field.name] = ({key: at(value) for key, value in values.items()}
                              if isinstance(values, dict) else at(values))
    return SoCBatchResult(batch.snippets,
                          [batch.configurations[column]] * len(rows),
                          **arrays).lane_results()


def _assert_tables_bitwise_equal(reference, table):
    """Same names in the same order, the same space, and every column's
    bytes equal row by row."""
    assert list(reference.rows) == list(table.rows)
    assert table.space is reference.space
    reference_rows = list(reference.rows.values())
    table_rows = list(table.rows.values())
    for column in ORACLE_COLUMNS.names:
        assert (reference.columns[column][reference_rows].tobytes()
                == table.columns[column][table_rows].tobytes()), column


class TestBatchSweepParity:
    def test_batch_matches_scalar_results_bitwise(self, simulator, space,
                                                  sweep_trace):
        """Every (snippet, configuration) pair of one sweep, materialised
        as a lane batch of one snippet per lane, pickles to the scalar
        model's noise-free result."""
        snippets = list(sweep_trace[:3]) + _one_cluster_snippets()
        batch = simulator.evaluate_expected_batch(
            snippets, space, characteristics_matrix(snippets))
        assert batch.energy_j.shape == (len(snippets), len(space))
        for column, config in enumerate(space):
            lanes = _column_results(batch, column)
            for snippet, materialized in zip(snippets, lanes):
                reference = soc_scalar.evaluate_expected(simulator, snippet,
                                                         config)
                assert materialized.configuration is config
                assert pickle.dumps(materialized) == pickle.dumps(reference)

    def test_oracle_tables_identical_across_paths(self, simulator, space,
                                                  parity_trace):
        snippets = list(parity_trace) + _one_cluster_snippets()
        scalar = oracle_loop.build_oracle(simulator, space, snippets)
        _assert_tables_bitwise_equal(
            scalar, build_oracle(simulator, space, snippets))
        _assert_tables_bitwise_equal(
            scalar, build_oracle(simulator, space, snippets,
                                 cache=OracleCache(store=None)))

    def test_parity_traces_reach_several_argmins(self, simulator, space):
        """The parity workloads' energy argmins fall at four or more
        configurations, so the paths are not compared at one column."""
        best = set()
        for app in PARITY_APPS:
            trace = SnippetTraceGenerator(seed=7).generate(
                get_workload(app).scaled(0.3))
            table = oracle_loop.build_oracle(simulator, space, trace)
            best.update(table.columns["best_index"].tolist())
        assert len(best) >= 4

    @pytest.mark.parametrize("restriction", ["throttled", "core-gated"])
    def test_restricted_space_tables_identical_across_paths(
            self, simulator, space, parity_trace, restriction):
        if restriction == "throttled":
            restricted = space.restrict(max_opp_index=1)
            assert len(restricted) == 4
        else:
            restricted = ConfigurationSpace(space.platform,
                                            gated_clusters=("big", "little"))
        snippets = list(parity_trace[:12]) + _one_cluster_snippets()
        scalar = oracle_loop.build_oracle(simulator, restricted, snippets)
        _assert_tables_bitwise_equal(
            scalar, build_oracle(simulator, restricted, snippets))

    def test_trace_crossing_pass_boundaries(self, simulator, space,
                                            parity_trace, monkeypatch):
        """Passes of 3 snippets: the trace spans several, the last partial."""
        monkeypatch.setattr(oracle_module, "SWEEP_PASS_PAIRS",
                            3 * len(space) + 1)
        snippets = list(parity_trace[:10]) + _one_cluster_snippets()
        scalar = oracle_loop.build_oracle(simulator, space, snippets)
        _assert_tables_bitwise_equal(
            scalar, build_oracle(simulator, space, snippets))
        _assert_tables_bitwise_equal(
            scalar, build_oracle(simulator, space, snippets,
                                 cache=OracleCache(store=None)))

    @pytest.mark.parametrize("cached", [False, True])
    def test_scenario_tables_identical_across_paths(
            self, simulator, space, parity_trace, cached):
        """Throttled steps are swept over their restricted space and land
        in the merged table as base-space indices."""
        snippets = list(parity_trace[:14]) + _one_cluster_snippets()
        trace = ScenarioTrace(snippets, throttle_events=(
            ThrottleEvent(2, 9, max_opp_index=2),
            ThrottleEvent(6, 12, max_opp_index=0)))
        table = build_scenario_oracle(
            simulator, space, trace,
            cache=OracleCache(store=None) if cached else None)
        assert table.space is space and len(table.rows) == len(snippets)
        spaces = restricted_spaces(space, trace)
        for snippet, cap in zip(snippets, trace.caps()):
            active = space if cap is None else spaces[cap]
            index, result = oracle_loop.sweep_snippet(simulator, active,
                                                      snippet)
            expected = np.array([(space.index_of(active[index]),
                                  result.energy_j, result.execution_time_s)],
                                dtype=ORACLE_COLUMNS)
            row = table.rows[snippet.name]
            assert table.columns[row:row + 1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("restriction", [None, "throttled", "core-gated"])
    def test_oracle_results_pickle_equal_to_loop(
            self, simulator, space, parity_trace, restriction):
        """The noise-free results rebuilt from a table's best indices are
        the loop's best results, byte for byte."""
        if restriction == "throttled":
            space = space.restrict(max_opp_index=1)
        elif restriction == "core-gated":
            space = ConfigurationSpace(space.platform,
                                       gated_clusters=("big", "little"))
        snippets = list(parity_trace[:6]) + _one_cluster_snippets()
        table = build_oracle(simulator, space, snippets)
        results = oracle_results(simulator, table, snippets,
                                 np.ones((len(snippets), 2)))
        assert len(results) == len(snippets)
        for snippet, result in zip(snippets, results):
            _, reference = oracle_loop.sweep_snippet(simulator, space,
                                                     snippet)
            assert pickle.dumps(result) == pickle.dumps(reference)

    def test_oracle_sweeps_each_pass_in_one_batch_call(
            self, simulator, space, sweep_trace, monkeypatch):
        """Each pass of consecutive missing snippets costs one
        ``evaluate_expected_batch`` over the whole space, and no
        per-configuration ``run_snippet`` call is made."""
        # Patched on the class so that undoing the patch leaves nothing in
        # the session-wide simulator's instance dict.
        simulator_cls = type(simulator)
        real_batch = simulator_cls.evaluate_expected_batch
        swept = []

        def counting_batch(self, snippets, space, characteristics):
            np.testing.assert_array_equal(characteristics,
                                          characteristics_matrix(snippets))
            swept.append(([s.name for s in snippets], space))
            return real_batch(self, snippets, space, characteristics)

        def refuse_scalar(self, snippet, config, noise=None):
            raise AssertionError("build_oracle evaluated one configuration")

        monkeypatch.setattr(simulator_cls, "evaluate_expected_batch",
                            counting_batch)
        monkeypatch.setattr(simulator_cls, "run_snippet", refuse_scalar)
        names = [s.name for s in sweep_trace]
        assert len(names) > 4
        table = build_oracle(simulator, space, sweep_trace)
        assert swept == [(names, space)]
        assert table.rows.keys() == set(names)

        swept.clear()
        monkeypatch.setattr(oracle_module, "SWEEP_PASS_PAIRS",
                            3 * len(space) - 1)
        build_oracle(simulator, space, sweep_trace)
        assert swept == [(names[start:start + 2], space)
                         for start in range(0, len(names), 2)]

        # Through a cache only the misses are swept, still in passes.
        cache = OracleCache(store=None)
        build_oracle(simulator, space, sweep_trace[:3], cache=cache)
        swept.clear()
        build_oracle(simulator, space, sweep_trace, cache=cache)
        assert swept == [(names[start:start + 2], space)
                         for start in range(3, len(names), 2)]

    def test_equal_content_snippets_swept_once_per_call(
            self, simulator, space, sweep_trace, monkeypatch):
        """Two equal-content snippets under different names in one call:
        one sweep, one miss and one hit, and both names map to the first
        occurrence's entry."""
        original = sweep_trace[1]
        # A float index spells a different name but compares (and hashes)
        # equal, so the content keys are equal.
        renamed = Snippet(original.application, float(original.index),
                          original.n_instructions,
                          copy.deepcopy(original.characteristics))
        assert renamed.name != original.name
        assert _keys([renamed]) == _keys([original])
        simulator_cls = type(simulator)
        real_batch = simulator_cls.evaluate_expected_batch
        swept = []

        def counting_batch(self, snippets, space, characteristics):
            swept.append(list(snippets))
            return real_batch(self, snippets, space, characteristics)

        monkeypatch.setattr(simulator_cls, "evaluate_expected_batch",
                            counting_batch)
        cache = OracleCache(store=None)
        table = build_oracle(simulator, space, [original, renamed],
                             cache=cache)
        assert len(swept) == 1 and swept[0][0] is original
        assert len(swept[0]) == 1
        assert (cache.misses, cache.hits) == (1, 1)
        assert list(table.rows) == [original.name, renamed.name]
        assert (table.columns[table.rows[renamed.name]]
                == table.columns[table.rows[original.name]])
        assert len(cache) == 1


class TestOracleCache:
    def test_second_build_hits_for_every_snippet(self, simulator, space,
                                                 sweep_trace):
        cache = OracleCache()
        first = build_oracle(simulator, space, sweep_trace, cache=cache)
        assert cache.misses == len(sweep_trace)
        assert cache.hits == 0
        second = build_oracle(simulator, space, sweep_trace, cache=cache)
        assert cache.hits == len(sweep_trace)
        assert cache.misses == len(sweep_trace)
        assert list(first.rows) == list(second.rows)
        assert first.columns.tobytes() == second.columns.tobytes()

    def test_content_keys_hit_across_regenerated_snippets(self, simulator,
                                                          space):
        trace_a = SnippetTraceGenerator(seed=3).generate(
            get_workload("fft").scaled(0.2))
        trace_b = SnippetTraceGenerator(seed=3).generate(
            get_workload("fft").scaled(0.2))
        assert trace_a is not trace_b
        cache = OracleCache()
        build_oracle(simulator, space, trace_a, cache=cache)
        build_oracle(simulator, space, trace_b, cache=cache)
        assert cache.hits == len(trace_b)

    def test_spaces_separate_entries(self, simulator, space, small_platform,
                                     small_space, sweep_trace):
        from repro.soc.simulator import SoCSimulator
        cache = OracleCache()
        build_oracle(simulator, space, sweep_trace, cache=cache)
        assert cache.misses == len(cache) == len(sweep_trace)
        # A different space (different platform) must miss everywhere.
        small_simulator = SoCSimulator(small_platform, noise_scale=0.0, seed=0)
        build_oracle(small_simulator, small_space, sweep_trace, cache=cache)
        assert cache.hits == 0
        assert len(cache) == 2 * len(sweep_trace)

    def test_same_named_platform_with_different_opps_misses(self, sweep_trace):
        from repro.soc.configuration import ConfigurationSpace
        from repro.soc.platform import generic_big_little
        from repro.soc.simulator import SoCSimulator
        cache = OracleCache()
        for max_freq in (2.4e9, 3.2e9):
            platform = generic_big_little(big_max_frequency_hz=max_freq)
            space = ConfigurationSpace(platform)
            simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
            build_oracle(simulator, space, sweep_trace, cache=cache)
        # Identical platform names and config index tuples, different OPP
        # tables: nothing may be shared.
        assert cache.hits == 0
        assert len(cache) == 2 * len(sweep_trace)

    def test_content_keys_spell_index_instructions_and_characteristics(
            self, simulator, space):
        """A key changes with every field the Oracle reads and with the
        application and index; ``-0.0`` and ``0.0`` share a key, as they
        compare equal."""
        base = Snippet("app", 3, 20e6, SnippetCharacteristics(
            memory_intensity=0.0))
        variants = [
            Snippet("app2", 3, 20e6, base.characteristics),
            Snippet("app", 4, 20e6, base.characteristics),
            Snippet("app", 3, 21e6, base.characteristics),
            *[Snippet("app", 3, 20e6, SnippetCharacteristics(**{
                **base.characteristics.as_dict(), "thread_count": 1,
                field: value}))
              for field, value in (("memory_intensity", 1.0),
                                   ("memory_access_rate", 0.31),
                                   ("external_request_rate", 0.61),
                                   ("branch_misprediction_mpki", 4.1),
                                   ("ilp_factor", 0.81),
                                   ("parallel_fraction", 0.11),
                                   ("thread_count", 2),
                                   ("big_fraction", 0.86))],
        ]
        keys = _keys([base, *variants])
        assert len(set(keys)) == len(keys)
        negative_zero = Snippet("app", 3, 20e6, SnippetCharacteristics(
            memory_intensity=-0.0))
        assert _keys([negative_zero]) == _keys([base])
        cache = OracleCache(store=None)
        build_oracle(simulator, space, [base, negative_zero], cache=cache)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_framework_reuses_oracle_entries(self, trained_framework,
                                             sweep_trace):
        cache = trained_framework.oracle_cache
        baseline_misses = cache.misses
        trained_framework.build_oracle_for(sweep_trace)
        assert cache.misses == baseline_misses + len(sweep_trace)
        hits_before = cache.hits
        trained_framework.build_oracle_for(sweep_trace)
        assert cache.hits == hits_before + len(sweep_trace)


class TestSnippetResultCounts:
    """A table keeps no simulator results: a cold build materialises none,
    and offline training executes each training snippet twice at its
    Oracle configuration (the IL dataset's execution, then the model
    bootstrap's)."""

    @pytest.fixture()
    def created(self, monkeypatch):
        created = Counter()
        init = SnippetResult.__init__
        from_values = SnippetResult._from_values.__func__

        def counting_init(self, *args, **kwargs):
            created["init"] += 1
            init(self, *args, **kwargs)

        def counting_from_values(cls, values):
            created["from_values"] += 1
            return from_values(cls, values)

        monkeypatch.setattr(SnippetResult, "__init__", counting_init)
        monkeypatch.setattr(SnippetResult, "_from_values",
                            classmethod(counting_from_values))
        return created

    def test_cold_build_creates_no_snippet_result(
            self, simulator, space, parity_trace, created):
        cache = OracleCache(store=None)
        table = build_oracle(simulator, space, parity_trace, cache=cache)
        assert cache.misses == len(table.rows) == len(parity_trace)
        build_oracle(simulator, space, parity_trace)
        assert created == Counter()

    def test_train_offline_executions_match_scalar_loop(
            self, created, monkeypatch):
        """The IL dataset and the model bootstrap are one lane call each,
        so training creates two results per snippet and no other.  The
        dataset's features and labels and the bootstrapped RLS state
        equal a scalar loop over the reference model at the scalar
        sweep's Oracle configurations, fed the same ``draw_noise`` rows,
        bit for bit."""
        from repro.core.framework import OnlineLearningFramework
        from repro.models.performance import CpuPerformanceModel
        from repro.models.power import CpuPowerModel
        from repro.workloads.suites import training_workloads

        framework = OnlineLearningFramework(seed=3)
        simulator, space = framework.simulator, framework.space
        drawn = []
        draw_noise = simulator.draw_noise

        def recording_draw_noise(steps, rng=None):
            drawn.append(draw_noise(steps, rng))
            return drawn[-1]

        monkeypatch.setattr(simulator, "draw_noise", recording_draw_noise)
        framework.train_offline(
            [w.scaled(0.1) for w in training_workloads()[:3]], epochs=2)
        snippets = framework._training_snippets
        assert created == Counter(from_values=2 * len(snippets))
        dataset_noise, bootstrap_noise = drawn

        best = [space[oracle_loop.sweep_snippet(simulator, space, snippet)[0]]
                for snippet in snippets]
        executed = [soc_scalar.run_snippet(simulator, snippet, config, factors)
                    for snippet, config, factors
                    in zip(snippets, best, dataset_noise)]
        features = np.vstack([result.counters.feature_vector()
                              for result in executed[:-1]])
        dataset = framework.offline_dataset
        assert dataset.features.tobytes() == features.tobytes()
        assert dataset.labels.tolist() == [space.index_of(config)
                                           for config in best[1:]]

        power_model = CpuPowerModel(framework.platform)
        performance_model = CpuPerformanceModel(framework.platform)
        for snippet, config, factors in zip(snippets, best, bootstrap_noise):
            counters = soc_scalar.run_snippet(simulator, snippet, config,
                                              factors).counters
            power_model.update(counters, config)
            performance_model.update(counters, config)
        for model, reference in ((framework.power_model, power_model),
                                 (framework.performance_model,
                                  performance_model)):
            assert model.rls.n_updates == len(snippets)
            assert model.rls.weights.tobytes() == reference.rls.weights.tobytes()
            assert (model.rls.covariance.tobytes()
                    == reference.rls.covariance.tobytes())


class TestScaleRegistry:
    def test_presets_resolve_by_name(self):
        assert get_scale("tiny") is TINY
        assert get_scale("quick") is QUICK
        assert get_scale("bench") is BENCH
        assert get_scale("full") is FULL
        assert get_scale(TINY) is TINY
        assert set(available_scales()) >= {"tiny", "quick", "bench", "full"}

    def test_unknown_scale_raises(self):
        with pytest.raises(KeyError):
            get_scale("gigantic")


class TestExperimentRegistry:
    PAPER_EXPERIMENTS = ("table1", "table2", "figure2", "figure3", "figure4",
                         "figure5")

    def test_all_paper_drivers_registered(self):
        names = available_experiments()
        for required in self.PAPER_EXPERIMENTS:
            assert required in names
        assert available_experiments(tag="paper") == sorted(self.PAPER_EXPERIMENTS)

    def test_round_trip_every_registered_experiment(self):
        for name in available_experiments():
            spec = get_experiment(name)
            assert spec.name == name
            assert spec.description
            assert callable(spec.runner)
            if spec.formatter is None:
                # Default formatter renders arbitrary results as text.
                assert isinstance(spec.format_result([1, 2]), str)
            else:
                assert callable(spec.formatter)

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("figure99")
        with pytest.raises(ValueError):
            register_experiment("table1", "duplicate", lambda s, d, c: None)

    def test_runner_multi_seed_fan_out(self):
        runner = ExperimentRunner(scale="tiny", seeds=(0, 1))
        run = runner.run("table1")
        assert [seed_run.seed for seed_run in run.seed_runs] == [0, 1]
        assert run.scale is TINY
        report = run.format()
        assert "table1" in report and "seed=1" in report

    def test_runner_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="tiny", seeds=())

    def test_custom_scale_sharing_preset_name_gets_own_study(self):
        """The study memo keys on the scale object, not its name."""
        from repro.experiments.runner import ExperimentContext
        from repro.experiments.scales import ExperimentScale, TINY
        context = ExperimentContext()
        study_a = context.adaptation_study(TINY, 0)
        impostor = ExperimentScale(
            name="tiny", train_snippet_factor=0.15, eval_snippet_factor=0.15,
            sequence_snippet_factor=0.3, offline_epochs=20, buffer_capacity=5,
            update_epochs=20, rl_offline_episodes=1, gpu_frames=40,
            nmpc_surface_samples=40,
        )
        study_b = context.adaptation_study(impostor, 0)
        assert study_a is not study_b
        assert context.adaptation_study(TINY, 0) is study_a

class TestCLI:
    def test_list_exits_cleanly(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in TestExperimentRegistry.PAPER_EXPERIMENTS:
            assert name in out
        for scale in ("tiny", "quick", "bench", "full"):
            assert scale in out

    def test_runs_named_experiment(self, capsys):
        assert main(["table1", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "scale=tiny" in out

    def test_seed_fan_out(self, capsys):
        assert main(["table1", "--scale", "tiny", "--seeds", "2",
                     "--seed-base", "3"]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out and "seed=4" in out

    def test_bad_inputs_fail_with_diagnostics(self, capsys):
        assert main(["table1", "--scale", "gigantic"]) == 2
        assert main(["figure99", "--scale", "tiny"]) == 2
        assert main(["table1", "--seeds", "0"]) == 2
        assert main(["table1", "--seed-base", "-1"]) == 2
        assert main(["--tag", "ablations", "--scale", "tiny"]) == 2
        err = capsys.readouterr().err
        assert "no experiments match tag" in err
