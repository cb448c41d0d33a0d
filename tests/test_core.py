"""Tests for the core framework: Oracle, offline IL, online IL, runner."""

import numpy as np
import pytest

from repro.control.policy import DRMPolicy, StaticPolicy
from repro.core import (
    AggregationBuffer,
    OfflineILPolicy,
    RuntimeOracle,
    build_oracle,
    collect_il_dataset,
    run_policy_on_snippets,
)
from repro.core.framework import OnlineLearningFramework
from repro.models.performance import CpuPerformanceModel
from repro.models.power import CpuPowerModel
from repro.soc.counters import FEATURE_NAMES
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import get_workload, training_workloads

from scalar_reference import runtime_oracle_loop


@pytest.fixture(scope="module")
def short_trace():
    generator = SnippetTraceGenerator(seed=0)
    return generator.generate(get_workload("fft").scaled(0.2))


@pytest.fixture(scope="module")
def oracle_table(trained_framework, short_trace):
    return build_oracle(trained_framework.simulator, trained_framework.space,
                        short_trace)


class _TablePlayback(DRMPolicy):
    """Decides, step by step, the configurations of a table's rows in
    trace order: the Oracle's decisions, played back."""

    def __init__(self, table, snippets):
        super().__init__(table.space)
        self.decisions = [table.best_configuration(s) for s in snippets]
        self.step = 0

    def reset(self, configuration=None):
        super().reset(configuration)
        self.step = 0

    def decide(self, counters):
        self.current = self.decisions[self.step]
        self.step += 1
        return self.current


class TestOracle:
    def test_oracle_is_minimum_over_space(self, trained_framework, short_trace,
                                          oracle_table):
        framework = trained_framework
        snippet = short_trace[0]
        best_energy = oracle_table.columns["energy_j"][
            oracle_table.rows[snippet.name]]
        energies = [framework.simulator.run_snippet(snippet, config).energy_j
                    for config in framework.space]
        assert best_energy == pytest.approx(min(energies))

    def test_oracle_policy_plays_back_table(self, trained_framework, short_trace,
                                            oracle_table):
        policy = _TablePlayback(oracle_table, short_trace)
        run = run_policy_on_snippets(trained_framework.simulator,
                                     trained_framework.space, policy, short_trace,
                                     oracle_table=oracle_table)
        assert run.normalized_energy == pytest.approx(1.0, abs=0.03)
        accuracy = run.log.column("oracle_match")
        assert np.nanmean(accuracy) == pytest.approx(1.0)

    def test_oracle_beats_static_policies(self, trained_framework, short_trace,
                                          oracle_table):
        framework = trained_framework
        best_energy = oracle_table.columns["energy_j"]
        oracle_energy = sum(best_energy[oracle_table.rows[s.name]]
                            for s in short_trace)
        for config in (framework.space[0], framework.space[len(framework.space) - 1]):
            static = StaticPolicy(framework.space, config)
            run = run_policy_on_snippets(framework.simulator, framework.space,
                                         static, short_trace)
            assert run.total_energy_j >= oracle_energy * 0.99

    def test_oracle_table_accessors(self, oracle_table, short_trace):
        assert len(oracle_table.rows) == len(short_trace)
        assert short_trace[0].name in oracle_table.rows
        unknown = SnippetTraceGenerator(seed=9).generate(
            get_workload("sha").scaled(0.1))[0]
        with pytest.raises(KeyError):
            oracle_table.best_configuration(unknown)


class TestAggregationBuffer:
    def test_fill_and_drain_cycle(self):
        buffer = AggregationBuffer(capacity=3)
        assert not buffer.insert(np.zeros(4), 1)
        assert not buffer.insert(np.zeros(4), 2)
        assert buffer.insert(np.zeros(4), 3)
        features, labels = buffer.drain()
        assert features.shape == (3, 4)
        assert labels.tolist() == [1, 2, 3]
        assert len(buffer) == 0
        assert buffer.flush_count == 1
        assert buffer.total_inserted == 3

    def test_drain_empty_raises(self):
        with pytest.raises(RuntimeError):
            AggregationBuffer(capacity=2).drain()

    def test_storage_stays_small(self):
        """The paper reports < 20 KB for a 100-entry buffer."""
        buffer = AggregationBuffer(capacity=100)
        buffer.insert(np.zeros(8), 0)
        assert buffer.storage_bytes() < 20 * 1024

    def test_storage_estimate_same_empty_and_filled(self):
        """An empty buffer assumes the width of a counter feature vector."""
        buffer = AggregationBuffer(capacity=100)
        empty = buffer.storage_bytes()
        buffer.insert(np.zeros(len(FEATURE_NAMES)), 0)
        assert buffer.storage_bytes() == empty == 100 * (8 * 8 + 8)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            AggregationBuffer(capacity=0)


class TestOfflineIL:
    def test_dataset_collection_shapes(self, trained_framework, short_trace):
        dataset = collect_il_dataset(trained_framework.simulator,
                                     trained_framework.space, short_trace)
        assert len(dataset) == len(short_trace) - 1
        assert dataset.features.shape[1] == 8
        assert dataset.labels.min() >= 0
        assert dataset.labels.max() < len(trained_framework.space)

    def test_dataset_requires_two_snippets(self, trained_framework, short_trace):
        with pytest.raises(ValueError):
            collect_il_dataset(trained_framework.simulator, trained_framework.space,
                               short_trace[:1])

    def test_offline_policy_fits_training_data(self, trained_framework):
        assert trained_framework.offline_policy.accuracy_on(
            trained_framework.offline_dataset) > 0.5

    def test_offline_policy_near_oracle_on_training_app(self, trained_framework):
        run = trained_framework.evaluate_policy(
            trained_framework.offline_policy, get_workload("fft").scaled(0.2))
        assert run.normalized_energy < 1.10

    def test_offline_policy_decide_requires_training(self, space):
        policy = OfflineILPolicy(space)
        assert policy.decide(None) == space.default_configuration()
        with pytest.raises(RuntimeError):
            policy.predict_index(None)  # type: ignore[arg-type]


class TestRuntimeOracle:
    def test_labels_are_near_optimal_after_warmup(self, trained_framework, short_trace,
                                                  oracle_table):
        framework = trained_framework
        runtime_oracle = RuntimeOracle(framework.space, framework.power_model,
                                       framework.performance_model,
                                       neighborhood_radius=2)
        current = framework.space.default_configuration()
        hits = 0
        noise = framework.simulator.draw_noise(len(short_trace))
        for snippet, factors in zip(short_trace, noise):
            result = framework.simulator.run_snippet(snippet, current, factors)
            runtime_oracle.update_models(result.counters, current)
            best, estimate = runtime_oracle.best_configuration(result.counters, current)
            achieved = framework.simulator.run_snippet(snippet, best).energy_j
            neighborhood = runtime_oracle_loop.neighbors(
                framework.space, current, radius=2)
            neighborhood_best = min(
                framework.simulator.run_snippet(snippet, c).energy_j
                for c in neighborhood)
            if achieved <= neighborhood_best * 1.05:
                hits += 1
            assert estimate.predicted_energy_j > 0
            current = best
        assert hits / len(short_trace) > 0.7

    def test_neighborhood_radius_validation(self, trained_framework):
        with pytest.raises(ValueError):
            RuntimeOracle(trained_framework.space, trained_framework.power_model,
                          trained_framework.performance_model, neighborhood_radius=0)


class TestOnlineIL:
    def test_adapts_to_unseen_memory_bound_app(self, trained_framework):
        framework = trained_framework
        online = framework.build_online_il_policy(buffer_capacity=8, update_epochs=40)
        workload = get_workload("kmeans").scaled(0.8)
        run = framework.evaluate_policy(online, workload)
        assert online.n_policy_updates >= 1
        assert online.n_supervision_labels > 0
        assert run.normalized_energy < 1.15
        diag = online.diagnostics()
        assert diag["buffer_capacity"] == 8
        assert diag["policy_parameters"] > 0

    def test_online_il_not_worse_than_offline_on_unseen_suite(self, trained_framework):
        framework = trained_framework
        workload = get_workload("blackscholes-4t").scaled(0.8)
        offline_run = framework.evaluate_policy(framework.offline_policy, workload)
        online = framework.build_online_il_policy(buffer_capacity=8, update_epochs=40)
        online_run = framework.evaluate_policy(online, workload)
        assert online_run.normalized_energy <= offline_run.normalized_energy + 0.02


class TestFrameworkRunner:
    def test_run_result_fields(self, trained_framework, short_trace, oracle_table):
        run = run_policy_on_snippets(trained_framework.simulator,
                                     trained_framework.space,
                                     StaticPolicy(trained_framework.space),
                                     short_trace, oracle_table=oracle_table)
        assert len(run.log) == len(short_trace)
        assert run.total_time_s > 0
        assert run.time_axis_s().shape == (len(short_trace),)
        assert run.accuracy_series().shape == (len(short_trace),)
        assert 0.0 <= run.final_accuracy() <= 100.0

    def test_normalized_energy_requires_oracle(self, trained_framework, short_trace):
        run = run_policy_on_snippets(trained_framework.simulator,
                                     trained_framework.space,
                                     StaticPolicy(trained_framework.space),
                                     short_trace)
        with pytest.raises(ValueError):
            _ = run.normalized_energy
        with pytest.raises(ValueError):
            run.accuracy_series()

    def test_framework_requires_offline_training_before_online_policy(self):
        framework = OnlineLearningFramework(seed=3)
        with pytest.raises(RuntimeError):
            framework.build_online_il_policy()

    def test_rl_offline_training_episodes(self, trained_framework):
        policy = trained_framework.build_rl_policy()
        trained_framework.train_rl_offline(
            policy, [training_workloads()[0].scaled(0.1)], episodes=1)
        assert policy.n_updates > 0


class TestAccuracySeriesEdgeCases:
    """PolicyRunResult.accuracy_series / final_accuracy corner cases."""

    @staticmethod
    def _result_with_matches(matches):
        """A PolicyRunResult whose log carries the given oracle_match
        column (``None`` entries are steps missing from the Oracle table,
        which the log records as NaN)."""
        from repro.core.framework import PolicyRunResult
        from repro.utils.records import COLUMNS, RunLog

        log = RunLog(len(matches))
        for match in matches:
            row = dict.fromkeys(COLUMNS, float("nan"))
            row.update(energy_j=1.0, time_s=0.5, power_w=2.0,
                       oracle_match=float("nan") if match is None
                       else float(match))
            log.append(list(row.values()))
        return PolicyRunResult(policy_name="stub", log=log,
                               total_energy_j=float(len(matches)),
                               total_time_s=0.5 * len(matches))

    def test_empty_run_raises(self):
        run = self._result_with_matches([])
        with pytest.raises(ValueError, match="empty"):
            run.accuracy_series()
        with pytest.raises(ValueError, match="empty"):
            run.final_accuracy()

    def test_window_longer_than_run(self):
        run = self._result_with_matches([1.0, 0.0, 1.0])
        series = run.accuracy_series(window=100)
        # Head windows shrink: element i averages every match up to i.
        np.testing.assert_allclose(series, [100.0, 50.0, 200.0 / 3.0])
        assert run.final_accuracy(window=100) == pytest.approx(200.0 / 3.0)

    def test_all_nan_prefix_yields_leading_nans(self):
        """Steps missing from the Oracle table (e.g. a cold-start prefix)
        are excluded from the windows instead of poisoning them."""
        run = self._result_with_matches([None, None, 1.0, 0.0])
        series = run.accuracy_series(window=2)
        assert np.isnan(series[0]) and np.isnan(series[1])
        assert series[2] == 100.0
        assert series[3] == 50.0
        # final_accuracy reads the last window, which has real matches.
        assert run.final_accuracy(window=2) == 50.0

    def test_all_missing_matches_still_raises(self):
        run = self._result_with_matches([None, None])
        with pytest.raises(ValueError, match="Oracle"):
            run.accuracy_series()
