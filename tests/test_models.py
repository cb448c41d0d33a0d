"""Tests for the online analytical models (power, performance, frame time)."""

import numpy as np
import pytest

from repro.models import CpuPerformanceModel, CpuPowerModel, FrameTimeModel
from repro.models.performance import predict_time_s
from repro.models.power import power_features, predict_power_w
from repro.soc.configuration import SoCConfiguration


def one_row(space, config):
    """The struct-of-arrays row of ``config``, for the array predictions."""
    return space.soa_view().gather(np.array([space.index_of(config)]))


def predict_power(model, counters, reference, row):
    """Predicted power of the one-configuration ``row``."""
    big = row.cluster("big")
    little = row.cluster("little")
    features = power_features(
        model.features,
        big_utilization=counters.big_cluster_utilization,
        little_utilization=counters.little_cluster_utilization,
        execution_time_s=counters.execution_time_s,
        external_requests=counters.noncache_external_memory_requests,
        big_reference_cores=reference.cores("big"),
        little_reference_cores=reference.cores("little"),
        big_opp_index=big.opp_index,
        little_opp_index=little.opp_index,
        big_cores=big.cores_f,
        little_cores=little.cores_f,
        big_voltage_v=big.voltage_v,
        little_voltage_v=little.voltage_v,
    )
    return predict_power_w(features, model.rls.weights)[0]


def predict_time(model, counters, reference, row):
    """Predicted execution time of the one-configuration ``row``."""
    big = row.cluster("big")
    little = row.cluster("little")
    return predict_time_s(
        latency_ns=model.latency_ns(),
        big_utilization=counters.big_cluster_utilization,
        little_utilization=counters.little_cluster_utilization,
        execution_time_s=counters.execution_time_s,
        l2_misses=counters.l2_cache_misses,
        big_reference_cores=reference.cores("big"),
        little_reference_cores=reference.cores("little"),
        big_reference_ghz=model.features.frequency_ghz(reference, "big"),
        little_reference_ghz=model.features.frequency_ghz(reference, "little"),
        big_cores=big.cores_f,
        little_cores=little.cores_f,
        big_ghz=big.frequency_ghz,
        little_ghz=little.frequency_ghz,
    )[0]


def run_and_update(simulator, space, model_power, model_perf, snippet, configs):
    """Run a snippet over several configs, updating both models."""
    results = []
    for config in configs:
        result = simulator.run_snippet(snippet, config)
        model_power.update(result.counters, config)
        model_perf.update(result.counters, config)
        results.append(result)
    return results


class TestCpuPowerModel:
    def test_learns_power_within_ten_percent(self, simulator, space, compute_snippet):
        model = CpuPowerModel(simulator.platform)
        configs = list(space)[:: max(1, len(space) // 20)]
        perf = CpuPerformanceModel(simulator.platform)
        run_and_update(simulator, space, model, perf, compute_snippet, configs * 2)
        for config in configs[:5]:
            result = simulator.run_snippet(compute_snippet, config)
            predicted = predict_power(model, result.counters, config,
                                      one_row(space, config))
            assert predicted == pytest.approx(result.average_power_w, rel=0.10)

    def test_candidate_prediction_orders_frequencies(self, simulator, space,
                                                     compute_snippet):
        """Predicted power must increase with the candidate big frequency."""
        model = CpuPowerModel(simulator.platform)
        perf = CpuPerformanceModel(simulator.platform)
        configs = list(space)[:: max(1, len(space) // 25)]
        run_and_update(simulator, space, model, perf, compute_snippet, configs * 2)
        reference = space.default_configuration()
        counters = simulator.run_snippet(compute_snippet, reference).counters
        opps, cores = reference.as_dicts()
        low = SoCConfiguration.from_dicts({**opps, "big": 0}, cores)
        high = SoCConfiguration.from_dicts(
            {**opps, "big": len(simulator.platform.cluster("big").opps) - 1}, cores)
        assert (predict_power(model, counters, reference, one_row(space, high))
                > predict_power(model, counters, reference, one_row(space, low)))

    def test_n_updates_tracked(self, simulator, space, compute_snippet):
        model = CpuPowerModel(simulator.platform)
        result = simulator.run_snippet(compute_snippet, space.default_configuration())
        model.update(result.counters, result.configuration)
        assert model.n_updates == 1


class TestCpuPerformanceModel:
    def test_candidate_time_prediction_accuracy(self, simulator, space, memory_snippet):
        """After warm-up the model predicts candidate-config times within ~15 %."""
        model = CpuPerformanceModel(simulator.platform)
        power = CpuPowerModel(simulator.platform)
        configs = list(space)[:: max(1, len(space) // 20)]
        run_and_update(simulator, space, power, model, memory_snippet, configs * 2)
        reference = space.default_configuration()
        counters = simulator.run_snippet(memory_snippet, reference).counters
        opps, cores = reference.as_dicts()
        for big_index in (0, len(simulator.platform.cluster("big").opps) - 1):
            candidate = SoCConfiguration.from_dicts({**opps, "big": big_index}, cores)
            truth = simulator.run_snippet(memory_snippet, candidate).execution_time_s
            predicted = predict_time(model, counters, reference,
                                     one_row(space, candidate))
            assert predicted == pytest.approx(truth, rel=0.15)

    def test_latency_estimate_positive(self, simulator, space, memory_snippet):
        model = CpuPerformanceModel(simulator.platform)
        power = CpuPowerModel(simulator.platform)
        configs = list(space)[:: max(1, len(space) // 15)]
        run_and_update(simulator, space, power, model, memory_snippet, configs)
        assert model.latency_ns() > 0


class TestFrameTimeModel:
    def test_tracks_constant_workload(self):
        model = FrameTimeModel(forgetting_factor=0.98)
        work, memory, frequency = 5e7, 1e7, 8e8
        true_time = work / frequency + memory / 12e9
        for _ in range(50):
            model.update(work, memory, frequency, 1, true_time)
        assert model.predict_frame_time_s(work, memory, frequency, 1) == pytest.approx(
            true_time, rel=0.02)

    def test_prediction_decreases_with_frequency(self):
        model = FrameTimeModel()
        for _ in range(30):
            model.update(5e7, 1e7, 6e8, 2, 5e7 / (6e8 * 2**0.9))
        low = model.predict_frame_time_s(5e7, 1e7, 4e8, 2)
        high = model.predict_frame_time_s(5e7, 1e7, 1.1e9, 2)
        assert high < low

    def test_adaptive_variant_constructs(self):
        model = FrameTimeModel(adaptive=True)
        model.update(1e7, 1e6, 5e8, 1, 0.02)
        assert model.rls.n_updates == 1

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            FrameTimeModel().predict_frame_time_s(1e7, 1e6, 0.0, 1)
