"""Batch-vs-scalar equivalence of the vectorized online decision loop.

The runtime Oracle's batched candidate sweep must decide exactly like the
per-candidate loop in ``tests/scalar_reference/runtime_oracle_loop.py``: same
candidate enumeration order, same predictions (execution-time predictions
bitwise, power within BLAS round-off), and the same first-minimum argmin
tie-breaking — including on exactly tied predicted energies.  The shared
prediction functions give one device the same power and time alone as in
its row of a stacked fleet call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.runtime_oracle import RuntimeOracle
from repro.models.performance import CpuPerformanceModel, predict_time_s
from repro.models.power import CpuPowerModel, power_features, predict_power_w
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

from scalar_reference import runtime_oracle_loop


@pytest.fixture(scope="module")
def platform():
    return odroid_xu3_like()


@pytest.fixture(scope="module")
def space(platform):
    return ConfigurationSpace(platform)


@pytest.fixture(scope="module")
def gated_space(platform):
    return ConfigurationSpace(platform, gated_clusters=("big",))


def _decision_states(platform, space, n_states, seed):
    """Stream of (counters, current) pairs with progressively warmed models."""
    simulator = SoCSimulator(platform, seed=seed)
    power_model = CpuPowerModel(platform)
    performance_model = CpuPerformanceModel(platform)
    generator = SnippetTraceGenerator(seed=seed + 1)
    snippets = [
        snippet
        for workload in training_workloads()
        for snippet in generator.generate(workload.scaled(0.4))
    ]
    rng = np.random.default_rng(seed + 2)
    states = []
    current = space.default_configuration()
    for snippet in snippets[:n_states]:
        result = simulator.run_snippet(snippet, current,
                                       simulator.draw_noise(1, rng)[0])
        power_model.update(result.counters, current)
        performance_model.update(result.counters, current)
        states.append((result.counters, current))
        current = space.random_configuration(rng)
    return power_model, performance_model, states


def _inputs(oracles, counters_list, currents, arrays):
    """Keyword inputs of the power-feature and time functions.

    One device passes its per-device inputs as Python scalars, as
    ``candidate_batch`` does; several pass ``(devices, 1)`` columns, as
    ``fleet_best_indices`` does.  ``arrays`` holds the candidate knobs:
    ``(candidates,)`` or ``(devices, candidates)``.
    """
    def per_device(values):
        if len(oracles) == 1:
            return values[0]
        return np.array(values, dtype=float)[:, None]

    big = arrays.cluster("big")
    little = arrays.cluster("little")
    shared = dict(
        big_utilization=per_device(
            [c.big_cluster_utilization for c in counters_list]),
        little_utilization=per_device(
            [c.little_cluster_utilization for c in counters_list]),
        execution_time_s=per_device(
            [c.execution_time_s for c in counters_list]),
        big_reference_cores=per_device([c.cores("big") for c in currents]),
        little_reference_cores=per_device(
            [c.cores("little") for c in currents]),
        big_cores=big.cores_f,
        little_cores=little.cores_f,
    )
    power = dict(
        shared,
        external_requests=per_device(
            [c.noncache_external_memory_requests for c in counters_list]),
        big_opp_index=big.opp_index,
        little_opp_index=little.opp_index,
        big_voltage_v=big.voltage_v,
        little_voltage_v=little.voltage_v,
    )
    time = dict(
        shared,
        latency_ns=per_device(
            [o.performance_model.latency_ns() for o in oracles]),
        l2_misses=per_device([c.l2_cache_misses for c in counters_list]),
        big_reference_ghz=per_device(
            [o.performance_model.features.frequency_ghz(c, "big")
             for o, c in zip(oracles, currents)]),
        little_reference_ghz=per_device(
            [o.performance_model.features.frequency_ghz(c, "little")
             for o, c in zip(oracles, currents)]),
        big_ghz=big.frequency_ghz,
        little_ghz=little.frequency_ghz,
    )
    return power, time


def _predictions(oracles, counters_list, currents, arrays):
    """Predicted (power, time) through the shared functions."""
    power_inputs, time_inputs = _inputs(oracles, counters_list, currents,
                                        arrays)
    weights = [o.power_model.rls.weights for o in oracles]
    power = predict_power_w(
        power_features(oracles[0].power_model.features, **power_inputs),
        weights[0] if len(oracles) == 1 else np.stack(weights),
    )
    return power, predict_time_s(**time_inputs)


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_same_decision_and_estimates(self, platform, space, radius):
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=40, seed=29
        )
        oracle = RuntimeOracle(space, power_model, performance_model,
                               neighborhood_radius=radius)
        for counters, current in states:
            best_b, est_b = oracle.best_configuration(counters, current)
            best_s, est_s = runtime_oracle_loop.best_configuration(
                oracle, counters, current)
            assert best_b == best_s
            assert est_b.configuration == est_s.configuration
            # Time predictions mirror the scalar arithmetic operation for
            # operation and must agree bitwise; power goes through one
            # matmul and may differ by BLAS summation-order round-off only.
            assert est_b.predicted_time_s == est_s.predicted_time_s
            np.testing.assert_allclose(est_b.predicted_power_w,
                                       est_s.predicted_power_w,
                                       rtol=1e-12, atol=1e-12)

    def test_candidate_enumeration_order_matches(self, platform, space):
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=10, seed=31
        )
        oracle = RuntimeOracle(space, power_model, performance_model,
                               neighborhood_radius=2)
        for counters, current in states:
            batch = oracle.candidate_batch(counters, current)
            estimates = runtime_oracle_loop.candidate_estimates(
                oracle, counters, current)
            assert [space[int(i)] for i in batch.candidate_indices] == [
                est.configuration for est in estimates
            ]
            np.testing.assert_array_equal(
                batch.predicted_time_s,
                np.array([est.predicted_time_s for est in estimates]),
            )

    def test_gated_space_equivalence(self, platform, gated_space):
        power_model, performance_model, states = _decision_states(
            platform, gated_space, n_states=25, seed=37
        )
        oracle = RuntimeOracle(gated_space, power_model, performance_model)
        for counters, current in states:
            best_b, _ = oracle.best_configuration(counters, current)
            best_s, _ = runtime_oracle_loop.best_configuration(
                oracle, counters, current)
            assert best_b == best_s

    @pytest.mark.parametrize("gated", [False, True], ids=["default", "gated"])
    def test_best_configuration_minimises_predicted_energy(
            self, platform, space, gated_space, gated):
        """The pick is the first candidate of least predicted energy: no
        candidate of the neighbourhood is predicted to use less."""
        test_space = gated_space if gated else space
        power_model, performance_model, states = _decision_states(
            platform, test_space, n_states=20, seed=41
        )
        oracle = RuntimeOracle(test_space, power_model, performance_model)
        for counters, current in states:
            batch = oracle.candidate_batch(counters, current)
            energies = batch.predicted_energy_j
            best, estimate = oracle.best_configuration(counters, current)
            first_min = int(np.flatnonzero(energies == energies.min())[0])
            assert best == test_space[int(batch.candidate_indices[first_min])]
            assert estimate.predicted_energy_j == energies.min()
            assert (energies >= estimate.predicted_energy_j).all()

    def test_argmin_tie_breaking_on_equal_energies(self, platform, space):
        """Exact ties must resolve to the first candidate in both sweeps.

        A fresh power model predicts exactly 0.0 W for every candidate
        (zero weights, clamped at zero), so every candidate's predicted
        energy ties at exactly 0.0 — the argmin must pick the first
        candidate of the neighbourhood enumeration in both sweeps.
        """
        power_model = CpuPowerModel(platform)  # never updated: weights are 0
        _, performance_model, states = _decision_states(
            platform, space, n_states=5, seed=43
        )
        oracle = RuntimeOracle(space, power_model, performance_model)
        for counters, current in states:
            estimates = runtime_oracle_loop.candidate_estimates(
                oracle, counters, current)
            energies = [est.predicted_energy_j for est in estimates]
            assert energies.count(0.0) == len(energies)  # genuinely all tied
            best_b, est_b = oracle.best_configuration(counters, current)
            best_s, _ = runtime_oracle_loop.best_configuration(
                oracle, counters, current)
            first = estimates[0].configuration
            assert best_b == best_s == first
            assert est_b.predicted_energy_j == 0.0

    def test_foreign_configuration_raises(self, platform, space):
        """A current configuration outside the space has no neighbourhood
        index: the lone sweep raises :class:`KeyError` naming it (the
        batched decides raise alike, see ``tests/test_fleet.py``)."""
        restricted = space.restrict(max_opp_index=1)
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=3, seed=47
        )
        oracle = RuntimeOracle(restricted, power_model, performance_model)
        counters, _ = states[0]
        from repro.soc.configuration import SoCConfiguration
        foreign = SoCConfiguration.from_dicts(
            {name: 3 for name in space.cluster_order},
            {name: space.platform.clusters[name].n_cores
             for name in space.cluster_order},
        )
        assert space.contains(foreign) and not restricted.contains(foreign)
        with pytest.raises(KeyError, match="configuration not in space"):
            oracle.best_configuration(counters, foreign)


class TestModelBatchPaths:
    def test_power_features_match_scalar_build(self, platform, space):
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=8, seed=53)
        oracle = RuntimeOracle(space, power_model, performance_model)
        for counters, current in states:
            power_inputs, _ = _inputs([oracle], [counters], [current],
                                      space.soa_view())
            matrix = power_features(power_model.features, **power_inputs)
            for i, config in enumerate(space):
                row = runtime_oracle_loop.power_features(
                    power_model.features, counters, config,
                    reference_config=current)
                np.testing.assert_array_equal(matrix[i], row)

    def test_power_features_default_reference_is_candidate(self, platform,
                                                           space):
        """Each row its own reference: the features the updates learn from."""
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=4, seed=59)
        oracle = RuntimeOracle(space, power_model, performance_model)
        soa = space.soa_view()
        for counters, current in states:
            power_inputs, _ = _inputs([oracle], [counters], [current], soa)
            power_inputs["big_reference_cores"] = soa.cluster("big").cores_f
            power_inputs["little_reference_cores"] = (
                soa.cluster("little").cores_f)
            matrix = power_features(power_model.features, **power_inputs)
            for i, config in enumerate(space):
                row = power_model.features.build(counters, config)
                np.testing.assert_array_equal(matrix[i], row)

    def test_time_batch_matches_scalar_bitwise(self, platform, space):
        """One device's scalar inputs and a stacked ``(devices, 1)`` call
        both give the per-candidate loop's times, bitwise."""
        power_model, performance_model, states = _decision_states(
            platform, space, n_states=8, seed=61)
        oracle = RuntimeOracle(space, power_model, performance_model)
        soa = space.soa_view()
        expected = [
            [runtime_oracle_loop.predict_time_s(
                performance_model, counters, config, reference_config=current)
             for config in space]
            for counters, current in states
        ]
        for (counters, current), scalars in zip(states, expected):
            _, times = _predictions([oracle], [counters], [current], soa)
            assert times.tolist() == scalars
        every_config = np.tile(np.arange(len(space)), (len(states), 1))
        _, stacked = _predictions(
            [oracle] * len(states), [c for c, _ in states],
            [current for _, current in states], soa.gather(every_config))
        assert stacked.tolist() == expected

    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("gated", [False, True], ids=["default", "gated"])
    def test_one_device_equals_its_row_of_a_three_device_call(
            self, platform, space, gated_space, radius, gated):
        """A lone ``candidate_batch`` and row ``d`` of a stacked three-device
        call give the same power and time, bitwise, and the fleet sweep
        picks what each device's ``best_configuration`` picks."""
        test_space = gated_space if gated else space
        devices = [_decision_states(platform, test_space, n_states=12,
                                    seed=seed)
                   for seed in (79, 83, 89)]
        oracles = [RuntimeOracle(test_space, power_model, performance_model,
                                 neighborhood_radius=radius)
                   for power_model, performance_model, _ in devices]
        table, lengths = test_space.neighborhood_table(radius=radius)
        for step in range(12):
            counters_list = [states[step][0] for _, _, states in devices]
            currents = [states[step][1] for _, _, states in devices]
            current_indices = np.array(
                [test_space.index_of(c) for c in currents], dtype=np.intp)
            power, time_s = _predictions(
                oracles, counters_list, currents,
                test_space.soa_view().gather(table[current_indices]))
            best = RuntimeOracle.fleet_best_indices(
                oracles, counters_list, current_indices)
            for d, oracle in enumerate(oracles):
                alone = oracle.candidate_batch(counters_list[d], currents[d])
                n_candidates = lengths[current_indices[d]]
                assert (alone.predicted_power_w.tobytes()
                        == power[d, :n_candidates].tobytes())
                assert (alone.predicted_time_s.tobytes()
                        == time_s[d, :n_candidates].tobytes())
                config, _ = oracle.best_configuration(counters_list[d],
                                                      currents[d])
                assert int(best[d]) == test_space.index_of(config)


class TestSpaceIndexTables:
    def test_neighbor_indices_match_neighbors(self, space, gated_space):
        for test_space in (space, gated_space):
            for index in range(0, len(test_space), 7):
                config = test_space[index]
                for radius in (1, 2):
                    via_indices = [
                        test_space[int(i)]
                        for i in test_space.neighbor_indices(index, radius)
                    ]
                    assert via_indices == runtime_oracle_loop.neighbors(
                        test_space, config, radius)

    def test_neighbor_tables_are_memoised(self, space):
        first = space.neighbor_indices(0, 2)
        second = space.neighbor_indices(0, 2)
        assert first is second
        view_a = space.neighborhood_view(0, 2)
        view_b = space.neighborhood_view(0, 2)
        assert view_a is view_b
        np.testing.assert_array_equal(view_a.indices, first)

    def test_neighborhood_view_arrays_match_configs(self, space):
        view = space.neighborhood_view(len(space) // 2, 2)
        for name in space.cluster_order:
            arrays = view.arrays.cluster(name)
            spec = space.platform.clusters[name]
            for row, index in enumerate(view.indices):
                config = space[int(index)]
                assert arrays.opp_index[row] == config.opp_index(name)
                assert arrays.active_cores[row] == config.cores(name)
                opp = spec.opps[config.opp_index(name)]
                assert arrays.voltage_v[row] == opp.voltage_v
                assert arrays.frequency_ghz[row] == opp.frequency_hz / 1e9

    def test_clamp_is_memoised_and_correct(self, space):
        restricted = space.restrict(max_opp_index=1)
        full_top = space[len(space) - 1]
        clamped_once = restricted.clamp(full_top)
        clamped_again = restricted.clamp(full_top)
        assert clamped_once is clamped_again
        assert restricted.contains(clamped_once)
        for name in restricted.cluster_order:
            assert clamped_once.opp_index(name) <= 1

    def test_soa_view_covers_whole_space(self, space):
        soa = space.soa_view()
        for name in space.cluster_order:
            arrays = soa.cluster(name)
            assert arrays.opp_index.shape == (len(space),)
            expected = np.array([c.opp_index(name) for c in space])
            np.testing.assert_array_equal(arrays.opp_index, expected)
            np.testing.assert_array_equal(
                arrays.cores_f, np.array([float(c.cores(name)) for c in space])
            )
