"""Property-based randomized invariant tests.

No hypothesis-style library is available in the environment, so each
property is checked over a seeded family of random platforms, snippets,
traces and configurations — every draw is reproducible from the parametrized
seed.  The invariants:

* physics: energy/time/power of any execution are positive and finite;
* batch == scalar parity of the vectorized SoC configuration sweep on
  randomized inputs;
* GPU frame loop: a controller pinned to one configuration sees every
  frame it rendered, a noise-free run does not depend on the seed, and a
  faster operating point or more slices never lengthen a frame;
* NoC packet loop: every packet is delivered along its XY route no sooner
  than its zero-load latency (exactly that when alone), and a run cut at
  its injection window (no drain cycles) is a prefix of the drained run;
* online estimators: RLS without forgetting converges to the
  least-squares fit;
* Oracle optimality: no policy can beat the Oracle table on the same
  snippets under noise-free execution, full or restricted space;
* regression trees, grown by the vectorized split search and by the
  per-sample loop of ``tests/scalar_reference`` alike: ``predict`` equals
  the one-row walk from the root (rows exactly on a split threshold
  included), every leaf holds the mean of the training targets routed to
  it and at least ``min_samples_leaf`` of them, and a deeper depth limit
  only extends the tree grown under a shallower one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.policy import RandomPolicy, StaticPolicy
from repro.core.framework import run_policy_on_snippets
from repro.core.oracle import build_oracle
from repro.gpu.frames import generate_frame_trace
from repro.gpu.gpu import GPUConfiguration, default_integrated_gpu
from repro.gpu.simulator import GPUSimulator
from repro.ml.linear import LinearRegressor
from repro.ml.rls import RecursiveLeastSquares
from repro.ml.tree import DecisionTreeRegressor
from repro.noc.packet import Packet
from repro.noc.router import RouterConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import UniformRandomTraffic
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import generic_big_little
from repro.soc.simulator import SoCSimulator, characteristics_matrix
from repro.soc.snippet import Snippet, SnippetCharacteristics

from scalar_reference.noc_latency import manhattan_hops, zero_load_latency
from scalar_reference.tree_scalar import (ScalarDecisionTreeRegressor,
                                          predict_row)

PROPERTY_SEEDS = list(range(8))


def random_platform(rng: np.random.Generator):
    return generic_big_little(
        n_big_cores=int(rng.integers(1, 5)),
        n_little_cores=int(rng.integers(1, 5)),
        n_big_levels=int(rng.integers(2, 7)),
        n_little_levels=int(rng.integers(2, 5)),
        big_max_frequency_hz=float(rng.uniform(1.6e9, 2.8e9)),
        little_max_frequency_hz=float(rng.uniform(0.8e9, 1.6e9)),
    )


def random_characteristics(rng: np.random.Generator) -> SnippetCharacteristics:
    return SnippetCharacteristics(
        memory_intensity=float(rng.uniform(0.0, 25.0)),
        memory_access_rate=float(rng.uniform(0.0, 1.0)),
        external_request_rate=float(rng.uniform(0.0, 1.0)),
        branch_misprediction_mpki=float(rng.uniform(0.0, 12.0)),
        ilp_factor=float(rng.uniform(0.1, 1.0)),
        parallel_fraction=float(rng.uniform(0.0, 1.0)),
        thread_count=int(rng.integers(1, 9)),
        big_fraction=float(rng.uniform(0.05, 1.0)),
    )


def random_snippet(rng: np.random.Generator, index: int = 0,
                   application: str = "random") -> Snippet:
    return Snippet(
        application=application,
        index=index,
        n_instructions=float(rng.uniform(1e6, 5e7)),
        characteristics=random_characteristics(rng),
    )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestPhysicalInvariants:
    def test_energy_time_power_positive(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.02, seed=seed)
        for _ in range(4):
            snippet = random_snippet(rng)
            config = space.random_configuration(rng)
            factors = simulator.draw_noise(1, rng)[0]
            for result in (simulator.run_snippet(snippet, config, factors),
                           simulator.evaluate_expected(snippet, config)):
                assert np.isfinite(result.energy_j) and result.energy_j > 0.0
                assert np.isfinite(result.execution_time_s)
                assert result.execution_time_s > 0.0
                assert np.isfinite(result.average_power_w)
                assert result.average_power_w > 0.0
                counters = result.counters.as_dict()
                assert all(np.isfinite(v) and v >= 0.0
                           for v in counters.values()), counters


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestBatchScalarParity:
    def test_soc_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = [random_snippet(rng) for _ in range(3)]
        batch = simulator.evaluate_expected_batch(
            snippets, space, characteristics_matrix(snippets))
        for row, snippet in enumerate(snippets):
            for column, config in enumerate(space):
                reference = simulator.evaluate_expected(snippet, config)
                assert batch.energy_j[row, column] == reference.energy_j
                assert (batch.execution_time_s[row, column]
                        == reference.execution_time_s)
                assert (batch.average_power_w[row, column]
                        == reference.average_power_w)


def random_gpu_and_trace(rng: np.random.Generator, seed: int):
    gpu_spec = default_integrated_gpu(n_opp_levels=int(rng.integers(2, 10)),
                                      n_slices=int(rng.integers(1, 5)))
    trace = generate_frame_trace(
        "random",
        n_frames=int(rng.integers(5, 40)),
        mean_work_cycles=float(rng.uniform(5e6, 6e7)),
        work_variation=float(rng.uniform(0.0, 0.3)),
        target_fps=float(rng.choice([30.0, 60.0])),
        seed=seed,
    )
    return gpu_spec, trace


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestGPUFrameLoop:
    def test_pinned_controller_run(self, seed, pinned_gpu_controller):
        rng = np.random.default_rng(seed)
        gpu_spec, trace = random_gpu_and_trace(rng, seed)
        config = GPUConfiguration(
            opp_index=int(rng.integers(0, len(gpu_spec.opps))),
            active_slices=int(rng.integers(1, gpu_spec.n_slices + 1)),
        )
        # A noise-free run draws nothing from its generator.
        simulator = GPUSimulator(gpu_spec, noise_scale=0.0, seed=seed)
        quiet = GPUSimulator(gpu_spec, noise_scale=0.0, seed=seed + 1)
        controller = pinned_gpu_controller(config)
        fixed = simulator.run(trace, controller)
        assert fixed.frame_results == quiet.run(
            trace, pinned_gpu_controller(config)).frame_results
        assert controller.observed == fixed.frame_results
        assert fixed.n_frames == len(trace)
        for result in fixed.frame_results:
            assert result.frame_time_s == max(result.busy_time_s,
                                              trace.deadline_s)
            assert result.met_deadline == (
                result.busy_time_s <= trace.deadline_s + 1e-9)
        assert fixed.gpu_energy_j == float(
            sum(r.gpu_energy_j for r in fixed.frame_results))

    def test_faster_knobs_never_lengthen_a_frame(self, seed,
                                                 pinned_gpu_controller):
        rng = np.random.default_rng(seed)
        gpu_spec, trace = random_gpu_and_trace(rng, seed)
        simulator = GPUSimulator(gpu_spec, noise_scale=0.0, seed=seed)

        def busy_times(opp, slices):
            controller = pinned_gpu_controller(GPUConfiguration(opp, slices))
            run = simulator.run(trace, controller)
            return [result.busy_time_s for result in run.frame_results]

        # busy[slices - 1, opp, frame]
        busy = np.array([
            [busy_times(opp, slices) for opp in range(len(gpu_spec.opps))]
            for slices in range(1, gpu_spec.n_slices + 1)
        ])
        assert np.all(np.diff(busy, axis=1) < 0.0)
        assert np.all(np.diff(busy, axis=0) < 0.0)


def random_noc(rng: np.random.Generator):
    topology = MeshTopology(int(rng.integers(1, 5)), int(rng.integers(2, 5)))
    router = RouterConfig(
        router_delay_cycles=int(rng.integers(0, 5)),
        link_delay_cycles=int(rng.integers(0, 3)),
        flits_per_cycle=int(rng.integers(1, 4)),
    )
    return topology, router


def random_traffic(rng: np.random.Generator, topology: MeshTopology,
                   seed: int) -> UniformRandomTraffic:
    return UniformRandomTraffic(
        topology,
        injection_rate=float(rng.uniform(0.02, 0.3)),
        packet_size_flits=int(rng.integers(1, 9)),
        seed=seed,
    )


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestNoCPacketLoop:
    def test_every_packet_delivered_along_its_route(self, seed):
        rng = np.random.default_rng(seed)
        topology, router = random_noc(rng)
        n_cycles = int(rng.integers(20, 120))
        packets = random_traffic(rng, topology, seed).generate(n_cycles)
        simulator = NoCSimulator(topology, router)
        result = simulator.run_packets(packets, n_cycles)
        assert result.undelivered_count == 0
        delivered = sorted(result.delivered_packets, key=lambda p: p.packet_id)
        # The delivered list holds the input packets, annotated in place.
        assert len(delivered) == len(packets)
        assert all(got is sent for got, sent in zip(delivered, packets))
        for packet in packets:
            assert packet.route == topology.xy_route(packet.source,
                                                     packet.destination)
            assert packet.hops == manhattan_hops(topology, packet.source,
                                                 packet.destination)
            assert packet.latency_cycles >= zero_load_latency(
                simulator, packet.source, packet.destination,
                packet.size_flits)
        assert result.simulated_cycles == max(
            [n_cycles] + [p.ejection_cycle for p in packets])

    def test_lone_packet_sees_exactly_zero_load_latency(self, seed):
        rng = np.random.default_rng(seed)
        topology, router = random_noc(rng)
        source, destination = (int(node) for node in rng.choice(
            topology.n_nodes, size=2, replace=False))
        size = int(rng.integers(1, 17))
        injection = int(rng.integers(0, 50))
        packet = Packet(packet_id=0, source=source, destination=destination,
                        size_flits=size, injection_cycle=injection)
        simulator = NoCSimulator(topology, router)
        simulator.run_packets([packet], n_cycles=injection + 1)
        assert packet.latency_cycles == zero_load_latency(
            simulator, source, destination, size)

    def test_truncated_run_is_a_prefix_of_the_drained_run(self, seed):
        rng = np.random.default_rng(seed)
        topology, router = random_noc(rng)
        n_cycles = int(rng.integers(20, 120))
        traffic_seed = int(rng.integers(0, 2**31))
        rate = float(rng.uniform(0.05, 0.4))

        def packets():
            return UniformRandomTraffic(topology, injection_rate=rate,
                                        seed=traffic_seed).generate(n_cycles)

        simulator = NoCSimulator(topology, router)
        drained = simulator.run_packets(packets(), n_cycles)
        sent = packets()
        truncated = simulator.run_packets(sent, n_cycles, max_drain_cycles=0)
        assert truncated.simulated_cycles == n_cycles
        assert truncated.n_delivered + truncated.undelivered_count == len(sent)
        ejections = {p.packet_id: p.ejection_cycle
                     for p in drained.delivered_packets}
        assert {p.packet_id: p.ejection_cycle
                for p in truncated.delivered_packets} == {
            packet_id: cycle for packet_id, cycle in ejections.items()
            if cycle <= n_cycles}
        late = [p for p in sent if p.injection_cycle + zero_load_latency(
            simulator, p.source, p.destination, p.size_flits) > n_cycles]
        assert all(p.ejection_cycle is None for p in late)
        assert truncated.undelivered_count >= len(late)


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestOnlineEstimators:
    def test_rls_without_forgetting_converges_to_least_squares(self, seed):
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(1, 6))
        n_samples = int(rng.integers(40, 200))
        features = rng.normal(size=(n_samples, n_features))
        targets = (features @ rng.normal(size=n_features)
                   + float(rng.normal()) + 0.1 * rng.normal(size=n_samples))
        rls = RecursiveLeastSquares(n_features, forgetting_factor=1.0,
                                    delta=1e6)
        for row, target in zip(features, targets):
            rls.update(row, float(target))
        ols = LinearRegressor().fit(features, targets)
        np.testing.assert_allclose(rls.coef_, ols.coef_, rtol=1e-5, atol=1e-6)
        assert rls.weights[-1] == pytest.approx(ols.intercept_, rel=1e-5,
                                                abs=1e-6)


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
class TestOracleOptimality:
    def _random_trace(self, rng, n):
        return [random_snippet(rng, index=i) for i in range(n)]

    def test_no_policy_beats_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = self._random_trace(rng, int(rng.integers(3, 8)))
        table = build_oracle(simulator, space, snippets)
        policies = [
            StaticPolicy(space, space.random_configuration(rng)),
            RandomPolicy(space, seed=seed),
        ]
        for policy in policies:
            run = run_policy_on_snippets(simulator, space, policy, snippets,
                                         oracle_table=table)
            best_energy = table.columns["energy_j"]
            oracle_energy = sum(best_energy[table.rows[s.name]]
                                for s in snippets)
            assert oracle_energy <= run.total_energy_j * (1.0 + 1e-12)
            # Per snippet too: the entry is the minimum over the space.
            energies = run.log.column("energy_j")
            assert len(energies) == len(snippets)
            for snippet, energy in zip(snippets, energies):
                assert (best_energy[table.rows[snippet.name]]
                        <= energy * (1.0 + 1e-12))

    def test_restricted_oracle_never_beats_full(self, seed):
        rng = np.random.default_rng(seed)
        platform = random_platform(rng)
        space = ConfigurationSpace(platform)
        cap = int(rng.integers(0, max(1, len(platform.clusters["big"].opps) - 1)))
        restricted = space.restrict(max_opp_index=cap)
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=seed)
        snippets = self._random_trace(rng, 4)
        full = build_oracle(simulator, space, snippets)
        part = build_oracle(simulator, restricted, snippets)
        for snippet in snippets:
            assert (full.columns["energy_j"][full.rows[snippet.name]]
                    <= part.columns["energy_j"][part.rows[snippet.name]]
                    * (1.0 + 1e-12))
            assert restricted.contains(part.best_configuration(snippet))


def random_tree_data(rng: np.random.Generator):
    """Features, targets and stopping rules for one random regression tree."""
    n_samples = int(rng.integers(30, 90))
    n_features = int(rng.integers(1, 5))
    features = rng.normal(size=(n_samples, n_features))
    # Half-unit steps in some columns, so equal values share a boundary.
    quantised = rng.random(n_features) < 0.5
    features[:, quantised] = np.round(features[:, quantised] * 2) / 2
    targets = (features @ rng.normal(size=n_features)
               + 0.3 * rng.normal(size=n_samples))
    params = dict(max_depth=int(rng.integers(2, 8)),
                  min_samples_split=int(rng.integers(2, 7)),
                  min_samples_leaf=int(rng.integers(1, 4)))
    return features, targets, params


def tree_splits(node):
    """(feature, threshold) of every internal node under ``node``."""
    if node.is_leaf:
        return []
    return ([(node.feature, node.threshold)] + tree_splits(node.left)
            + tree_splits(node.right))


def leaf_partition(node, features, rows):
    """(leaf, row indices) pairs: ``rows`` routed down from ``node``."""
    if node.is_leaf:
        return [(node, rows)]
    left = features[rows, node.feature] <= node.threshold
    return (leaf_partition(node.left, features, rows[left])
            + leaf_partition(node.right, features, rows[~left]))


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
@pytest.mark.parametrize(
    "tree_class", [DecisionTreeRegressor, ScalarDecisionTreeRegressor],
    ids=["vectorized", "scalar"])
class TestTreeRegressorConsistency:
    def test_predict_matches_the_row_walk(self, seed, tree_class):
        rng = np.random.default_rng(seed)
        features, targets, params = random_tree_data(rng)
        tree = tree_class(**params).fit(features, targets)
        probe = [features, rng.normal(size=(20, features.shape[1]))]
        # A row exactly on a threshold goes left (``<=``) in both forms.
        for feature, threshold in tree_splits(tree.root_):
            row = features[int(rng.integers(len(features)))].copy()
            row[feature] = threshold
            probe.append(row[None, :])
        probe = np.vstack(probe)
        np.testing.assert_array_equal(
            tree.predict(probe),
            np.array([predict_row(tree, row) for row in probe]))

    def test_leaves_hold_the_mean_of_their_training_targets(self, seed,
                                                            tree_class):
        rng = np.random.default_rng(seed)
        features, targets, params = random_tree_data(rng)
        tree = tree_class(**params).fit(features, targets)
        leaves = leaf_partition(tree.root_, features,
                                np.arange(len(features)))
        assert len(leaves) == len(tree_splits(tree.root_)) + 1
        for leaf, rows in leaves:
            assert len(rows) >= params["min_samples_leaf"]
            assert leaf.prediction == float(np.mean(targets[rows]))

    def test_a_deeper_tree_extends_a_shallower_one(self, seed, tree_class):
        rng = np.random.default_rng(seed)
        features, targets, params = random_tree_data(rng)
        shallow = tree_class(**params).fit(features, targets)
        deep = tree_class(**{**params, "max_depth": params["max_depth"] + 2}
                          ).fit(features, targets)

        def extends(a, b, depth):
            assert a.prediction == b.prediction
            if a.is_leaf:
                # Above the depth limit a leaf stopped for another reason,
                # which a deeper limit does not change.
                assert depth == params["max_depth"] or b.is_leaf
                return
            assert (a.feature, a.threshold) == (b.feature, b.threshold)
            extends(a.left, b.left, depth + 1)
            extends(a.right, b.right, depth + 1)

        extends(shallow.root_, deep.root_, 1)
