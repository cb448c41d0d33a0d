"""Property tests for the cross-device batched learning kernels.

The fleet's online-IL batching rests on three exact-equivalence claims:

* a stacked-RLS batch update equals N sequential rank-1 updates, bitwise,
  independent of device order;
* the stacked MLP stack (forward and minibatch SGD) equals per-device
  scalar training, bitwise, including the pre-drawn shuffle orders, also
  when an adopted classifier's own ``partial_fit`` trains its stack rows
  between stacked calls;
* the padded segmented argmin preserves the scalar first-minimum
  tie-break (exact ties resolve to the lowest candidate position, and
  padding can never win).

These tests pin each claim directly against the scalar reference
implementations (the RLS ``update`` in ``src/``, the per-network MLP loop
in ``tests/scalar_reference/mlp_scalar.py``).  A copy of an adopted policy
must own its network: training it leaves the original bitwise unchanged.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.runtime_oracle import RuntimeOracle
from repro.core.session import PolicySession
from repro.fleet.device import DeviceSpec, build_fleet
from repro.fleet.kernels import masked_first_argmin
from repro.ml.mlp import FleetMLPStack, MLPClassifier
from repro.ml.rls import RecursiveLeastSquares, rls_update_fleet
from repro.models.performance import (
    CpuPerformanceModel,
    fleet_update_performance_models,
)
from repro.models.power import CpuPowerModel, fleet_update_power_models
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads
from scalar_reference.mlp_scalar import assert_same_network, scalar_twin


def make_snippets(n, seed=11):
    generator = SnippetTraceGenerator(seed=seed)
    snippets = []
    for workload in training_workloads():
        snippets.extend(generator.generate(workload.scaled(0.2)))
    return snippets[:n]


# --------------------------------------------------------------------- #
# Stacked RLS == N sequential rank-1 updates
# --------------------------------------------------------------------- #
class TestFleetRLS:
    def _models(self, n=5, n_features=4):
        rng = np.random.default_rng(7)
        models = []
        for i in range(n):
            model = RecursiveLeastSquares(
                n_features=n_features,
                forgetting_factor=0.9 + 0.02 * i,  # heterogeneous lambdas
                delta=50.0 + 10.0 * i,
                initial_weights=rng.normal(size=n_features),
            )
            models.append(model)
        return models

    def test_batch_matches_sequential_updates_bitwise(self):
        rng = np.random.default_rng(3)
        batch = self._models()
        reference = copy.deepcopy(batch)
        for _ in range(6):
            features = rng.normal(size=(len(batch), 4))
            targets = rng.normal(size=len(batch))
            scalar_errors = [model.update(features[d], targets[d])
                             for d, model in enumerate(reference)]
            errors = rls_update_fleet(batch, features, targets)
            np.testing.assert_array_equal(errors, scalar_errors)
            for ref, model in zip(reference, batch):
                np.testing.assert_array_equal(ref.weights, model.weights)
                np.testing.assert_array_equal(ref.covariance,
                                              model.covariance)
                np.testing.assert_array_equal(ref.last_gain, model.last_gain)
                assert ref.last_error == model.last_error
                assert ref.n_updates == model.n_updates

    def test_device_order_cannot_matter(self):
        """Models share no state, so the scalar update order is free —
        the batch must equal ANY sequential ordering, not just 0..N-1."""
        rng = np.random.default_rng(4)
        batch = self._models()
        reference = copy.deepcopy(batch)
        features = rng.normal(size=(len(batch), 4))
        targets = rng.normal(size=len(batch))
        for d in reversed(range(len(reference))):
            reference[d].update(features[d], targets[d])
        rls_update_fleet(batch, features, targets)
        for ref, model in zip(reference, batch):
            np.testing.assert_array_equal(ref.weights, model.weights)
            np.testing.assert_array_equal(ref.covariance, model.covariance)

    def test_shared_model_instance_rejected(self):
        models = self._models(n=3)
        shared = [models[0], models[1], models[0]]
        with pytest.raises(ValueError, match="distinct model instances"):
            rls_update_fleet(shared, np.zeros((3, 4)), np.zeros(3))

    def test_heterogeneous_models_rejected(self):
        models = [RecursiveLeastSquares(n_features=4),
                  RecursiveLeastSquares(n_features=3)]
        with pytest.raises(ValueError, match="homogeneous"):
            rls_update_fleet(models, np.zeros((2, 4)), np.zeros(2))


# --------------------------------------------------------------------- #
# Segmented argmin: first-minimum tie-break, padding masked out
# --------------------------------------------------------------------- #
class TestMaskedFirstArgmin:
    def test_matches_scalar_first_minimum(self):
        rng = np.random.default_rng(9)
        costs = rng.normal(size=(20, 13))
        lengths = rng.integers(1, 14, size=20)
        lengths[0], lengths[3] = 6, 9  # keep the planted ties in-segment
        valid = np.arange(13)[None, :] < lengths[:, None]
        # Force exact ties inside the valid region of several rows.
        costs[0, :4] = -5.0
        costs[3, 2] = costs[3, 7] = costs[3].min() - 1.0
        # Padding carries the global minimum — it must never win.
        costs[~valid] = -1e9
        best = masked_first_argmin(costs, valid)
        for row in range(costs.shape[0]):
            expected, expected_cost = None, None
            for position in range(int(lengths[row])):
                cost = costs[row, position]
                if expected_cost is None or cost < expected_cost:
                    expected, expected_cost = position, cost
            assert best[row] == expected, f"row {row}"
        assert best[0] == 0  # first of the tied minima
        assert best[3] == 2

    def test_all_tied_row_selects_position_zero(self):
        costs = np.full((3, 5), 1.25)
        valid = np.ones((3, 5), dtype=bool)
        valid[1, 3:] = False
        np.testing.assert_array_equal(
            masked_first_argmin(costs, valid), [0, 0, 0]
        )

    def test_all_masked_row_raises_naming_rows(self):
        """An all-masked row has no argmin — silent position 0 is banned."""
        costs = np.zeros((4, 3))
        valid = np.ones((4, 3), dtype=bool)
        valid[1] = False
        valid[3] = False
        with pytest.raises(ValueError, match=r"rows \[1, 3\]"):
            masked_first_argmin(costs, valid)

    def test_valid_infinite_costs_still_win(self):
        """Only the mask defines emptiness — a valid +inf row is not empty."""
        costs = np.full((2, 3), np.inf)
        valid = np.ones((2, 3), dtype=bool)
        np.testing.assert_array_equal(
            masked_first_argmin(costs, valid), [0, 0]
        )


# --------------------------------------------------------------------- #
# Stacked MLP == per-device scalar training
# --------------------------------------------------------------------- #
class TestFleetMLPStack:
    N_CLASSES = 6
    N_FEATURES = 4

    def _classifiers(self, n=3):
        classifiers = []
        for i in range(n):
            classifier = MLPClassifier(hidden_sizes=(8,), learning_rate=1e-2,
                                       momentum=0.9, l2=1e-5, batch_size=4,
                                       seed=10 + i)
            classifier.ensure_classes(range(self.N_CLASSES), self.N_FEATURES)
            classifiers.append(classifier)
        return classifiers

    def _dataset(self, seed, n_samples=10):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_samples, self.N_FEATURES))
        labels = rng.integers(0, self.N_CLASSES, size=n_samples)
        return data, labels

    def test_partial_fit_rows_matches_scalar_bitwise(self):
        batch = self._classifiers()
        twins = [scalar_twin(classifier) for classifier in batch]
        stack = FleetMLPStack(batch)
        rows = np.arange(len(batch))
        for round_seed in (20, 21):
            datasets, labels = zip(*(self._dataset(round_seed + 100 * i)
                                     for i in range(len(batch))))
            for twin, data, labs in zip(twins, datasets, labels):
                twin.partial_fit(data, labs, epochs=3)
            encoded = [classifier._encode(labs)
                       for classifier, labs in zip(batch, labels)]
            stack.partial_fit_rows(rows, list(datasets), encoded, epochs=3)
            for twin, actual in zip(twins, batch):
                assert_same_network(actual, twin)
        probe = np.random.default_rng(5).normal(size=(7, self.N_FEATURES))
        for twin, actual in zip(twins, batch):
            np.testing.assert_array_equal(twin.predict(probe),
                                          actual.predict(probe))

    def test_subset_rows_leave_other_devices_untouched(self):
        batch = self._classifiers(n=4)
        twins = [scalar_twin(classifier) for classifier in batch]
        stack = FleetMLPStack(batch)
        rows = np.array([0, 2])
        data, labels = self._dataset(33)
        for row in rows:
            twins[row].partial_fit(data, labels, epochs=2)
        encoded = [batch[row]._encode(labels) for row in rows]
        stack.partial_fit_rows(rows, [data, data], encoded, epochs=2)
        for twin, actual in zip(twins, batch):
            assert_same_network(actual, twin)

    def test_own_partial_fit_and_stacked_training_interleave(self):
        """An adopted classifier's own ``partial_fit`` trains its stack
        rows in place: interleaved with ``partial_fit_rows`` (full and
        subset) and read through ``predict_encoded``, every device equals
        its scalar twin trained in the same order."""
        batch = self._classifiers(n=3)
        twins = [scalar_twin(classifier) for classifier in batch]
        stack = FleetMLPStack(batch)
        features = np.random.default_rng(6).normal(
            size=(len(batch), self.N_FEATURES))
        for step, rows in enumerate((np.arange(3), np.array([0, 2]))):
            own = int(rows[-1])
            data, labels = self._dataset(50 + step, n_samples=7)
            batch[own].partial_fit(data, labels, epochs=2)
            twins[own].partial_fit(data, labels, epochs=2)
            datasets, labels = zip(*(self._dataset(60 + step + 10 * row)
                                     for row in rows))
            stack.partial_fit_rows(
                rows, list(datasets),
                [batch[row]._encode(labs) for row, labs in zip(rows, labels)],
                epochs=3)
            for row, labs, data in zip(rows, labels, datasets):
                twins[row].partial_fit(data, labs, epochs=3)
            positions = stack.predict_encoded(np.arange(3), features)
            for i, twin in enumerate(twins):
                assert_same_network(batch[i], twin)
                assert positions[i] == np.argmax(
                    twin.predict_proba(features[i:i + 1])[0])

    def test_predict_encoded_matches_scalar_and_breaks_ties_first(self):
        batch = self._classifiers()
        stack = FleetMLPStack(batch)
        rows = np.arange(len(batch))
        features = np.random.default_rng(6).normal(
            size=(len(batch), self.N_FEATURES))
        positions = stack.predict_encoded(rows, features)
        for i, classifier in enumerate(batch):
            assert (classifier.classes_[positions[i]]
                    == scalar_twin(classifier).predict(features[i:i + 1])[0])
        # Zeroed weights/biases make every logit identical: the scalar
        # argmax and the stacked argmax must both pick position 0.
        for layer in range(len(stack.weights)):
            stack.weights[layer][:] = 0.0
            stack.biases[layer][:] = 0.0
        tied = stack.predict_encoded(rows, features)
        np.testing.assert_array_equal(tied, np.zeros(len(batch), dtype=int))
        for i, classifier in enumerate(batch):
            assert classifier.predict(features[i:i + 1])[0] == \
                classifier.classes_[0]

    def test_stack_rejects_shared_cores_and_ragged_architectures(self):
        batch = self._classifiers(n=2)
        batch[1]._core = batch[0]._core
        with pytest.raises(ValueError, match="distinct"):
            FleetMLPStack(batch)
        other = MLPClassifier(hidden_sizes=(16,), seed=0)
        other.ensure_classes(range(self.N_CLASSES), self.N_FEATURES)
        with pytest.raises(ValueError, match="architecture"):
            FleetMLPStack([self._classifiers(n=1)[0], other])


class TestAdoptedPolicyCopies:
    """A copy of an adopted, trained online-IL policy owns its network.

    Adoption binds a classifier's network to rows of its group's
    :class:`FleetMLPStack`; a deep copy, a pickle round trip and a
    session restore must each come back with rows of their own, so that
    training the copy moves only the copy.
    """

    @pytest.fixture(scope="class")
    def fleet(self, trained_framework):
        framework = trained_framework
        trace = make_snippets(24, seed=3)
        oracle = framework.build_oracle_for(trace)
        devices = [
            DeviceSpec(name=f"device-{i}",
                       policy=framework.build_online_il_policy(
                           buffer_capacity=4, update_epochs=5,
                           isolated=True),
                       snippets=trace, oracle_table=oracle,
                       rng=np.random.default_rng(70 + i))
            for i in range(2)
        ]
        engine = build_fleet(devices, framework.simulator, framework.space)
        for _ in range(16):
            engine.step()
        return framework, engine, trace

    @pytest.mark.parametrize("how", ["deepcopy", "pickle", "restore"])
    def test_training_a_copy_leaves_the_original_unchanged(self, fleet, how):
        _, engine, _ = fleet
        session = engine.sessions[0]
        policy = session.policy
        assert policy.n_policy_updates > 0
        if how == "deepcopy":
            duplicate = copy.deepcopy(policy)
        elif how == "pickle":
            duplicate = pickle.loads(pickle.dumps(policy))
        else:
            duplicate = PolicySession.restore(session.snapshot_bytes(),
                                              session).policy
        original = policy.classifier
        # Adopted: the network's rows are rows of its group's stack.
        assert original._core.flat_w.base.shape[0] == len(engine.sessions)
        probe = np.random.default_rng(8).normal(
            size=(12, original._core.layer_sizes[0]))
        proba_before = original.predict_proba(probe)
        rows_before = [row.copy() for row in _rows(original)]
        predicted = duplicate.classifier.predict(probe)
        np.testing.assert_array_equal(predicted, original.predict(probe))
        target = np.full(len(probe),
                         (int(predicted[0]) + 1) % len(policy.space))
        duplicate.classifier.partial_fit(probe, target, epochs=40)
        assert not np.array_equal(duplicate.classifier.predict(probe),
                                  predicted)
        assert original.predict_proba(probe).tobytes() == \
            proba_before.tobytes()
        for before, after in zip(rows_before, _rows(original)):
            assert before.tobytes() == after.tobytes()


def _rows(classifier):
    core = classifier._core
    return core.flat_w, core.flat_b, core.vel_w, core.vel_b


# --------------------------------------------------------------------- #
# Fleet model updates and oracle sweep vs scalar references
# --------------------------------------------------------------------- #
class TestFleetModelUpdates:
    @pytest.fixture()
    def observations(self, platform, space):
        """(counters, config_index) pairs from real simulator runs."""
        simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
        snippets = make_snippets(12)
        rng = np.random.default_rng(17)
        indices = rng.integers(0, len(space), size=len(snippets))
        pairs = []
        for snippet, index in zip(snippets, indices):
            config = space[int(index)]
            result = simulator.run_snippet(snippet, config)
            pairs.append((result.counters, int(index)))
        return pairs

    def _models(self, platform, n):
        powers = [CpuPowerModel(platform, forgetting_factor=0.99 + 0.001 * i)
                  for i in range(n)]
        perfs = [CpuPerformanceModel(platform,
                                     forgetting_factor=0.99 + 0.001 * i)
                 for i in range(n)]
        return powers, perfs

    def test_fleet_model_updates_match_scalar_bitwise(self, platform, space,
                                                      observations):
        n = 4
        powers, perfs = self._models(platform, n)
        ref_powers, ref_perfs = self._models(platform, n)
        soa = space.soa_view()
        for step in range(len(observations) // n):
            chunk = observations[step * n:(step + 1) * n]
            counters_list = [c for c, _ in chunk]
            indices = np.array([i for _, i in chunk], dtype=np.intp)
            for d in range(n):
                config = space[int(indices[d])]
                ref_powers[d].update(counters_list[d], config)
                ref_perfs[d].update(counters_list[d], config)
            candidates = soa.gather(indices)
            fleet_update_power_models(powers, counters_list, candidates)
            fleet_update_performance_models(perfs, counters_list, candidates)
            for ref, actual in zip(ref_powers + ref_perfs, powers + perfs):
                np.testing.assert_array_equal(ref.rls.weights,
                                              actual.rls.weights)
                np.testing.assert_array_equal(ref.rls.covariance,
                                              actual.rls.covariance)
                assert ref.rls.last_error == actual.rls.last_error
                assert ref.rls.n_updates == actual.rls.n_updates

    def test_fleet_best_indices_matches_scalar_including_exact_ties(
            self, platform, space, observations):
        n = 4
        powers, perfs = self._models(platform, n)
        oracles = [RuntimeOracle(space, powers[d], perfs[d],
                                 neighborhood_radius=2)
                   for d in range(n)]
        soa = space.soa_view()
        # First pass: freshly built models are identical across devices,
        # so many candidates predict identical costs — the fleet sweep
        # must still resolve every tie to the scalar first minimum.
        # Later passes diverge the models with per-device updates.
        for step in range(len(observations) // n):
            chunk = observations[step * n:(step + 1) * n]
            counters_list = [c for c, _ in chunk]
            indices = np.array([i for _, i in chunk], dtype=np.intp)
            best = RuntimeOracle.fleet_best_indices(
                oracles, counters_list, indices)
            for d, oracle in enumerate(oracles):
                config, _ = oracle.best_configuration(
                    counters_list[d], space[int(indices[d])])
                assert int(best[d]) == space.index_of(config), (
                    f"step {step} device {d}"
                )
            candidates = soa.gather(indices)
            fleet_update_power_models(powers, counters_list, candidates)
            fleet_update_performance_models(perfs, counters_list, candidates)

    def test_fleet_best_indices_degrades_empty_rows_to_scalar(
            self, platform, space, observations, monkeypatch):
        """An empty candidate row raises a ``ValueError`` naming the row.

        Every neighbourhood includes its current configuration, so a real
        sweep always has at least one valid candidate per row and there is
        no per-device fallback; the empty-row path is forced here by
        wrapping the segmented argmin to mask out row 1, and the sweep must
        refuse it instead of picking a padding entry.
        """
        import repro.fleet.kernels as kernels_module

        n = 4
        powers, perfs = self._models(platform, n)
        oracles = [RuntimeOracle(space, powers[d], perfs[d],
                                 neighborhood_radius=2)
                   for d in range(n)]
        chunk = observations[:n]
        counters_list = [c for c, _ in chunk]
        indices = np.array([i for _, i in chunk], dtype=np.intp)

        real_argmin = kernels_module.masked_first_argmin

        def forced_empty(costs, valid):
            valid = valid.copy()
            valid[1] = False
            return real_argmin(costs, valid)

        # fleet_best_indices imports the kernel lazily (circular-import
        # avoidance), so the patch must land on the kernels module.
        monkeypatch.setattr(kernels_module, "masked_first_argmin",
                            forced_empty)
        with pytest.raises(ValueError, match=r"rows \[1\] have no valid"):
            RuntimeOracle.fleet_best_indices(oracles, counters_list, indices)
