"""Model-guided online imitation learning policy (Sec. IV-A3).

The policy starts from an offline-trained neural-network IL policy and from
offline-bootstrapped power/performance models.  At runtime, after every
snippet:

1. the online models are updated with the observed counters (Sec. III-B);
2. the runtime Oracle evaluates candidate configurations in the neighbourhood
   of the current configuration and selects the predicted-best one;
3. the (counter features, predicted-best configuration) pair is appended to
   the aggregation buffer;
4. when the buffer is full, the neural-network policy is updated with
   back-propagation on the buffered data and the buffer is reset.

The actual control decision applied to the system is the policy's own
prediction — imitation learning updates the policy toward the runtime Oracle
rather than acting on the Oracle directly, which keeps the runtime decision
cost at a single forward pass.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.control.policy import DRMPolicy, FleetDecisions
from repro.core.buffer import AggregationBuffer
from repro.core.offline_il import OfflineILPolicy
from repro.core.runtime_oracle import RuntimeOracle
from repro.ml.mlp import FleetMLPStack, MLPClassifier
from repro.ml.rls import RecursiveLeastSquares
from repro.ml.scaling import StandardScaler
from repro.models.performance import (
    CpuPerformanceModel,
    fleet_update_performance_models,
)
from repro.models.power import CpuPowerModel, fleet_update_power_models
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult
from repro.soc.snippet import Snippet

#: Runtime-Oracle model updates before the policy takes supervision
#: labels from it (the models must have seen enough data to be meaningful).
MIN_MODEL_UPDATES = 3


class OnlineILPolicy(DRMPolicy):
    """Online-adaptive imitation-learning DRM policy."""

    def __init__(
        self,
        space: ConfigurationSpace,
        offline_policy: OfflineILPolicy,
        runtime_oracle: RuntimeOracle,
        buffer_capacity: int = 100,
        update_epochs: int = 30,
    ) -> None:
        super().__init__(space)
        if update_epochs < 1:
            raise ValueError("update_epochs must be >= 1")
        self.offline_policy = offline_policy
        self.runtime_oracle = runtime_oracle
        self.buffer = AggregationBuffer(capacity=buffer_capacity)
        self.update_epochs = int(update_epochs)
        self.n_policy_updates = 0
        self.n_supervision_labels = 0
        self.n_rejected_decisions = 0
        self.n_rejected_updates = 0
        self._last_runtime_label: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def classifier(self) -> MLPClassifier:
        return self.offline_policy.classifier

    def _scaled(self, counters: PerformanceCounters) -> np.ndarray:
        return self.offline_policy.scaler.transform(
            counters.feature_vector().reshape(1, -1)
        )

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if counters is None:
            return self.current
        if not counters.is_valid():
            # Degradation gate: corrupted telemetry (NaN dropout, saturated
            # sensors) must reach neither the scaler/classifier forward nor
            # the supervision path — hold the last-safe configuration.
            self.n_rejected_decisions += 1
            return self.current
        scaled = self._scaled(counters)

        # Model-guided supervision: query the runtime Oracle once its online
        # models have seen enough data to be meaningful.
        if self.runtime_oracle.n_model_updates >= MIN_MODEL_UPDATES:
            best_config, _ = self.runtime_oracle.best_configuration(
                counters, self.current
            )
            label = self.space.index_of(best_config)
            self._last_runtime_label = label
            self.n_supervision_labels += 1
            became_full = self.buffer.insert(scaled.ravel(), label)
            if became_full:
                self._update_policy()

        # The applied decision is the (possibly just updated) policy's own.
        predicted_index = int(self.classifier.predict(scaled)[0])
        predicted_index = max(0, min(len(self.space) - 1, predicted_index))
        self.current = self.space[predicted_index]
        return self.current

    def _update_policy(self) -> None:
        features, labels = self.buffer.drain()
        self.classifier.partial_fit(features, labels, epochs=self.update_epochs)
        self.n_policy_updates += 1

    def observe(self, result: SnippetResult) -> None:
        super().observe(result)
        if not result.counters.is_valid():
            # Skip the model update: one NaN/garbage observation would
            # permanently poison the RLS precision tensors.  The executed
            # configuration is still tracked (super().observe) so the
            # policy resumes cleanly from the next healthy step.
            self.n_rejected_updates += 1
            return
        self.runtime_oracle.update_models(result.counters, result.configuration)

    # ------------------------------------------------------------------ #
    # Fleet batching (cross-device batched learning)
    # ------------------------------------------------------------------ #
    def _fleet_models_batchable(self) -> bool:
        """Shared preconditions of the batched decide and observe paths.

        Exact types only: a subclass overriding any model behaviour must
        fall back to scalar stepping rather than silently replaying the
        base arithmetic.  Both models must read the space's platform
        object, so the space's struct-of-arrays tables are each model's
        own per-OPP tables.
        """
        oracle = self.runtime_oracle
        if type(oracle) is not RuntimeOracle:
            return False
        if oracle.space is not self.space:
            return False
        if type(oracle.power_model) is not CpuPowerModel:
            return False
        if type(oracle.performance_model) is not CpuPerformanceModel:
            return False
        for rls in (oracle.power_model.rls, oracle.performance_model.rls):
            if type(rls) is not RecursiveLeastSquares or not rls.fit_intercept:
                return False
        if set(self.space.cluster_order) != {"big", "little"}:
            return False
        platform = self.space.platform
        return (oracle.power_model.platform is platform
                and oracle.performance_model.platform is platform)

    def fleet_decide_key(self) -> Optional[Tuple]:
        if type(self) is not OnlineILPolicy:
            return None
        if not self._fleet_models_batchable():
            return None
        oracle = self.runtime_oracle
        classifier = self.offline_policy.classifier
        if type(classifier) is not MLPClassifier or classifier._core is None:
            return None
        if classifier.classes_ is None or not np.array_equal(
                classifier.classes_, np.arange(len(self.space))):
            # The batched path treats argmax positions as space indices;
            # any other class registration must decide scalar.
            return None
        scaler = self.offline_policy.scaler
        if type(scaler) is not StandardScaler or scaler.mean_ is None:
            return None
        core = classifier._core
        # Content key, not id(space): process-stable and GC-safe, so
        # content-equal spaces group together and sharded fleets key
        # identically across worker processes.
        return ("OnlineILPolicy", self.space.content_key(),
                oracle.neighborhood_radius, tuple(core.layer_sizes))

    def fleet_observe_key(self) -> Optional[Tuple]:
        if type(self) is not OnlineILPolicy:
            return None
        if not self._fleet_models_batchable():
            return None
        return ("OnlineILPolicy-observe", self.space.content_key())

    @staticmethod
    def _members_match(stored: Optional[Tuple],
                       policies: Sequence["OnlineILPolicy"]) -> bool:
        """Whether ``stored`` is exactly the current member tuple.

        Membership is compared by object identity against a tuple that
        *holds strong references* — unlike the old ``id()``-tuple
        comparison, a policy that was garbage-collected and whose address
        was reused by a new allocation can never pass, because the stored
        tuple keeps the original object alive for the ``is`` check.
        """
        return (stored is not None and len(stored) == len(policies)
                and all(a is b for a, b in zip(stored, policies)))

    @staticmethod
    def _fleet_adopt(policies: Sequence["OnlineILPolicy"],
                     state: dict) -> dict:
        """(Re)build the group's decide-side stacks when membership shifts.

        Adoption refuses shared mutable state: two rows sharing any
        learning object (policy, classifier, core, generator, scaler,
        buffer, oracle, model, RLS estimator) would interleave their
        updates in an order no sequential run has, so it raises
        :class:`ValueError` naming both rows.  The rows get one
        :class:`~repro.ml.mlp.FleetMLPStack` (stack row = group row) plus
        stacked scaler statistics.  The stack copies each classifier's
        network rows once and re-points the network at them; training
        only updates those rows in place, so a row that decides scalar
        (invalid telemetry) still trains on the stack.  Cheap identity
        revalidation runs every step (networks replaced by ``fit()``,
        scaler statistics rebound by ``partial_fit``); a mismatch triggers
        full re-adoption.

        Ownership is computed over the member objects themselves (dict
        keys holding strong references), never over ``id()`` values:
        every object participating in the check is simultaneously alive
        for the duration of the pass, and the stored member tuple keeps
        the adopted policies alive across steps, so a GC'd-and-reallocated
        object can never alias into the wrong row.
        """
        if OnlineILPolicy._members_match(state.get("members"), policies):
            fresh = all(
                policy.classifier._core is core
                for policy, core in zip(policies, state["cores"])
            ) and all(
                policy.offline_policy.scaler.mean_ is mean_ref
                and policy.offline_policy.scaler.var_ is var_ref
                for policy, (mean_ref, var_ref)
                in zip(policies, state["scaler_refs"])
            )
            if fresh:
                return state
        owner: Dict[Any, int] = {}
        for row, policy in enumerate(policies):
            for obj in (
                policy,
                policy.offline_policy,
                policy.classifier,
                policy.classifier._core,
                policy.classifier.rng,
                policy.offline_policy.scaler,
                policy.buffer,
                policy.runtime_oracle,
                policy.runtime_oracle.power_model,
                policy.runtime_oracle.performance_model,
                policy.runtime_oracle.power_model.rls,
                policy.runtime_oracle.performance_model.rls,
            ):
                if obj is None:
                    continue
                first = owner.setdefault(obj, row)
                if first != row:
                    raise ValueError(
                        f"online-IL rows {first} and {row} of one fleet "
                        f"group share one {type(obj).__name__}: give each "
                        "device its own learning state "
                        "(build_online_il_policy(isolated=True))"
                    )
        state["members"] = tuple(policies)
        # Rows whose supervision gate has already opened; the gate
        # (``n_model_updates >= MIN_MODEL_UPDATES``) is monotone for a
        # fixed policy object, so membership never needs revisiting until
        # adoption rebuilds this state.
        state["supervised_known"] = set()
        state["stack"] = FleetMLPStack(
            [policy.classifier for policy in policies])
        state["cores"] = [policy.classifier._core for policy in policies]
        scalers = [policy.offline_policy.scaler for policy in policies]
        state["scaler_refs"] = [(scaler.mean_, scaler.var_)
                                for scaler in scalers]
        state["mean"] = np.stack([scaler.mean_ for scaler in scalers])
        # The scaler statistics are frozen between adoptions (rebinds
        # trigger re-adoption above), so the divisors are constants.
        state["scale"] = np.stack([scaler.scale_ for scaler in scalers])
        return state

    @staticmethod
    def _fleet_update_policies(policies: Sequence["OnlineILPolicy"],
                               flush_rows: Sequence[int],
                               state: dict) -> None:
        """Flush full aggregation buffers, batching same-shape trainings.

        Devices whose buffers filled on the same lockstep step and share
        every training hyper-parameter (sample count, minibatch size,
        epochs, learning rate, momentum, l2) train as one stacked
        :meth:`~repro.ml.mlp.FleetMLPStack.partial_fit_rows` call.  A
        group of one trains on the stack too, as a one-row group, with the
        same trainer as :meth:`_update_policy`.  Training order across
        devices is irrelevant — adoption guaranteed the classifiers are
        distinct objects.
        """
        groups: Dict[Tuple, List[int]] = {}
        for row in flush_rows:
            policy = policies[row]
            core = policy.classifier._core
            key = (len(policy.buffer), policy.classifier.batch_size,
                   policy.update_epochs, core.learning_rate, core.momentum,
                   core.l2)
            groups.setdefault(key, []).append(row)
        stack = state["stack"]
        for members in groups.values():
            datasets: List[np.ndarray] = []
            encoded: List[np.ndarray] = []
            for row in members:
                policy = policies[row]
                features, labels = policy.buffer.drain()
                datasets.append(features)
                encoded.append(policy.classifier._encode(labels))
                policy.n_policy_updates += 1
            stack.partial_fit_rows(
                np.array(members, dtype=np.intp),
                datasets, encoded, policies[members[0]].update_epochs,
            )

    @staticmethod
    def fleet_decide(
        policies: Sequence[DRMPolicy],
        counters: Sequence[Optional[PerformanceCounters]],
        snippets: Sequence[Snippet],
        group_state: dict,
    ) -> FleetDecisions:
        """Batched online-IL decide for one lockstep group.

        Mirrors the scalar :meth:`decide` per device, fleet-wide: one
        stacked scaler transform, one fleet-wide runtime-Oracle candidate
        sweep (:meth:`~repro.core.runtime_oracle.RuntimeOracle
        .fleet_best_indices`) for the supervision-eligible devices, per
        device buffer inserts in group order, stacked policy training for
        simultaneously full buffers, and one stacked classifier forward
        for the applied decisions.  Rows with no counters yet or with
        invalid telemetry take the scalar :meth:`decide` row-wise.  A
        current configuration outside the space raises :class:`KeyError`.
        """
        space = policies[0].space
        state = OnlineILPolicy._fleet_adopt(policies, group_state)
        out_configs: List[Optional[SoCConfiguration]] = [None] * len(policies)
        out_indices: List[Optional[int]] = [None] * len(policies)
        live: List[int] = []
        live_current: List[int] = []
        for i, policy in enumerate(policies):
            if counters[i] is None:
                # OnlineILPolicy.decide(None) returns self.current as-is.
                current = policy.current
                out_configs[i] = current
                out_indices[i] = space.index_of(current)
                continue
            if not counters[i].is_valid():
                # Scalar decide applies the degradation gate (hold the
                # last-safe configuration, count the rejection) — invalid
                # telemetry must not enter the stacked transforms.
                out_configs[i] = policy.decide(counters[i])
                out_indices[i] = space.index_of(out_configs[i])
                continue
            live.append(i)
            memo = policy.__dict__.get("_fleet_state")
            if memo is not None and memo[0] is policy.current:
                live_current.append(memo[1])
            else:
                live_current.append(space.index_of(policy.current))
        if not live:
            return out_configs, out_indices  # type: ignore[return-value]

        current_rows = np.array(live_current, dtype=np.intp)
        stack_rows = np.array(live, dtype=np.intp)
        feature_rows = np.stack(
            [counters[i].feature_vector() for i in live])
        if len(live) == len(policies):
            mean, scale = state["mean"], state["scale"]
        else:
            mean = state["mean"][stack_rows]
            scale = state["scale"][stack_rows]
        scaled = (feature_rows - mean) / scale

        # Model-guided supervision for devices whose online models have
        # seen enough data (per-row gate, like the scalar path).  Update
        # counts only grow, so rows already past the gate skip the
        # property-chain re-read.
        known = state["supervised_known"]
        supervised: List[int] = []
        for k, i in enumerate(live):
            if i in known:
                supervised.append(k)
                continue
            policy = policies[i]
            if (policy.runtime_oracle.n_model_updates  # type: ignore[attr-defined]
                    >= MIN_MODEL_UPDATES):
                known.add(i)
                supervised.append(k)
        if supervised:
            oracles = [policies[live[k]].runtime_oracle  # type: ignore[attr-defined]
                       for k in supervised]
            labels = RuntimeOracle.fleet_best_indices(
                oracles,
                [counters[live[k]] for k in supervised],
                current_rows[np.array(supervised, dtype=np.intp)],
            )
            flush_rows: List[int] = []
            for k, label in zip(supervised, labels.tolist()):
                policy = policies[live[k]]
                policy._last_runtime_label = label  # type: ignore[attr-defined]
                policy.n_supervision_labels += 1  # type: ignore[attr-defined]
                if policy.buffer.insert(scaled[k], label):  # type: ignore[attr-defined]
                    flush_rows.append(live[k])
            if flush_rows:
                OnlineILPolicy._fleet_update_policies(
                    policies, flush_rows, state)

        # The applied decision is each (possibly just updated) policy's
        # own prediction; classes_ == arange(len(space)) (a decide-key
        # precondition), so the argmax position IS the space index.
        encoded = state["stack"].predict_encoded(stack_rows, scaled)
        configs = space._configs
        last_index = len(space) - 1
        for k, i in enumerate(live):
            policy = policies[i]
            predicted = int(encoded[k])
            predicted = max(0, min(last_index, predicted))
            config = configs[predicted]
            policy.current = config
            policy._fleet_state = (config, predicted)  # type: ignore[attr-defined]
            out_configs[i] = config
            out_indices[i] = predicted
        return out_configs, out_indices  # type: ignore[return-value]

    @staticmethod
    def fleet_observe(
        policies: Sequence[DRMPolicy],
        steps: Sequence[object],
        results: Sequence[SnippetResult],
        group_state: dict,
    ) -> None:
        """Batched online-IL observe: stacked power/performance updates.

        Each device's scalar :meth:`observe` is two rank-1 RLS updates at
        the executed configuration; the fleet collapses them into one
        :func:`~repro.models.power.fleet_update_power_models` plus one
        :func:`~repro.models.performance.fleet_update_performance_models`
        call over the devices' struct-of-arrays configuration rows.  Rows
        with invalid telemetry observe scalar, row-wise.  Rows sharing a
        model are refused by :func:`~repro.ml.rls.rls_update_fleet`.
        """
        space = policies[0].space
        live: List[int] = []
        live_indices: List[int] = []
        for i, policy in enumerate(policies):
            if not results[i].counters.is_valid():
                # Scalar observe also applies the degradation gate, so
                # invalid telemetry never reaches the stacked RLS updates.
                policy.observe(results[i])
                continue
            config = results[i].configuration
            index = steps[i].configuration_index  # type: ignore[attr-defined]
            policy.current = config
            policy._fleet_state = (config, index)  # type: ignore[attr-defined]
            live.append(i)
            live_indices.append(index)
        if not live:
            return
        candidates = space.soa_view().gather(
            np.array(live_indices, dtype=np.intp))
        counters_list = [results[i].counters for i in live]
        fleet_update_power_models(
            [policies[i].runtime_oracle.power_model  # type: ignore[attr-defined]
             for i in live],
            counters_list, candidates,
            rls_state=group_state.setdefault("power_rls_state", {}))
        fleet_update_performance_models(
            [policies[i].runtime_oracle.performance_model  # type: ignore[attr-defined]
             for i in live],
            counters_list, candidates,
            rls_state=group_state.setdefault("perf_rls_state", {}))

    # ------------------------------------------------------------------ #
    def diagnostics(self) -> Dict[str, float]:
        """Counters describing the online adaptation activity."""
        return {
            "policy_updates": float(self.n_policy_updates),
            "supervision_labels": float(self.n_supervision_labels),
            "rejected_decisions": float(self.n_rejected_decisions),
            "rejected_updates": float(self.n_rejected_updates),
            "buffer_fill": float(len(self.buffer)),
            "buffer_capacity": float(self.buffer.capacity),
            "buffer_storage_bytes": float(self.buffer.storage_bytes()),
            "model_updates": float(self.runtime_oracle.n_model_updates),
            "policy_parameters": float(self.classifier.parameter_count()),
        }
