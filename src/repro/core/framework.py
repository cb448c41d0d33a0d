"""End-to-end online learning framework and policy evaluation runner (Fig. 1).

:func:`run_policy_on_snippets` is the shared evaluation loop: it executes a
snippet trace under a policy, feeds observations back, and records per-snippet
energy, time and (when an Oracle table is supplied) decision accuracy.

:class:`OnlineLearningFramework` is the high-level public API: it owns the
platform, configuration space, simulator and Oracle machinery, trains the
offline IL policy from design-time workloads, bootstraps the online power /
performance models, and constructs the online-IL and RL policies used by the
experiments and examples.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.control.policy import DRMPolicy
from repro.control.rl import QLearningController
from repro.core.offline_il import ILDataset, OfflineILPolicy, collect_il_dataset
from repro.core.online_il import OnlineILPolicy
from repro.core.oracle import (ENERGY, OracleCache, OracleTable,
                               build_oracle, oracle_results)
from repro.core.runtime_oracle import RuntimeOracle
from repro.models.performance import CpuPerformanceModel
from repro.models.power import CpuPowerModel
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import PlatformSpec, odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet
from repro.utils.records import RunLog
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.stats import trailing_nanmean
from repro.workloads.generator import SnippetTraceGenerator, generate_snippets
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (scenarios -> core)
    from repro.scenarios.base import ScenarioTrace


@dataclass
class PolicyRunResult:
    """Outcome of running one policy over a snippet trace.

    ``log`` holds one row per executed step; the totals are the sums of
    the executed snippets' energy and time.
    """

    policy_name: str
    log: RunLog
    total_energy_j: float
    total_time_s: float
    oracle_energy_j: Optional[float] = None

    @property
    def normalized_energy(self) -> float:
        """Energy normalised w.r.t. the Oracle (Table II / Fig. 4 metric)."""
        if self.oracle_energy_j is None or self.oracle_energy_j <= 0:
            raise ValueError("Oracle energy not available for normalisation")
        return self.total_energy_j / self.oracle_energy_j

    def accuracy_series(self, window: int = 10) -> np.ndarray:
        """Moving-average accuracy w.r.t. the Oracle decisions (Fig. 3).

        Steps whose snippet was missing from the Oracle table have a NaN
        ``oracle_match``; they are excluded from the moving windows (an
        all-missing prefix yields leading NaNs).
        """
        if len(self.log) == 0:
            raise ValueError("run is empty (no snippets were executed)")
        matches = self.log.column("oracle_match")
        if np.all(np.isnan(matches)):
            raise ValueError("run was executed without an Oracle table")
        return trailing_nanmean(matches, window) * 100.0

    def time_axis_s(self) -> np.ndarray:
        """Cumulative execution time after each snippet (x-axis of Fig. 3)."""
        return np.cumsum(self.log.column("time_s"))

    def final_accuracy(self, window: int = 10) -> float:
        series = self.accuracy_series(window=window)
        return float(series[-1])


def run_policy_on_snippets(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    policy: DRMPolicy,
    snippets: Sequence[Snippet],
    oracle_table: Optional[OracleTable] = None,
    rng: Optional[np.random.Generator] = None,
    reset_policy: bool = True,
    caps: Optional[Sequence[Optional[int]]] = None,
) -> PolicyRunResult:
    """Execute ``snippets`` under ``policy`` and collect the run statistics.

    The loop mirrors the deployment data flow: the policy decides the next
    configuration from the counters of the *previous* snippet, the simulator
    executes the snippet, and the result is fed back to the policy.

    ``caps`` (scenario hook) holds each step's OPP cap (``None`` where
    unthrottled): the space actually reachable at a capped step is a
    thermally throttled restriction of ``space``.  The policy still
    reasons over its own space; if its decision falls outside the active
    space the hardware-clamped configuration
    (:meth:`~repro.soc.configuration.ConfigurationSpace.clamp`) is executed
    instead.  The run log's ``throttled`` column flags every step whose
    active space is restricted (a throttle window is in force), whether or
    not this particular decision needed clamping.

    The loop itself lives in :class:`~repro.core.session.PolicySession`
    (decide -> clamp/throttle -> execute -> observe, with all run state on
    the session object); this function simply drives one session to
    completion, which performs exactly the original loop's statements in
    the original order.
    """
    from repro.core.session import PolicySession

    session = PolicySession(
        simulator,
        space,
        policy,
        snippets,
        oracle_table=oracle_table,
        rng=rng,
        reset_policy=reset_policy,
        caps=caps,
    )
    return session.run()


class OnlineLearningFramework:
    """High-level entry point tying models, policies and the simulator together.

    Typical usage (see ``examples/quickstart.py``)::

        framework = OnlineLearningFramework(seed=0)
        framework.train_offline(workloads=training_workloads())
        online_policy = framework.build_online_il_policy()
        outcome = framework.evaluate_policy(online_policy, get_workload("kmeans"))
    """

    #: The cost the framework's Oracle tables minimise.
    objective = ENERGY

    def __init__(
        self,
        platform: Optional[PlatformSpec] = None,
        allow_core_gating: bool = False,
        noise_scale: float = 0.01,
        seed: SeedLike = 0,
    ) -> None:
        self.platform = platform or odroid_xu3_like()
        # The default space controls the two cluster frequencies (the knobs of
        # the paper's Figs. 3-4 study).  Setting ``allow_core_gating=True``
        # additionally exposes the number of active big cores (a DyPO-like
        # richer space), which widens the offline-IL generalisation gap at the
        # cost of a larger Oracle sweep; the ablation benchmarks exercise it.
        self.space = ConfigurationSpace(
            self.platform, gated_clusters=("big",) if allow_core_gating else (),
        )
        rngs = spawn_rngs(seed, 4)
        self._sim_rng, self._workload_rng, self._policy_rng, self._misc_rng = rngs
        self.simulator = SoCSimulator(self.platform, noise_scale=noise_scale,
                                      seed=self._sim_rng)
        # Oracle construction is deterministic, so entries computed during
        # offline training are reused verbatim by every later evaluation
        # instead of re-sweeping the configuration space per call.  When the
        # runner installed a process-default on-disk store, the cache also
        # shares entries across processes and invocations.
        self.oracle_cache = OracleCache()
        self.trace_generator = SnippetTraceGenerator(seed=self._workload_rng)
        self.offline_policy: Optional[OfflineILPolicy] = None
        self.offline_dataset: Optional[ILDataset] = None
        self.power_model = CpuPowerModel(self.platform)
        self.performance_model = CpuPerformanceModel(self.platform)
        self._training_snippets: List[Snippet] = []

    # ------------------------------------------------------------------ #
    # Offline (design-time) phase
    # ------------------------------------------------------------------ #
    def generate_trace(self, workload: WorkloadSpec) -> List[Snippet]:
        """Generate a snippet trace for one workload."""
        return generate_snippets([workload], self.trace_generator.rng)

    def build_oracle_for(self, snippets: Sequence[Snippet]) -> OracleTable:
        """Exhaustive Oracle for a snippet trace (noise-free, cached sweep)."""
        return build_oracle(self.simulator, self.space, snippets,
                            cache=self.oracle_cache)

    def train_offline(
        self,
        workloads: Sequence[WorkloadSpec],
        hidden_sizes: Sequence[int] = (24, 24),
        epochs: int = 150,
    ) -> OfflineILPolicy:
        """Design-time phase: build the Oracle, the IL dataset and the policy.

        Also bootstraps the online power and performance models from the same
        design-time executions, as the paper's methodology prescribes.
        """
        # One call draws what one call per workload would, in order.
        snippets = generate_snippets(workloads, self.trace_generator.rng)
        self._training_snippets = snippets
        oracle_table = self.build_oracle_for(snippets)
        dataset = collect_il_dataset(
            self.simulator, self.space, snippets, oracle_table=oracle_table,
        )
        self.offline_dataset = dataset
        policy = OfflineILPolicy(
            self.space, hidden_sizes=hidden_sizes,
            epochs=epochs, seed=int(self._policy_rng.integers(0, 2**31 - 1)),
        )
        policy.train(dataset)
        self.offline_policy = policy
        self._bootstrap_models(snippets, oracle_table)
        return policy

    def _bootstrap_models(self, snippets: Sequence[Snippet],
                          oracle_table: OracleTable) -> None:
        """Warm-start the online models from design-time executions.

        Each training snippet executes at its Oracle configuration
        (:func:`~repro.core.oracle.oracle_results`, one lane call) with a
        row of factors drawn from the simulator's generator, and the
        models observe the results in trace order.
        """
        noise = self.simulator.draw_noise(len(snippets))
        for result in oracle_results(self.simulator, oracle_table, snippets,
                                     noise):
            self.power_model.update(result.counters, result.configuration)
            self.performance_model.update(result.counters,
                                          result.configuration)

    # ------------------------------------------------------------------ #
    # Policy constructors
    # ------------------------------------------------------------------ #
    def isolated_copy(self, original):
        """Deep copy of design-time state that shares the space and platform.

        Nothing mutates the space or the platform, so the copy keeps the
        framework's objects, and a fleet of copies reasons over its one
        space object.
        """
        return copy.deepcopy(original, {id(self.space): self.space,
                                        id(self.platform): self.platform})

    def build_online_il_policy(
        self,
        buffer_capacity: int = 100,
        update_epochs: int = 30,
        neighborhood_radius: int = 2,
        isolated: bool = False,
    ) -> OnlineILPolicy:
        """Online-IL policy initialised from the offline policy and models.

        Online adaptation mutates its starting point in place: back-prop
        updates flow into the offline policy's network and counter
        observations into the power/performance models.  With
        ``isolated=True`` the policy instead starts from deep copies of all
        three, leaving the framework's design-time state untouched — this
        is what lets the robustness driver evaluate many scenarios from the
        same trained framework without cross-scenario leakage.
        """
        if self.offline_policy is None:
            raise RuntimeError("call train_offline() before building the online policy")
        offline_policy = self.offline_policy
        power_model = self.power_model
        performance_model = self.performance_model
        if isolated:
            offline_policy, power_model, performance_model = (
                self.isolated_copy(original)
                for original in (offline_policy, power_model,
                                 performance_model))
        runtime_oracle = RuntimeOracle(
            self.space,
            power_model=power_model,
            performance_model=performance_model,
            neighborhood_radius=neighborhood_radius,
        )
        return OnlineILPolicy(
            self.space,
            offline_policy=offline_policy,
            runtime_oracle=runtime_oracle,
            buffer_capacity=buffer_capacity,
            update_epochs=update_epochs,
        )

    def build_rl_policy(self, **kwargs) -> QLearningController:
        """Table-based Q-learning baseline over the same configuration space."""
        seed = kwargs.pop("seed", int(self._policy_rng.integers(0, 2**31 - 1)))
        return QLearningController(self.space, seed=seed, **kwargs)

    def train_rl_offline(self, policy: QLearningController,
                         workloads: Sequence[WorkloadSpec],
                         episodes: int = 3) -> QLearningController:
        """Offline RL pre-training on the design-time workloads.

        Both the RL baseline and the IL policy are "trained offline with
        Mi-Bench applications" before the online phase in the paper's Fig. 3/4
        comparison; this performs the equivalent episodes of experience.
        """
        for _ in range(max(1, int(episodes))):
            for workload in workloads:
                snippets = self.generate_trace(workload)
                run_policy_on_snippets(
                    self.simulator, self.space, policy, snippets,
                    reset_policy=False,
                )
        return policy

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate_policy(
        self,
        policy: DRMPolicy,
        workload: WorkloadSpec,
        with_oracle: bool = True,
        reset_policy: bool = True,
    ) -> PolicyRunResult:
        """Run ``policy`` over one workload and (optionally) its Oracle."""
        snippets = self.generate_trace(workload)
        return self.evaluate_policy_on_snippets(
            policy, snippets, with_oracle=with_oracle, reset_policy=reset_policy
        )

    def evaluate_policy_on_snippets(
        self,
        policy: DRMPolicy,
        snippets: Sequence[Snippet],
        with_oracle: bool = True,
        reset_policy: bool = True,
    ) -> PolicyRunResult:
        oracle_table = self.build_oracle_for(snippets) if with_oracle else None
        return run_policy_on_snippets(
            self.simulator, self.space, policy, snippets,
            oracle_table=oracle_table, rng=self._misc_rng,
            reset_policy=reset_policy,
        )

    def evaluate_policy_on_scenario(
        self,
        policy: DRMPolicy,
        trace: "ScenarioTrace",
        with_oracle: bool = True,
        reset_policy: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> PolicyRunResult:
        """Run ``policy`` over a scenario trace, honouring throttle windows.

        The Oracle is scenario-aware: during throttle windows the entries
        are computed against the restricted configuration space (via the
        framework's :class:`~repro.core.oracle.OracleCache`, whose keys
        include the restriction).  ``rng`` overrides the framework's
        measurement-noise stream — pass a derived generator to make a run
        independent of what was executed before it.
        """
        from repro.scenarios.runtime import (
            build_scenario_oracle,
            run_policy_on_scenario,
        )
        oracle_table = None
        if with_oracle:
            oracle_table = build_scenario_oracle(
                self.simulator, self.space, trace, cache=self.oracle_cache,
            )
        return run_policy_on_scenario(
            self.simulator, self.space, policy, trace,
            oracle_table=oracle_table,
            rng=rng if rng is not None else self._misc_rng,
            reset_policy=reset_policy,
        )
