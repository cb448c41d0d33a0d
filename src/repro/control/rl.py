"""Table-based Q-learning DRM controller (the paper's RL baseline).

Section IV-A2 discusses reinforcement learning for DRM and its drawbacks:
the reward-driven trial-and-error process needs a lot of exploration, so the
policy converges slowly when the workload changes — which is exactly what
Figures 3 and 4 show.  This module implements the table-based variant: the
counter feature vector is discretised into a small number of bins per
feature, actions are the SoC configurations, and the Q-table is updated with
the standard temporal-difference rule using a negative energy-per-instruction
reward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.control.policy import DRMPolicy
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SnippetResult
from repro.utils.rng import SeedLike, make_rng


class CounterStateDiscretizer:
    """Discretises counter feature vectors into small integer state tuples.

    Only a subset of the Table-I features is used (CPI, L2 MPKI and the big
    cluster utilisation) so that the Q-table stays a realistic size — the
    paper notes the storage problem of table-based RL, and this
    reproduction keeps the table small rather than unmanageably exact.
    """

    #: Bins per feature.
    N_BINS = 4
    #: Indices into PerformanceCounters.feature_vector(): CPI, L2 MPKI, big util.
    FEATURE_INDICES = (0, 2, 6)
    #: Generous value ranges of those features, in the same order.
    FEATURE_RANGES = ((0.3, 6.0), (0.0, 25.0), (0.0, 1.0))

    @property
    def n_states(self) -> int:
        return self.N_BINS ** len(self.FEATURE_INDICES)

    def discretize(self, counters: PerformanceCounters) -> int:
        """Return the integer state index for a counter observation."""
        features = counters.feature_vector()
        state = 0
        for position, (index, (lo, hi)) in enumerate(
            zip(self.FEATURE_INDICES, self.FEATURE_RANGES)
        ):
            value = float(features[index])
            fraction = (value - lo) / (hi - lo)
            bin_index = int(np.clip(np.floor(fraction * self.N_BINS), 0,
                                    self.N_BINS - 1))
            state += bin_index * (self.N_BINS**position)
        return state


class QLearningController(DRMPolicy):
    """Epsilon-greedy table-based Q-learning over SoC configurations."""

    def __init__(
        self,
        space: ConfigurationSpace,
        learning_rate: float = 0.1,
        discount: float = 0.6,
        epsilon: float = 0.15,
        epsilon_decay: float = 0.999,
        min_epsilon: float = 0.02,
        reward_scale: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(space)
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= discount < 1.0:
            raise ValueError("discount must be in [0, 1)")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.discretizer = CounterStateDiscretizer()
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon = float(epsilon)
        self.initial_epsilon = float(epsilon)
        self.epsilon_decay = float(epsilon_decay)
        self.min_epsilon = float(min_epsilon)
        self.reward_scale = float(reward_scale)
        self.rng = make_rng(seed)
        self.n_actions = len(space)
        self.q_table = np.zeros((self.discretizer.n_states, self.n_actions))
        self._last_state: Optional[int] = None
        self._last_action: Optional[int] = None
        self.n_updates = 0

    # ------------------------------------------------------------------ #
    def reset(self, configuration: Optional[SoCConfiguration] = None,
              reset_table: bool = False, reset_epsilon: bool = False) -> None:
        super().reset(configuration)
        self._last_state = None
        self._last_action = None
        if reset_table:
            self.q_table.fill(0.0)
            self.n_updates = 0
        if reset_epsilon:
            self.epsilon = self.initial_epsilon

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if counters is None:
            self._last_state = None
            self._last_action = self.space.index_of(self.current)
            return self.current
        state = self.discretizer.discretize(counters)
        if self.rng.random() < self.epsilon:
            action = int(self.rng.integers(0, self.n_actions))
        else:
            action = int(np.argmax(self.q_table[state]))
        self._last_state = state
        self._last_action = action
        self.current = self.space[action]
        return self.current

    @staticmethod
    def reward_from_result(result: SnippetResult) -> float:
        """Negative energy per instruction (nJ): the agent minimises energy."""
        return -result.energy_per_instruction_nj

    def observe(self, result: SnippetResult) -> None:
        super().observe(result)
        if self._last_action is None:
            return
        next_state = self.discretizer.discretize(result.counters)
        reward = self.reward_from_result(result) * self.reward_scale
        if self._last_state is None:
            # First decision of a run: no source state recorded, skip TD update.
            self._last_state = next_state
            return
        best_next = float(np.max(self.q_table[next_state]))
        td_target = reward + self.discount * best_next
        td_error = td_target - self.q_table[self._last_state, self._last_action]
        self.q_table[self._last_state, self._last_action] += self.learning_rate * td_error
        self.epsilon = max(self.min_epsilon, self.epsilon * self.epsilon_decay)
        self.n_updates += 1
