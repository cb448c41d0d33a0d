"""Nonlinear model predictive control for the GPU subsystem (Sec. IV-B).

The controller chooses, before each frame, the GPU operating point and the
number of active slices that minimise the predicted energy of the upcoming
frame subject to meeting the FPS deadline.  The prediction uses (a) a
workload predictor for the next frame's shader work and memory traffic, and
(b) the GPU's frame-time / power laws (either the true :class:`GPUSpec`
model or learned equivalents).  The constrained minimisation is solved
exactly by enumerating the discrete configuration set — this is the
"expensive" NMPC whose control surface the explicit controller approximates.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from repro.gpu.frames import Frame, FrameResult
from repro.gpu.gpu import GPUConfiguration, GPUSpec


class WorkloadPredictor:
    """Predicts the next frame's work and memory traffic from recent frames.

    The predictor keeps an exponentially weighted moving average plus a
    variability estimate; the prediction adds ``margin_sigma`` standard
    deviations of headroom so that occasional heavy frames still meet the
    deadline.  This mirrors how the sensitivity/performance models of
    Sec. III feed the predictive controller.
    """

    def __init__(self, smoothing: float = 0.3, margin_sigma: float = 2.0,
                 window: int = 16) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if margin_sigma < 0:
            raise ValueError("margin_sigma must be non-negative")
        self.smoothing = float(smoothing)
        self.margin_sigma = float(margin_sigma)
        self._work_average: Optional[float] = None
        self._memory_average: Optional[float] = None
        self._recent_work: Deque[float] = deque(maxlen=window)

    def reset(self) -> None:
        self._work_average = None
        self._memory_average = None
        self._recent_work.clear()

    def observe(self, work_cycles: float, memory_bytes: float) -> None:
        if self._work_average is None:
            self._work_average = float(work_cycles)
            self._memory_average = float(memory_bytes)
        else:
            s = self.smoothing
            self._work_average = (1 - s) * self._work_average + s * float(work_cycles)
            self._memory_average = (1 - s) * self._memory_average + s * float(memory_bytes)
        self._recent_work.append(float(work_cycles))

    @property
    def has_observations(self) -> bool:
        return self._work_average is not None

    def predict(self) -> Tuple[float, float]:
        """Return (predicted work cycles, predicted memory bytes) with margin."""
        if self._work_average is None or self._memory_average is None:
            raise RuntimeError("predictor has no observations yet")
        work = self._work_average
        if len(self._recent_work) >= 2:
            std = float(np.std(np.array(self._recent_work)))
            work += self.margin_sigma * std
        return work, self._memory_average


class NMPCGpuController:
    """Receding-horizon, exhaustive-search NMPC over the GPU knobs."""

    def __init__(
        self,
        gpu: GPUSpec,
        target_fps: float,
        predictor: Optional[WorkloadPredictor] = None,
        deadline_margin: float = 0.05,
        horizon: int = 1,
        slice_switch_energy_j: float = 0.002,
    ) -> None:
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        if not 0.0 <= deadline_margin < 1.0:
            raise ValueError("deadline_margin must be in [0, 1)")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.gpu = gpu
        self.target_fps = float(target_fps)
        self.predictor = predictor or WorkloadPredictor()
        self.deadline_margin = float(deadline_margin)
        self.horizon = int(horizon)
        self.slice_switch_energy_j = float(slice_switch_energy_j)
        self.current = GPUConfiguration(opp_index=len(gpu.opps) - 1,
                                        active_slices=gpu.n_slices)
        # Per-configuration constants of the sweep, in configurations()
        # order, from the GPUSpec methods the frame-time and power laws use.
        configs = gpu.configurations()
        self._opps = np.array([config.opp_index for config in configs])
        self._slices = np.array([config.active_slices for config in configs])
        self._throughput = np.array([
            gpu.operating_point(config).frequency_hz
            * gpu.slice_throughput_factor(config.active_slices)
            for config in configs
        ])
        self._active_power = np.array([gpu.active_power_w(config)
                                       for config in configs])
        self._idle_power = np.array([gpu.idle_power_w_at(config)
                                     for config in configs])
        # Position of each configuration in (opp_index, active_slices)
        # order: the energy tie-break.
        self._tie_rank = np.argsort(np.lexsort((self._slices, self._opps)))

    def reset(self) -> None:
        self.predictor.reset()
        self.current = GPUConfiguration(opp_index=len(self.gpu.opps) - 1,
                                        active_slices=self.gpu.n_slices)

    # ------------------------------------------------------------------ #
    def solve_batch(self, work_cycles: Sequence[float],
                    memory_bytes: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
        """Solve the NMPC problem at many (work, memory) states at once.

        Takes equal-length 1-D arrays and returns the chosen
        ``(opp_indices, active_slices)``.  Each configuration's race-to-idle
        energy is the scalar laws' float64 arithmetic in their order, plus
        the slice-switch penalty only where the slice count changes from
        ``current``.  The ``(energy, opp_index, active_slices)`` minimum
        among configurations meeting the deadline wins; under overload, the
        first fastest in :meth:`~repro.gpu.gpu.GPUSpec.configurations` order.
        """
        work = np.asarray(work_cycles, dtype=float)
        memory = np.asarray(memory_bytes, dtype=float)
        if np.any(work < 0) or np.any(memory < 0):
            raise ValueError("work_cycles and memory_bytes must be non-negative")
        busy = (work[:, None] / self._throughput
                + (memory / (self.gpu.memory_bandwidth_gbps * 1e9))[:, None])
        idle = np.maximum(busy, 1.0 / self.target_fps) - busy
        energy = self._active_power * busy + self._idle_power * idle
        switched = self._slices != self.current.active_slices
        energy[:, switched] += self.slice_switch_energy_j * np.abs(
            self._slices[switched] - self.current.active_slices
        )
        deadline = (1.0 / self.target_fps) * (1.0 - self.deadline_margin)
        feasible = busy <= deadline
        masked = np.where(feasible, energy, np.inf)
        ties = masked == masked.min(axis=1, keepdims=True)
        cheapest = np.where(ties, self._tie_rank, len(self._tie_rank)).argmin(axis=1)
        picks = np.where(feasible.any(axis=1), cheapest, busy.argmin(axis=1))
        return self._opps[picks], self._slices[picks]

    def solve(self, work_cycles: float, memory_bytes: float) -> GPUConfiguration:
        """Minimise predicted energy subject to the deadline at one state.

        A one-state :meth:`solve_batch`.
        """
        opps, slices = self.solve_batch([work_cycles], [memory_bytes])
        return GPUConfiguration(opp_index=int(opps[0]),
                                active_slices=int(slices[0]))

    # ------------------------------------------------------------------ #
    # GPUController protocol
    # ------------------------------------------------------------------ #
    def decide(self, upcoming_frame: Optional[Frame] = None) -> GPUConfiguration:
        """Choose the configuration for the next frame.

        The true upcoming frame (if provided by the simulator) is *not*
        inspected — the controller acts on its workload predictor, exactly
        like the hardware implementation would.
        """
        if not self.predictor.has_observations:
            return self.current
        work, memory = self.predictor.predict()
        self.current = self.solve(work, memory)
        return self.current

    def observe(self, result: FrameResult) -> None:
        self.predictor.observe(result.frame.work_cycles, result.frame.memory_bytes)
