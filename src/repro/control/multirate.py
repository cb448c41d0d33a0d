"""Multi-rate GPU power-management controller (Sec. IV-B).

"A multi-rate control is generally required to handle the differences in the
time granularity of the control knobs: e.g., changing the number of active
slices takes significantly longer time and requires more energy than changing
the frequency and voltage values."

The controller combines:

* a **slow-rate** path that re-evaluates the slice count (and the coarse
  operating point) once every ``slow_period`` frames using the explicit-NMPC
  control law over the predicted workload, and
* a **fast-rate** path that corrects the operating frequency every frame with
  the state-space integral controller, reacting to per-frame prediction error
  without touching the slice configuration.
"""

from __future__ import annotations

from typing import Optional

from repro.control.explicit_nmpc import ExplicitNMPCGpuController
from repro.control.nmpc import WorkloadPredictor
from repro.control.state_space import FastRateFrequencyController
from repro.gpu.frames import Frame, FrameResult
from repro.gpu.gpu import GPUConfiguration, GPUSpec

#: Default share of the frame deadline kept as slack by both control paths.
DEADLINE_MARGIN = 0.10


class MultiRateGPUController:
    """Coordinated slow-rate (slices) and fast-rate (DVFS) GPU controller."""

    def __init__(
        self,
        gpu: GPUSpec,
        target_fps: float,
        slow_period: int = 16,
        deadline_margin: float = DEADLINE_MARGIN,
        explicit_controller: Optional[ExplicitNMPCGpuController] = None,
    ) -> None:
        if slow_period < 1:
            raise ValueError("slow_period must be >= 1")
        self.gpu = gpu
        self.target_fps = float(target_fps)
        self.slow_period = int(slow_period)
        self.predictor = WorkloadPredictor()
        self.explicit = explicit_controller or ExplicitNMPCGpuController(
            gpu, target_fps, deadline_margin=deadline_margin,
        )
        self.fast = FastRateFrequencyController(
            gpu, target_fps, utilization_setpoint=1.0 - deadline_margin - 0.05,
        )
        self.current = GPUConfiguration(opp_index=len(gpu.opps) - 1,
                                        active_slices=gpu.n_slices)
        self._frame_counter = 0
        self._last_result: Optional[FrameResult] = None

    def reset(self) -> None:
        self.predictor.reset()
        self.fast.reset()
        self.explicit.reset()
        self.current = GPUConfiguration(opp_index=len(self.gpu.opps) - 1,
                                        active_slices=self.gpu.n_slices)
        self._frame_counter = 0
        self._last_result = None

    def decide(self, upcoming_frame: Optional[Frame] = None) -> GPUConfiguration:
        if not self.predictor.has_observations:
            self._frame_counter += 1
            return self.current
        work, memory = self.predictor.predict()
        if self._frame_counter % self.slow_period == 0:
            # Slow-rate decision: slice count and coarse operating point.
            slow_config = self.explicit.control_law(work, memory)
            self.current = slow_config
        # Fast-rate decision: per-frame frequency correction around the
        # slow-rate operating point, keeping the slice count fixed.
        corrected_opp = self.fast.apply(self.current.opp_index, self._last_result)
        self.current = GPUConfiguration(opp_index=corrected_opp,
                                        active_slices=self.current.active_slices)
        self._frame_counter += 1
        return self.current

    def observe(self, result: FrameResult) -> None:
        self.predictor.observe(result.frame.work_cycles, result.frame.memory_bytes)
        self._last_result = result
