"""Frame-loop GPU simulator.

Runs a :class:`~repro.gpu.frames.FrameTrace` under a controller (baseline
governor, NMPC, explicit NMPC, ...) and accounts GPU / CPU-package / DRAM
energy per frame, frame-time statistics and FPS, which is exactly the data
needed for the paper's Figure 5 (GPU / PKG / PKG+DRAM energy savings and the
performance overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol

import numpy as np

from repro.gpu.frames import Frame, FrameResult, FrameTrace
from repro.gpu.gpu import GPUConfiguration, GPUSpec
from repro.utils.rng import SeedLike, make_rng


class GPUController(Protocol):
    """Protocol every GPU power-management controller must satisfy."""

    def reset(self) -> None:
        """Clear controller state before a new run."""

    def decide(self, upcoming_frame: Optional[Frame] = None) -> GPUConfiguration:
        """Return the configuration to use for the next frame."""

    def observe(self, result: FrameResult) -> None:
        """Consume the result of the frame that was just rendered."""


@dataclass
class GPURunSummary:
    """Aggregate statistics of one benchmark run."""

    benchmark: str
    frame_results: List[FrameResult] = field(default_factory=list)

    @property
    def n_frames(self) -> int:
        return len(self.frame_results)

    @property
    def gpu_energy_j(self) -> float:
        return float(sum(r.gpu_energy_j for r in self.frame_results))

    @property
    def package_energy_j(self) -> float:
        return float(sum(r.package_energy_j for r in self.frame_results))

    @property
    def package_dram_energy_j(self) -> float:
        return float(sum(r.package_dram_energy_j for r in self.frame_results))

    @property
    def total_time_s(self) -> float:
        return float(sum(r.frame_time_s for r in self.frame_results))

    @property
    def achieved_fps(self) -> float:
        if self.total_time_s <= 0:
            return 0.0
        return self.n_frames / self.total_time_s

    @property
    def deadline_miss_rate(self) -> float:
        if not self.frame_results:
            return 0.0
        misses = sum(1 for r in self.frame_results if not r.met_deadline)
        return misses / self.n_frames


class GPUSimulator:
    """Renders frame traces under a pluggable power-management controller."""

    def __init__(self, gpu: GPUSpec, noise_scale: float = 0.01,
                 seed: SeedLike = None) -> None:
        if noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")
        self.gpu = gpu
        self.noise_scale = float(noise_scale)
        self.rng = make_rng(seed)

    def render_frame(self, frame: Frame, config: GPUConfiguration,
                     deadline_s: float) -> FrameResult:
        """Render one frame at ``config`` and account its energy.

        A frame occupies at least the vsync period: if the GPU finishes early
        it idles (clock gated) for the remainder; if it overruns, the frame
        time extends beyond the deadline (a deadline miss / dropped frame).
        """
        busy = self.gpu.busy_time_s(config, frame.work_cycles, frame.memory_bytes)
        if self.noise_scale > 0.0:
            busy *= float(np.exp(self.rng.normal(0.0, self.noise_scale)))
        frame_time = max(busy, deadline_s)
        idle = frame_time - busy
        active_power = self.gpu.active_power_w(config, utilization=1.0)
        idle_power = self.gpu.idle_power_w_at(config)
        gpu_energy = active_power * busy + idle_power * idle
        dram_energy = (
            frame.memory_bytes / 1e9 * self.gpu.dram_power_w_per_gbps
        )
        cpu_energy = self.gpu.cpu_package_power_w * frame_time
        return FrameResult(
            frame=frame,
            opp_index=config.opp_index,
            active_slices=config.active_slices,
            busy_time_s=busy,
            frame_time_s=frame_time,
            gpu_energy_j=gpu_energy,
            dram_energy_j=dram_energy,
            cpu_energy_j=cpu_energy,
            deadline_s=deadline_s,
        )

    def run(self, trace: FrameTrace, controller: GPUController) -> GPURunSummary:
        """Run the whole trace under ``controller`` and return the summary."""
        controller.reset()
        summary = GPURunSummary(benchmark=trace.name)
        deadline = trace.deadline_s
        for frame in trace.frames:
            config = controller.decide(upcoming_frame=frame)
            result = self.render_frame(frame, config, deadline)
            controller.observe(result)
            summary.frame_results.append(result)
        return summary
