"""Figure 5 — energy savings of explicit NMPC over the baseline GPU governor.

For each of the ten graphics benchmarks, the paper reports the energy savings
of the explicit-NMPC multi-rate controller relative to the baseline power
manager for three scopes: the GPU alone, the package (PKG = GPU + CPU) and
the package plus memory (PKG+DRAM).  Savings range from 5 % to 58 % for the
GPU (average ~25 %), roughly 15 % for PKG and PKG+DRAM, with a performance
overhead of about 0.4 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.control.explicit_nmpc import ExplicitNMPCGpuController
from repro.control.multirate import DEADLINE_MARGIN, MultiRateGPUController
from repro.experiments.common import ExperimentScale, QUICK
from repro.gpu.baseline_governor import BaselineGPUGovernor
from repro.gpu.gpu import default_integrated_gpu
from repro.gpu.simulator import GPURunSummary, GPUSimulator
from repro.ml.metrics import energy_savings_percent
from repro.utils.rng import SeedLike, derive_seed
from repro.utils.tables import format_table
from repro.workloads.graphics import figure5_benchmark_order, get_graphics_workload

#: Paper-reported GPU energy savings (%, approximate, read off Figure 5).
PAPER_FIGURE5_GPU_SAVINGS: Dict[str, float] = {
    "3dmark-icestorm": 20.0,
    "angrybirds": 5.0,
    "angrybots": 22.0,
    "epiccitadel": 27.0,
    "fruitninja": 30.0,
    "gfxbench-trex": 15.0,
    "junglerun": 25.0,
    "sharkdash": 58.0,
    "thechase": 22.0,
    "vendettamark": 28.0,
}


@dataclass
class BenchmarkSavings:
    """Energy savings of one benchmark (ENMPC vs baseline)."""

    benchmark: str
    gpu_savings_percent: float
    pkg_savings_percent: float
    pkg_dram_savings_percent: float
    fps_overhead_percent: float
    baseline_fps: float
    enmpc_fps: float
    deadline_miss_rate: float


@dataclass
class Figure5Result:
    """Per-benchmark and average savings."""

    per_benchmark: List[BenchmarkSavings] = field(default_factory=list)

    def average(self, field_name: str) -> float:
        values = [getattr(row, field_name) for row in self.per_benchmark]
        return float(np.mean(values)) if values else float("nan")


def run_figure5(
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
    benchmarks: Optional[List[str]] = None,
) -> Figure5Result:
    """Compare the multi-rate explicit-NMPC controller against the baseline.

    An explicit-NMPC surface depends only on the GPU, the target frame
    rate, the deadline margin and the sample count, so one controller is
    fitted per distinct target frame rate and shared by every benchmark's
    multi-rate controller.  Its fitted trees are read-only afterwards, and
    a multi-rate controller uses only its control law, which reads neither
    the shared controller's predictor nor its current configuration.
    """
    gpu = default_integrated_gpu()
    names = benchmarks if benchmarks is not None else figure5_benchmark_order()
    result = Figure5Result()
    explicit_by_fps: Dict[float, ExplicitNMPCGpuController] = {}
    for name in names:
        trace = get_graphics_workload(name, gpu=gpu, n_frames=scale.gpu_frames,
                                      seed=seed)
        simulator = GPUSimulator(gpu, noise_scale=0.01,
                                 seed=derive_seed(seed, [len(name)]))
        explicit = explicit_by_fps.get(trace.target_fps)
        if explicit is None:
            explicit = ExplicitNMPCGpuController(
                gpu, trace.target_fps, deadline_margin=DEADLINE_MARGIN,
            ).fit()
            explicit_by_fps[trace.target_fps] = explicit
        baseline = BaselineGPUGovernor(gpu, target_fps=trace.target_fps)
        improved = MultiRateGPUController(gpu, target_fps=trace.target_fps,
                                          explicit_controller=explicit)
        baseline_run: GPURunSummary = simulator.run(trace, baseline)
        improved_run: GPURunSummary = simulator.run(trace, improved)
        fps_overhead = 100.0 * (
            baseline_run.achieved_fps - improved_run.achieved_fps
        ) / baseline_run.achieved_fps
        result.per_benchmark.append(
            BenchmarkSavings(
                benchmark=name,
                gpu_savings_percent=energy_savings_percent(
                    baseline_run.gpu_energy_j, improved_run.gpu_energy_j
                ),
                pkg_savings_percent=energy_savings_percent(
                    baseline_run.package_energy_j, improved_run.package_energy_j
                ),
                pkg_dram_savings_percent=energy_savings_percent(
                    baseline_run.package_dram_energy_j,
                    improved_run.package_dram_energy_j,
                ),
                fps_overhead_percent=fps_overhead,
                baseline_fps=baseline_run.achieved_fps,
                enmpc_fps=improved_run.achieved_fps,
                deadline_miss_rate=improved_run.deadline_miss_rate,
            )
        )
    return result


def format_figure5(result: Figure5Result) -> str:
    rows = []
    for row in result.per_benchmark:
        rows.append(
            (
                row.benchmark,
                row.gpu_savings_percent,
                row.pkg_savings_percent,
                row.pkg_dram_savings_percent,
                row.fps_overhead_percent,
                PAPER_FIGURE5_GPU_SAVINGS.get(row.benchmark, float("nan")),
            )
        )
    rows.append(
        (
            "Average",
            result.average("gpu_savings_percent"),
            result.average("pkg_savings_percent"),
            result.average("pkg_dram_savings_percent"),
            result.average("fps_overhead_percent"),
            float(np.mean(list(PAPER_FIGURE5_GPU_SAVINGS.values()))),
        )
    )
    return format_table(
        ["benchmark", "GPU savings %", "PKG savings %", "PKG+DRAM savings %",
         "FPS overhead %", "paper GPU savings %"],
        rows, precision=1,
        title="Figure 5 — explicit NMPC energy savings vs baseline governor",
    )
