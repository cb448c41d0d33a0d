"""Ablation studies for design choices called out in the paper's text.

* Buffer size — "the size of this buffer determines the training accuracy and
  implementation overhead ... 100 epochs provides close to 100 % accuracy"
  and "the corresponding storage overhead ... is less than 20 KB".
* RLS forgetting factor — how the frame-time model's tracking error depends
  on the forgetting factor (and the STAFF adaptive variant).
* Explicit-NMPC approximation — how closely the regression surface matches
  the exact NMPC law and how the approximator choice affects it.
* Configuration-space richness — how the offline-IL generalisation gap grows
  when the core-gating knob is added to the control space.
* NoC model comparison — analytical vs SVR-learned latency models against the
  cycle-level simulator (Sec. III-C).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.control.explicit_nmpc import ExplicitNMPCGpuController
from repro.core.framework import OnlineLearningFramework
from repro.experiments.common import (
    ExperimentScale,
    QUICK,
    build_trained_framework,
)
from repro.experiments.table2 import run_table2
from repro.fleet.device import DeviceSpec, build_fleet
from repro.gpu.gpu import default_integrated_gpu
from repro.ml.linear import LinearRegressor
from repro.ml.knn import KNeighborsRegressor
from repro.ml.metrics import mean_absolute_percentage_error
from repro.ml.tree import DecisionTreeRegressor
from repro.noc.svr_model import SVRNoCLatencyModel, build_noc_training_set
from repro.noc.topology import MeshTopology
from repro.utils.rng import SeedLike
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import unseen_workloads


@dataclass
class BufferAblationRow:
    buffer_capacity: int
    normalized_energy: float
    final_accuracy_percent: float
    policy_updates: int
    storage_bytes: int


def run_buffer_size_ablation(
    buffer_sizes: Sequence[int] = (10, 25, 50, 100),
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
) -> List[BufferAblationRow]:
    """Online-IL adaptation quality versus aggregation-buffer size.

    One framework is trained, and each capacity is one device of a single
    :class:`~repro.fleet.engine.FleetEngine` run over the same unseen
    sequence, with its own isolated online-IL policy.  Each device draws
    its measurement noise from a copy of the framework's evaluation
    generator, which training never draws from, so every row is bitwise
    the evaluation of a freshly trained framework at that capacity.
    """
    framework = build_trained_framework(scale, seed=seed)
    sequence = build_online_sequence(
        specs=unseen_workloads(),
        snippet_factor=scale.sequence_snippet_factor,
        seed=seed,
    )
    oracle_table = framework.build_oracle_for(sequence.snippets)
    devices = [
        DeviceSpec(
            name=f"buffer-{int(capacity)}",
            policy=framework.build_online_il_policy(
                buffer_capacity=int(capacity),
                update_epochs=scale.update_epochs,
                isolated=True,
            ),
            snippets=sequence.snippets,
            rng=copy.deepcopy(framework._misc_rng),
            oracle_table=oracle_table,
        )
        for capacity in buffer_sizes
    ]
    runs = build_fleet(devices, framework.simulator, framework.space).run()
    return [
        BufferAblationRow(
            buffer_capacity=int(capacity),
            normalized_energy=run.normalized_energy,
            final_accuracy_percent=run.final_accuracy(),
            policy_updates=device.policy.n_policy_updates,
            storage_bytes=device.policy.buffer.storage_bytes(),
        )
        for capacity, device, run in zip(buffer_sizes, devices, runs)
    ]


@dataclass
class ForgettingAblationRow:
    forgetting_factor: Optional[float]
    adaptive: bool
    error_percent: float


def run_forgetting_factor_ablation(
    factors: Sequence[float] = (0.85, 0.92, 0.95, 0.99, 1.0),
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
) -> List[ForgettingAblationRow]:
    """Frame-time model error versus the RLS forgetting factor."""
    rows: List[ForgettingAblationRow] = []
    for factor in factors:
        result = _figure2_with_factor(scale, seed, forgetting_factor=float(factor))
        rows.append(
            ForgettingAblationRow(
                forgetting_factor=float(factor),
                adaptive=False,
                error_percent=result,
            )
        )
    adaptive_error = _figure2_with_factor(scale, seed, adaptive=True)
    rows.append(
        ForgettingAblationRow(
            forgetting_factor=None, adaptive=True, error_percent=adaptive_error
        )
    )
    return rows


def _figure2_with_factor(scale: ExperimentScale, seed: SeedLike,
                         forgetting_factor: float = 0.95,
                         adaptive: bool = False) -> float:
    """Helper: Figure-2 style run returning only the post-warm-up MAPE."""
    from repro.gpu.gpu import GPUConfiguration
    from repro.gpu.simulator import GPUSimulator
    from repro.models.performance import FrameTimeModel
    from repro.workloads.graphics import get_graphics_workload

    gpu = default_integrated_gpu()
    trace = get_graphics_workload("nenamark2", gpu=gpu,
                                  n_frames=scale.gpu_frames, seed=seed)
    simulator = GPUSimulator(gpu, noise_scale=0.01, seed=seed)
    model = FrameTimeModel(forgetting_factor=forgetting_factor, adaptive=adaptive,
                           slice_scaling_alpha=gpu.slice_scaling_alpha)
    schedule = [len(gpu.opps) - 1, len(gpu.opps) // 2, len(gpu.opps) - 2]
    measured: List[float] = []
    predicted: List[float] = []
    prev_cycles = trace.frames[0].work_cycles
    prev_bytes = trace.frames[0].memory_bytes
    for i, frame in enumerate(trace.frames):
        opp = schedule[(i // 60) % len(schedule)]
        config = GPUConfiguration(opp_index=opp, active_slices=gpu.n_slices)
        frequency = gpu.opps[opp].frequency_hz
        predicted.append(model.predict_frame_time_s(prev_cycles, prev_bytes,
                                                    frequency, gpu.n_slices))
        rendered = simulator.render_frame(frame, config, trace.deadline_s)
        model.update(prev_cycles, prev_bytes, frequency, gpu.n_slices,
                     rendered.busy_time_s)
        measured.append(rendered.busy_time_s)
        prev_cycles, prev_bytes = frame.work_cycles, frame.memory_bytes
    warmup = max(10, scale.gpu_frames // 20)
    return mean_absolute_percentage_error(np.array(measured[warmup:]),
                                          np.array(predicted[warmup:]))


@dataclass
class ExplicitNMPCAblationRow:
    model_name: str
    surface_disagreement: float
    surface_samples: int


def run_explicit_nmpc_ablation(
    scale: ExperimentScale = QUICK,
    seed: SeedLike = 0,
    target_fps: float = 30.0,
) -> List[ExplicitNMPCAblationRow]:
    """Explicit-NMPC surface fidelity for different approximator models."""
    gpu = default_integrated_gpu()
    models = {
        "decision-tree": (DecisionTreeRegressor(max_depth=10, min_samples_leaf=1,
                                                min_samples_split=2),
                          DecisionTreeRegressor(max_depth=10, min_samples_leaf=1,
                                                min_samples_split=2)),
        "linear": (LinearRegressor(), LinearRegressor()),
        "knn": (KNeighborsRegressor(n_neighbors=3),
                KNeighborsRegressor(n_neighbors=3)),
    }
    rows: List[ExplicitNMPCAblationRow] = []
    for name, (opp_model, slice_model) in models.items():
        controller = ExplicitNMPCGpuController(
            gpu, target_fps=target_fps,
            n_surface_samples=scale.nmpc_surface_samples,
            opp_model=opp_model, slice_model=slice_model,
        )
        controller.fit()
        rows.append(
            ExplicitNMPCAblationRow(
                model_name=name,
                surface_disagreement=controller.surface_disagreement(n_probe=100),
                surface_samples=scale.nmpc_surface_samples,
            )
        )
    return rows


@dataclass
class ConfigSpaceAblationRow:
    space_name: str
    n_configurations: int
    mibench_mean: float
    unseen_mean: float
    generalization_gap: float


def run_config_space_ablation(scale: ExperimentScale = QUICK,
                              seed: SeedLike = 0) -> List[ConfigSpaceAblationRow]:
    """Offline-IL generalisation gap with and without the core-gating knob."""
    rows: List[ConfigSpaceAblationRow] = []
    for gating, label in ((False, "frequencies only"),
                          (True, "frequencies + big-core gating")):
        table2 = run_table2(scale=scale, seed=seed, allow_core_gating=gating)
        space = OnlineLearningFramework(seed=seed,
                                        allow_core_gating=gating).space
        rows.append(
            ConfigSpaceAblationRow(
                space_name=label,
                n_configurations=len(space),
                mibench_mean=table2.suite_mean("Mi-Bench"),
                unseen_mean=(table2.suite_mean("Cortex")
                             + table2.suite_mean("PARSEC")) / 2.0,
                generalization_gap=table2.generalization_gap,
            )
        )
    return rows


@dataclass
class NoCComparisonResult:
    analytical_mape_percent: float
    svr_mape_percent: float
    n_train: int
    n_test: int


def run_noc_model_comparison(
    mesh_width: int = 4,
    train_rates: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12),
    test_rates: Sequence[float] = (0.03, 0.05, 0.07, 0.09, 0.11),
    n_cycles: int = 300,
    seed: SeedLike = 0,
) -> NoCComparisonResult:
    """Analytical vs SVR NoC latency model accuracy against the simulator."""
    topology = MeshTopology(mesh_width, mesh_width)
    train = build_noc_training_set(topology, train_rates, n_cycles=n_cycles,
                                   seed=seed)
    test = build_noc_training_set(topology, test_rates, n_cycles=n_cycles,
                                  seed=int(seed) + 1 if isinstance(seed, int) else 1)
    svr = SVRNoCLatencyModel().fit(train)
    svr_mape, _ = svr.evaluate(test)
    simulated = np.array([s.simulated_latency for s in test])
    analytical = np.array([min(s.analytical_latency, 10 * max(simulated))
                           for s in test])
    analytical_mape = mean_absolute_percentage_error(simulated, analytical)
    return NoCComparisonResult(
        analytical_mape_percent=analytical_mape,
        svr_mape_percent=svr_mape,
        n_train=len(train),
        n_test=len(test),
    )
