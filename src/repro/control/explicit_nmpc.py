"""Explicit nonlinear MPC for GPU power management (Sec. IV-B).

Solving the constrained NMPC problem online is too expensive for firmware, so
the explicit variant approximates the *surface* of the NMPC control law with
simple regression models: offline, the NMPC problem is solved for a set of
low-discrepancy samples of the predicted-workload state space; regression
models are then fitted mapping the state to the optimal frequency index and
slice count.  At runtime the controller only evaluates the two regressors
(a handful of multiply-accumulates), achieving near-optimal control at a tiny
fraction of the cost — the property Figure 5 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.control.nmpc import NMPCGpuController, WorkloadPredictor
from repro.gpu.gpu import GPUConfiguration, GPUSpec
from repro.ml.base import Regressor
from repro.ml.tree import DecisionTreeRegressor


def halton_sequence(n_points: int, n_dims: int) -> np.ndarray:
    """Low-discrepancy Halton samples in the unit hypercube.

    Explicit-NMPC approaches sample the state space with low-discrepancy
    sequences [20] so the regression surface is covered uniformly with few
    samples.
    """
    if n_points < 1 or n_dims < 1:
        raise ValueError("n_points and n_dims must be >= 1")
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    if n_dims > len(primes):
        raise ValueError(f"at most {len(primes)} dimensions supported")

    def radical_inverse(index: int, base: int) -> float:
        result = 0.0
        fraction = 1.0 / base
        while index > 0:
            result += (index % base) * fraction
            index //= base
            fraction /= base
        return result

    samples = np.empty((n_points, n_dims))
    for i in range(n_points):
        for d in range(n_dims):
            samples[i, d] = radical_inverse(i + 1, primes[d])
    return samples


@dataclass
class NMPCSurfaceDataset:
    """Samples of the NMPC control surface used to train the explicit models."""

    states: np.ndarray
    opp_indices: np.ndarray
    slice_counts: np.ndarray


class ExplicitNMPCGpuController:
    """Regression approximation of the NMPC GPU control law."""

    def __init__(
        self,
        gpu: GPUSpec,
        target_fps: float,
        deadline_margin: float = 0.05,
        n_surface_samples: int = 400,
        opp_model: Optional[Regressor] = None,
        slice_model: Optional[Regressor] = None,
    ) -> None:
        if n_surface_samples < 10:
            raise ValueError("n_surface_samples must be >= 10")
        self.gpu = gpu
        self.target_fps = float(target_fps)
        self.deadline_margin = float(deadline_margin)
        self.n_surface_samples = int(n_surface_samples)
        self.opp_model = opp_model or DecisionTreeRegressor(max_depth=10,
                                                            min_samples_leaf=1,
                                                            min_samples_split=2)
        self.slice_model = slice_model or DecisionTreeRegressor(max_depth=10,
                                                                min_samples_leaf=1,
                                                                min_samples_split=2)
        self._trained = False
        self._nmpc = NMPCGpuController(
            gpu, target_fps, predictor=WorkloadPredictor(),
            deadline_margin=deadline_margin,
        )

    # ------------------------------------------------------------------ #
    # Offline surface construction
    # ------------------------------------------------------------------ #
    def _state_bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bounds of the (work, memory) state space covered by the samples."""
        deadline = 1.0 / self.target_fps
        max_work = self.gpu.max_throughput_cycles_per_s() * deadline * 1.2
        max_memory = self.gpu.memory_bandwidth_gbps * 1e9 * deadline * 0.6
        low = np.array([max_work * 0.01, 0.0])
        high = np.array([max_work, max_memory])
        return low, high

    def build_surface(self) -> NMPCSurfaceDataset:
        """Sample the NMPC law over the workload state space.

        The samples are solved in one
        :meth:`~repro.control.nmpc.NMPCGpuController.solve_batch` sweep.
        """
        low, high = self._state_bounds()
        unit = halton_sequence(self.n_surface_samples, 2)
        states = low + unit * (high - low)
        opp_indices, slice_counts = self._nmpc.solve_batch(states[:, 0],
                                                           states[:, 1])
        return NMPCSurfaceDataset(
            states=states, opp_indices=opp_indices.astype(float),
            slice_counts=slice_counts.astype(float),
        )

    def fit(self) -> "ExplicitNMPCGpuController":
        """Fit the explicit regression models to the NMPC surface."""
        data = self.build_surface()
        self.opp_model.fit(data.states, data.opp_indices)
        self.slice_model.fit(data.states, data.slice_counts)
        self._trained = True
        return self

    # ------------------------------------------------------------------ #
    # Runtime control law
    # ------------------------------------------------------------------ #
    def control_law(self, work_cycles: float, memory_bytes: float) -> GPUConfiguration:
        """Evaluate the explicit (regression) control law at one state."""
        if not self._trained:
            self.fit()
        state = np.array([[work_cycles, memory_bytes]], dtype=float)
        opp_index = int(round(float(self.opp_model.predict(state)[0])))
        slices = int(round(float(self.slice_model.predict(state)[0])))
        opp_index = self.gpu.opps.clamp_index(opp_index)
        slices = max(1, min(self.gpu.n_slices, slices))
        config = GPUConfiguration(opp_index=opp_index, active_slices=slices)
        # Feasibility guard: if the regression under-provisions, step up the
        # frequency until the predicted busy time fits in the deadline.
        deadline = (1.0 / self.target_fps) * (1.0 - self.deadline_margin)
        while (self.gpu.busy_time_s(config, work_cycles, memory_bytes) > deadline
               and config.opp_index < len(self.gpu.opps) - 1):
            config = GPUConfiguration(opp_index=config.opp_index + 1,
                                      active_slices=config.active_slices)
        if (self.gpu.busy_time_s(config, work_cycles, memory_bytes) > deadline
                and config.active_slices < self.gpu.n_slices):
            config = GPUConfiguration(opp_index=config.opp_index,
                                      active_slices=self.gpu.n_slices)
        return config

    def surface_disagreement(self, n_probe: int = 200) -> float:
        """Fraction of probe states where the explicit law differs from NMPC.

        A small disagreement confirms the "near optimal control" claim of the
        explicit approximation; used by the ablation benchmarks.
        """
        if not self._trained:
            self.fit()
        low, high = self._state_bounds()
        unit = halton_sequence(n_probe, 2) * 0.97 + 0.015
        states = low + unit * (high - low)
        exact_opps, exact_slices = self._nmpc.solve_batch(states[:, 0],
                                                          states[:, 1])
        mismatches = 0
        for (work, memory), opp_index, slices in zip(states, exact_opps,
                                                      exact_slices):
            approx = self.control_law(float(work), float(memory))
            if (opp_index, slices) != (approx.opp_index, approx.active_slices):
                mismatches += 1
        return mismatches / len(states)
