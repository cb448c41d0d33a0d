"""Dynamic resource-management controllers (paper Section IV).

This package contains the control-policy side of the framework: the common
policy interface, the table-based Q-learning baseline, the nonlinear model
predictive controller for the GPU subsystem, its low-overhead explicit
approximation, and the multi-rate (slow slice / fast DVFS) coordination
layer.
"""

from repro.control.policy import DRMPolicy, StaticPolicy, RandomPolicy
from repro.control.rl import QLearningController, CounterStateDiscretizer
from repro.control.nmpc import NMPCGpuController, WorkloadPredictor
from repro.control.explicit_nmpc import ExplicitNMPCGpuController, NMPCSurfaceDataset
from repro.control.multirate import MultiRateGPUController
from repro.control.state_space import FastRateFrequencyController

__all__ = [
    "DRMPolicy",
    "StaticPolicy",
    "RandomPolicy",
    "QLearningController",
    "CounterStateDiscretizer",
    "NMPCGpuController",
    "WorkloadPredictor",
    "ExplicitNMPCGpuController",
    "NMPCSurfaceDataset",
    "MultiRateGPUController",
    "FastRateFrequencyController",
]
