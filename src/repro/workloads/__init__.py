"""Benchmark workload generators.

The paper's IL experiments use applications from the Mi-Bench, CortexSuite and
PARSEC benchmark suites segmented into fixed-instruction snippets, and the
ENMPC experiments use ten mobile graphics benchmarks.  Since the actual
binaries cannot be executed here, each benchmark is replaced by a synthetic
snippet-trace generator whose micro-architectural characteristics (memory
intensity, ILP, branch behaviour, thread counts) are parameterised per
application and per suite, preserving the cross-suite distribution shift that
drives the paper's generalisation results (Table II).
"""

from repro.workloads.spec import WorkloadSpec, WorkloadPhase
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import (
    MIBENCH_APPS,
    CORTEX_APPS,
    PARSEC_APPS,
    ALL_CPU_APPS,
    get_workload,
    figure4_workloads,
)
from repro.workloads.graphics import GRAPHICS_APPS, get_graphics_workload
from repro.workloads.sequences import ApplicationSequence, build_online_sequence

__all__ = [
    "WorkloadSpec",
    "WorkloadPhase",
    "SnippetTraceGenerator",
    "MIBENCH_APPS",
    "CORTEX_APPS",
    "PARSEC_APPS",
    "ALL_CPU_APPS",
    "get_workload",
    "figure4_workloads",
    "GRAPHICS_APPS",
    "get_graphics_workload",
    "ApplicationSequence",
    "build_online_sequence",
]
