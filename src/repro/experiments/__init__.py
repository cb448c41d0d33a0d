"""Experiment drivers regenerating every table and figure of the paper.

Each module exposes a ``run_*`` function returning a result object with the
rows/series the paper reports, plus a ``format_*`` helper rendering them as a
text table.  The benchmark harness under ``benchmarks/`` calls these drivers;
``examples/`` show smaller interactive versions.
"""

from repro.experiments.scales import (
    ExperimentScale,
    TINY,
    QUICK,
    BENCH,
    FULL,
    available_scales,
    get_scale,
)
from repro.experiments.common import OnlineAdaptationStudy
from repro.experiments.table1 import run_table1, format_table1
from repro.experiments.table2 import run_table2, format_table2, Table2Result
from repro.experiments.figure2 import run_figure2, format_figure2, Figure2Result
from repro.experiments.figure3 import run_figure3, format_figure3, Figure3Result
from repro.experiments.figure4 import run_figure4, format_figure4, Figure4Result
from repro.experiments.figure5 import run_figure5, format_figure5, Figure5Result
from repro.experiments.ablations import (
    run_buffer_size_ablation,
    run_forgetting_factor_ablation,
    run_explicit_nmpc_ablation,
    run_config_space_ablation,
    run_noc_model_comparison,
)
from repro.experiments.robustness import (
    RobustnessResult,
    RobustnessRow,
    format_robustness,
    run_robustness,
)
from repro.experiments.runner import (
    ExperimentRunner,
    ExperimentSpec,
    ExperimentRun,
    available_experiments,
    get_experiment,
    register_experiment,
)

__all__ = [
    "ExperimentScale",
    "TINY",
    "QUICK",
    "BENCH",
    "FULL",
    "available_scales",
    "get_scale",
    "ExperimentRunner",
    "ExperimentSpec",
    "ExperimentRun",
    "available_experiments",
    "get_experiment",
    "register_experiment",
    "OnlineAdaptationStudy",
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "Table2Result",
    "run_figure2",
    "format_figure2",
    "Figure2Result",
    "run_figure3",
    "format_figure3",
    "Figure3Result",
    "run_figure4",
    "format_figure4",
    "Figure4Result",
    "run_figure5",
    "format_figure5",
    "Figure5Result",
    "run_buffer_size_ablation",
    "run_forgetting_factor_ablation",
    "run_explicit_nmpc_ablation",
    "run_config_space_ablation",
    "run_noc_model_comparison",
    "RobustnessResult",
    "RobustnessRow",
    "format_robustness",
    "run_robustness",
]
