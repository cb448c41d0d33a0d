"""repro — Online Adaptive Learning for Runtime Resource Management of Heterogeneous SoCs.

A from-scratch Python reproduction of Mandal et al., DAC 2020.  The package is
organised as:

* :mod:`repro.core` — the online-adaptive DRM framework (Oracle, offline IL,
  model-guided online IL, evaluation runner).
* :mod:`repro.models` — online analytical models (RLS power/performance,
  frame time, STAFF).
* :mod:`repro.control` — DRM controllers (Q-learning baseline, NMPC,
  explicit NMPC, multi-rate GPU control; classic governors live in
  :mod:`repro.soc.governors`).
* :mod:`repro.soc`, :mod:`repro.gpu`, :mod:`repro.noc` — simulated hardware
  substrates standing in for the paper's boards.
* :mod:`repro.workloads` — synthetic benchmark-suite workload generators.
* :mod:`repro.ml` — numpy-only machine-learning building blocks.
* :mod:`repro.experiments` — drivers regenerating every table and figure.
"""

from repro.core.framework import OnlineLearningFramework, run_policy_on_snippets
from repro.soc.platform import odroid_xu3_like, generic_big_little
from repro.gpu.gpu import default_integrated_gpu

__version__ = "1.0.0"

__all__ = [
    "OnlineLearningFramework",
    "run_policy_on_snippets",
    "odroid_xu3_like",
    "generic_big_little",
    "default_integrated_gpu",
    "__version__",
]
