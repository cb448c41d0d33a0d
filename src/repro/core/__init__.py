"""Core online-adaptive-learning framework (the paper's primary contribution).

The core package implements the model-guided online imitation-learning DRM
methodology of Section IV-A together with the offline Oracle and offline IL
policies it builds on, and the :class:`OnlineLearningFramework` runner that
ties the analytical models, the policies and the SoC simulator together
(paper Figure 1).
"""

from repro.core.oracle import OracleCache, OracleTable, build_oracle
from repro.core.oracle_store import (
    OracleStore,
    get_default_oracle_store,
    set_default_oracle_store,
)
from repro.core.offline_il import OfflineILPolicy, ILDataset, collect_il_dataset
from repro.core.buffer import AggregationBuffer
from repro.core.runtime_oracle import CandidateBatch, RuntimeOracle
from repro.core.online_il import OnlineILPolicy
from repro.core.framework import (
    OnlineLearningFramework,
    PolicyRunResult,
    run_policy_on_snippets,
)

__all__ = [
    "OracleCache",
    "OracleStore",
    "get_default_oracle_store",
    "set_default_oracle_store",
    "OracleTable",
    "build_oracle",
    "OfflineILPolicy",
    "ILDataset",
    "collect_il_dataset",
    "AggregationBuffer",
    "RuntimeOracle",
    "CandidateBatch",
    "OnlineILPolicy",
    "OnlineLearningFramework",
    "PolicyRunResult",
    "run_policy_on_snippets",
]
