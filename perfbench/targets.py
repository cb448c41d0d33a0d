"""Which ``repro`` functions a traced run wraps, and under which span name.

Each entry wraps a name where its callers look it up: a function imported
with ``from x import f`` is patched in the importing module, a method on
its class.  Span names follow the ``src/repro`` module that defines the
function, so ``fleet.kernels.lockstep_execute`` is the kernel even though
it is patched inside ``repro.fleet.engine``.
"""

from __future__ import annotations

import importlib
from typing import List, Tuple, Union

from tracing import SpanName, Tracer

#: (module, class or None, attribute, span name)
TARGETS: List[Tuple[str, Union[str, None], str, SpanName]] = [
    ("repro.ml.mlp", "FleetMLPStack", "partial_fit_rows", "ml.mlp.partial_fit_rows"),
    ("repro.ml.mlp", "FleetMLPStack", "predict_encoded", "ml.mlp.predict_encoded"),
    ("repro.ml.mlp", "MLPClassifier", "fit", "ml.mlp.fit"),
    ("repro.ml.mlp", "MLPRegressor", "fit", "ml.mlp.fit"),
    ("repro.ml.mlp", "MLPClassifier", "partial_fit", "ml.mlp.partial_fit"),
    ("repro.ml.mlp", "MLPRegressor", "partial_fit", "ml.mlp.partial_fit"),
    ("repro.core.runtime_oracle", "RuntimeOracle", "fleet_best_indices",
     "core.runtime_oracle.fleet_best_indices"),
    ("repro.core.online_il", "OnlineILPolicy", "fleet_decide", "core.online_il.fleet_decide"),
    ("repro.core.online_il", "OnlineILPolicy", "fleet_observe", "core.online_il.fleet_observe"),
    ("repro.core.online_il", None, "fleet_update_power_models", "models.fleet_update"),
    ("repro.core.online_il", None, "fleet_update_performance_models", "models.fleet_update"),
    ("repro.fleet.engine", None, "lockstep_execute", "fleet.kernels.lockstep_execute"),
    ("repro.fleet.engine", "FleetEngine", "step", "fleet.engine.step"),
    ("repro.fleet.supervisor", "FleetSupervisor", "step_round", "fleet.supervisor.step_round"),
    ("repro.core.session", "PolicySession", "observe", "core.session.observe"),
    ("repro.core.session", "PolicySession", "save_snapshot", "core.session.save_snapshot"),
    ("repro.core.session", "PolicySession", "load_snapshot", "core.session.load_snapshot"),
    ("repro.core.session", "PolicySession", "state_digest", "core.session.state_digest"),
    ("repro.service.journal", "Journal", "append", "service.journal.append"),
    ("repro.service.run", None, "file_sha256", "service.journal.file_sha256"),
    ("repro.service.run", None, "read_journal", "service.journal.read_journal"),
    ("repro.service.run", "ServiceRun", "step_round", "service.run.step_round"),
    ("repro.service.run", "ServiceRun", "recover", "service.run.recover"),
    ("repro.fleet.sharding", "ShardedFleetEngine", "prepare", "fleet.sharding.prepare"),
    ("repro.fleet.sharding", "ShardedFleetEngine", "execute", "fleet.sharding.execute"),
    *[(module, None, "build_online_sequence", "workloads.build_online_sequence")
      for module in ("repro.workloads.sequences", "repro.service.run",
                     "repro.experiments.common", "repro.experiments.ablations",
                     "repro.experiments.robustness",
                     "repro.experiments.fault_tolerance",
                     "repro.experiments.fleet")],
    *[(module, None, "build_oracle", "core.oracle.build_oracle")
      for module in ("repro.core.framework", "repro.scenarios.runtime",
                     "repro.core.offline_il")],
    ("repro.soc.simulator", "SoCSimulator", "evaluate_expected_batch",
     "soc.simulator.evaluate_expected_batch"),
    ("repro.core.framework", "OnlineLearningFramework", "train_offline",
     "core.framework.train_offline"),
    ("repro.control.explicit_nmpc", "ExplicitNMPCGpuController", "fit",
     "control.explicit_nmpc.fit"),
    ("repro.control.nmpc", "NMPCGpuController", "solve", "control.nmpc.solve"),
    ("repro.experiments.runner", "ExperimentRunner", "run",
     lambda args, kwargs: f"experiments.{args[1]}"),  # run(self, name)
]


def install(tracer: Tracer) -> None:
    """Patch every target; undo with ``tracer.restore()``."""
    for module_name, class_name, attribute, span_name in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.patch(owner, attribute, span_name)
