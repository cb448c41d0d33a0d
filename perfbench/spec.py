"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``); ``test_perfbench.py`` checks
that the two agree.  Each per-layer metric also names the end-to-end
metrics it should move, as ``(workload, metric)`` pairs; a later change
that targets one layer predicts those and nothing else.

Stdlib only: ``run.py`` imports it before any interpreter is pinned.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds of timed work one run measures (``--seconds``).
RUN_SECONDS = 6

IL = "online-il-fleet"
SVC = "journaled-service"
CLI = "reproduce-cli"

#: (name, why): each a closed loop driven by one client process.
WORKLOADS: List[Tuple[str, str]] = [
    (IL, "64 isolated online-IL devices stepped in-process: the learning "
         "layers (MLP, RLS, runtime Oracle, online IL) do nearly all the work"),
    (SVC, "64 governor devices run journaled with status polls, dispatches "
          "and crash recovery: journal appends and snapshot rotation dominate"),
    (CLI, "cold then warm python -m repro.experiments over every registered "
          "experiment at quick scale, fleets on one worker shard: what a "
          "researcher waits for, import included"),
]

#: name -> (unit, better, bound).  Every workload reports every one of
#: them: ``setup_s`` is the work before its timed pass, ``pass_s`` the
#: pass over its fixed work, both at nominal host speed (``reference.py``).
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "pass_s": ("s", "lower", 0.22),
    "peak_rss_mb": ("MiB", "lower", 0.15),
}

#: Experiments registered in ``repro.experiments.runner`` (one span each).
EXPERIMENTS = (
    "ablation-buffer", "ablation-config-space", "ablation-enmpc",
    "ablation-forgetting", "ablation-noc", "fault-tolerance", "figure2",
    "figure3", "figure4", "figure5", "fleet", "robustness", "table1",
    "table2",
)

_IL_PASS = ((IL, "pass_s"),)
_SVC_PASS = ((SVC, "pass_s"),)
_CLI_PASS = ((CLI, "pass_s"),)
_FLEETS_PASS = ((IL, "pass_s"), (SVC, "pass_s"))
_TRAINING = ((IL, "setup_s"), (CLI, "pass_s"))
_ORACLE = ((IL, "setup_s"), (CLI, "setup_s"))
_JOURNAL = ((SVC, "pass_s"), (SVC, "setup_s"))
_STORE = ((CLI, "pass_s"), (CLI, "setup_s"))

#: name -> (unit, better, the (workload, end-to-end metric) pairs it
#: should move).
PER_LAYER: Dict[str, Tuple[str, str, Tuple[Tuple[str, str], ...]]] = {
    "ml.mlp.partial_fit_rows.s": ("s", "lower", _IL_PASS),
    "ml.mlp.partial_fit_rows.calls": ("count", "lower", _IL_PASS),
    "ml.mlp.predict_encoded.s": ("s", "lower", _IL_PASS),
    "ml.mlp.fit.s": ("s", "lower", _TRAINING),
    "ml.mlp.partial_fit.s": ("s", "lower", _TRAINING),
    "core.runtime_oracle.fleet_best_indices.s": ("s", "lower", _IL_PASS),
    "core.online_il.fleet_decide.self_s": ("s", "lower", _IL_PASS),
    "core.online_il.fleet_observe.self_s": ("s", "lower", _IL_PASS),
    "models.fleet_update.s": ("s", "lower", _IL_PASS),
    "fleet.kernels.lockstep_execute.s": ("s", "lower", _FLEETS_PASS),
    "fleet.engine.step.self_s": ("s", "lower", _FLEETS_PASS),
    "fleet.engine.batched_fraction": ("ratio", "higher", _FLEETS_PASS),
    "fleet.supervisor.step_round.self_s": ("s", "lower", _SVC_PASS),
    "core.session.observe.s": ("s", "lower", _FLEETS_PASS),
    "core.session.observe.calls": ("count", "lower", _FLEETS_PASS),
    "core.session.save_snapshot.s": ("s", "lower", _JOURNAL),
    "core.session.save_snapshot.calls": ("count", "lower", _JOURNAL),
    "core.session.load_snapshot.s": ("s", "lower", _SVC_PASS),
    "core.session.state_digest.s": ("s", "lower", _SVC_PASS),
    "core.session.state_digest.calls": ("count", "lower", _SVC_PASS),
    "service.journal.append.s": ("s", "lower", _JOURNAL),
    "service.journal.append.calls": ("count", "lower", _JOURNAL),
    "service.journal.file_sha256.s": ("s", "lower", _JOURNAL),
    "service.journal.disk_mb": ("MiB", "lower", _SVC_PASS),
    "service.journal.read_journal.s": ("s", "lower", _SVC_PASS),
    "service.run.step_round.self_s": ("s", "lower", _SVC_PASS),
    "service.run.recover.self_s": ("s", "lower", _SVC_PASS),
    "service.run.replayed_rounds": ("count", "lower", _SVC_PASS),
    "fleet.sharding.prepare.s": ("s", "lower", _CLI_PASS),
    "fleet.sharding.shipped_mb": ("MiB", "lower", _CLI_PASS),
    "fleet.sharding.execute.s": ("s", "lower", _CLI_PASS),
    "workloads.build_online_sequence.s": ("s", "lower", _TRAINING),
    "core.oracle.build_oracle.s": ("s", "lower", _ORACLE),
    "core.oracle.build_oracle.calls": ("count", "lower", _ORACLE),
    "soc.simulator.evaluate_expected_batch.s": ("s", "lower", _ORACLE),
    "core.oracle.hit_ratio": ("ratio", "higher", _ORACLE),
    "core.oracle_store.hit_ratio": ("ratio", "higher", _STORE),
    "core.oracle_store.retries": ("count", "lower", _STORE),
    "core.framework.train_offline.s": ("s", "lower", _TRAINING),
    "control.explicit_nmpc.fit.s": ("s", "lower", _CLI_PASS),
    "control.explicit_nmpc.fit.calls": ("count", "lower", _CLI_PASS),
    "control.nmpc.solve.calls": ("count", "lower", _CLI_PASS),
    **{f"experiments.{name}.s": ("s", "lower", _CLI_PASS)
       for name in EXPERIMENTS},
    "import.s": ("s", "lower", _CLI_PASS),
    "trace.overhead": ("ratio", "lower", ()),
}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document: only the keys its format allows."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }

