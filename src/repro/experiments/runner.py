"""Config-driven experiment runner and scenario registry.

Every figure/table driver in :mod:`repro.experiments` (plus the ablations)
is registered here as an :class:`ExperimentSpec` — a name, a description, a
``(scale, seed, context)`` runner callable and a formatter.  The
:class:`ExperimentRunner` executes any registered experiment at any
registered scale with multi-seed fan-out — sequentially in-process or across
a pool of worker processes (``jobs``/``--jobs``) — replacing the copy-pasted
orchestration that previously lived in each ``figure*.py``/``table*.py``
call site, and backs the ``python -m repro.experiments`` CLI.  Per-seed RNGs
are spawned from each seed independently, so the fan-out results are
identical whatever the job count.

Figure 3 and Figure 4 share the expensive online-adaptation study; the
runner computes it once per ``(scale, seed)`` and hands it to both drivers
through the shared context, exactly like the test and benchmark fixtures do.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from concurrent.futures import InvalidStateError, ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.oracle import cache_stats_snapshot
from repro.core.oracle_store import (
    OracleStore,
    get_default_oracle_store,
    set_default_oracle_store,
)
from repro.experiments.common import (
    OnlineAdaptationStudy,
    run_online_adaptation_study,
)
from repro.experiments.scales import (
    ExperimentScale,
    ScaleLike,
    available_scales,
    get_scale,
)
from repro.utils.cli import exit_status
from repro.utils.rng import SeedLike

#: Signature of a registered experiment driver.
ExperimentRunnerFn = Callable[[ExperimentScale, SeedLike, "ExperimentContext"], Any]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: how to run it and how to render it."""

    name: str
    description: str
    runner: ExperimentRunnerFn
    formatter: Optional[Callable[[Any], str]] = None
    tags: Tuple[str, ...] = ()

    def format_result(self, result: Any) -> str:
        if self.formatter is not None:
            return self.formatter(result)
        if isinstance(result, (list, tuple)):
            return "\n".join(repr(row) for row in result)
        return repr(result)


_EXPERIMENT_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(
    name: str,
    description: str,
    runner: ExperimentRunnerFn,
    formatter: Optional[Callable[[Any], str]] = None,
    tags: Sequence[str] = (),
    overwrite: bool = False,
) -> ExperimentSpec:
    """Add an experiment to the registry (resolvable by name)."""
    if name in _EXPERIMENT_REGISTRY and not overwrite:
        raise ValueError(f"experiment {name!r} is already registered")
    spec = ExperimentSpec(
        name=name,
        description=description,
        runner=runner,
        formatter=formatter,
        tags=tuple(tags),
    )
    _EXPERIMENT_REGISTRY[name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Resolve an experiment by name."""
    if name not in _EXPERIMENT_REGISTRY:
        raise KeyError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    return _EXPERIMENT_REGISTRY[name]


def available_experiments(tag: Optional[str] = None) -> List[str]:
    """Names of registered experiments, optionally filtered by tag."""
    names = [
        name for name, spec in _EXPERIMENT_REGISTRY.items()
        if tag is None or tag in spec.tags
    ]
    return sorted(names)


class ExperimentContext:
    """Shared state handed to every experiment runner.

    Memoises the online-adaptation study per ``(scale, seed)`` so that
    Figure 3 and Figure 4 — which consume the same study — train the
    policies once instead of twice per run.
    """

    def __init__(self, scenario_filter: Optional[Sequence[str]] = None,
                 fleet_devices: Optional[int] = None,
                 fleet_shards: Optional[int] = None) -> None:
        self._studies: Dict[Tuple[ExperimentScale, Any], OnlineAdaptationStudy] = {}
        #: Names of the scenarios scenario-driven experiments (robustness)
        #: should sweep; ``None`` means every registered scenario.
        self.scenario_filter: Optional[Tuple[str, ...]] = (
            tuple(scenario_filter) if scenario_filter is not None else None
        )
        #: Device count for the fleet experiment (``--devices``); ``None``
        #: means the experiment's default.
        self.fleet_devices: Optional[int] = (
            int(fleet_devices) if fleet_devices is not None else None
        )
        #: Process shard count for fleet-style experiments
        #: (``--shards``); ``None`` runs them single-process.
        self.fleet_shards: Optional[int] = (
            int(fleet_shards) if fleet_shards is not None else None
        )

    def adaptation_study(self, scale: ExperimentScale,
                         seed: SeedLike) -> OnlineAdaptationStudy:
        # Key on the (frozen, hashable) scale object itself — a custom scale
        # that happens to share a preset's name must not reuse its study.
        # Non-int seeds (None / Generator) key by object identity; using the
        # object itself (not its id()) keeps it alive, so a recycled address
        # can never alias two generators to the same entry.
        key = (scale, seed)
        if key not in self._studies:
            self._studies[key] = run_online_adaptation_study(
                scale, seed=seed, include_offline_apps=True
            )
        return self._studies[key]


@dataclass
class SeedRun:
    """Result of one experiment at one seed.

    ``metadata`` carries execution-side observability that is not part of
    the experiment result proper: the OracleCache hit/miss deltas (memory
    tier and on-disk store tier) accumulated while the seed ran.
    """

    seed: SeedLike
    result: Any
    elapsed_s: float
    metadata: Dict[str, Any] = field(default_factory=dict)


def _cache_stats_delta(before: Dict[str, int]) -> Dict[str, int]:
    """OracleCache activity since ``before`` (a prior snapshot)."""
    after = cache_stats_snapshot()
    return {f"oracle_cache_{key}": after[key] - before.get(key, 0)
            for key in after}


def _install_worker_store(store_path: Optional[str]) -> None:
    """Adopt the parent's on-disk Oracle store inside a worker process."""
    if store_path is None:
        return
    current = get_default_oracle_store()
    if current is None or str(current.root) != store_path:
        set_default_oracle_store(store_path)


def _pooled_seed_run(
    task: Tuple[str, ExperimentScale, SeedLike, Optional[Tuple[str, ...]],
                Optional[str], Optional[int]]
) -> SeedRun:
    """Execute one ``(experiment, scale, seed, scenario_filter,
    oracle_store_path, fleet_devices, fleet_shards)`` task in a worker
    process.

    The experiment is re-resolved from the registry inside the worker (specs
    hold arbitrary callables and are not sent over the wire), so only
    built-in experiments — or ones registered at import time of
    :mod:`repro.experiments.runner` — are reachable from worker processes.
    Every seed derives its own independent generators via
    :func:`repro.utils.rng.spawn_rngs` inside the drivers, so results are a
    pure function of ``(scale, seed, scenario_filter)`` and therefore
    independent of how many workers execute the fan-out or how tasks land
    on them.  Each task builds a fresh :class:`ExperimentContext` from its
    own fields, so it reports the same Oracle-cache activity whichever
    tasks its worker ran before (figure4 recomputes the adaptation study
    figure3 built, instead of reusing it only when both land on the same
    worker).  When the parent runs with an on-disk Oracle store, its path
    rides along in the task so every worker layers its caches over the same
    store (entries are content-addressed and deterministic, so sharing
    cannot change any result).
    """
    (name, scale, seed, scenario_filter, store_path, fleet_devices,
     fleet_shards) = task
    _install_worker_store(store_path)
    context = ExperimentContext(scenario_filter=scenario_filter,
                                fleet_devices=fleet_devices,
                                fleet_shards=fleet_shards)
    spec = get_experiment(name)
    stats_before = cache_stats_snapshot()
    start = time.perf_counter()
    result = spec.runner(scale, seed, context)
    return SeedRun(seed=seed, result=result,
                   elapsed_s=time.perf_counter() - start,
                   metadata=_cache_stats_delta(stats_before))


@dataclass
class ExperimentRun:
    """Fan-out result of one experiment across one or more seeds."""

    spec: ExperimentSpec
    scale: ExperimentScale
    seed_runs: List[SeedRun] = field(default_factory=list)

    def format(self) -> str:
        """Human-readable report: one formatted block per seed."""
        blocks = [
            f"=== {self.spec.name} [scale={self.scale.name}] — "
            f"{self.spec.description} ==="
        ]
        for run in self.seed_runs:
            header = f"--- seed={run.seed} ({run.elapsed_s:.1f}s)"
            hits = run.metadata.get("oracle_cache_hits")
            misses = run.metadata.get("oracle_cache_misses")
            if hits or misses:
                header += f" [oracle cache: {hits} hits / {misses} misses"
                store_hits = run.metadata.get("oracle_cache_store_hits", 0)
                store_misses = run.metadata.get("oracle_cache_store_misses", 0)
                if store_hits or store_misses:
                    header += f"; store: {store_hits}/{store_misses}"
                header += "]"
            blocks.append(header + " ---")
            blocks.append(self.spec.format_result(run.result))
        return "\n".join(blocks)


class ExperimentRunner:
    """Executes registered experiments at a given scale with seed fan-out.

    ``jobs`` controls the fan-out execution model: ``1`` (default) runs the
    seeds sequentially in-process; ``N > 1`` dispatches them to a pool of
    ``N`` worker processes.  Results are identical either way — each seed's
    run is a deterministic function of ``(scale, seed)`` alone (per-seed
    RNGs are spawned from the seed, never shared), so neither the job count
    nor the task scheduling can change any result.  Parallel runs therefore
    accept only stateless int/None seeds; a shared ``Generator`` seed (whose
    state threads through consecutive runs in-process) must use ``jobs=1``.

    The pool is created lazily on the first parallel :meth:`run` and reused
    by later calls; call :meth:`close` (or use the runner as a context
    manager) to release the worker processes.  Sequential runs share this
    runner's :class:`ExperimentContext`, so figure4 reuses the adaptation
    study figure3 built; each pooled task builds its own context, so a
    pooled figure4 recomputes the study whichever worker runs it.
    """

    def __init__(self, scale: ScaleLike = "quick",
                 seeds: Sequence[SeedLike] = (0,), jobs: int = 1,
                 scenario_filter: Optional[Sequence[str]] = None,
                 oracle_store: Optional[Union[OracleStore, str, Path]] = None,
                 fleet_devices: Optional[int] = None,
                 fleet_shards: Optional[int] = None,
                 ) -> None:
        self.scale = get_scale(scale)
        self.seeds: List[SeedLike] = list(seeds)
        if not self.seeds:
            raise ValueError("ExperimentRunner needs at least one seed")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # A worker per seed at most: more would idle.
        self.jobs = min(int(jobs), len(self.seeds))
        self.context = ExperimentContext(scenario_filter=scenario_filter,
                                         fleet_devices=fleet_devices,
                                         fleet_shards=fleet_shards)
        self._executor: Optional[ProcessPoolExecutor] = None
        # Installing the store as the process default makes every framework
        # the drivers construct (in this process) layer its OracleCache over
        # it; worker processes receive the path with each task.
        self.oracle_store: Optional[OracleStore] = (
            set_default_oracle_store(oracle_store)
            if oracle_store is not None else None
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """Return the runner's worker pool, created lazily.

        The pool persists across :meth:`run` calls so worker processes are
        started once per runner, not once per experiment.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool and release the default Oracle store.

        The store was installed process-wide so the drivers' frameworks
        adopt it; clearing it here keeps one runner's store from silently
        leaking into store-less runners created later in the process.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if (self.oracle_store is not None
                and get_default_oracle_store() is self.oracle_store):
            set_default_oracle_store(None)

    def abort(self) -> None:
        """Tear the worker pool down without waiting for in-flight tasks.

        The graceful-interrupt path (``SIGINT`` on the CLI): queued tasks
        are cancelled, live worker processes are terminated, and the
        Oracle store is released exactly like :meth:`close`.  In-flight
        results are abandoned — callers report partial completion.
        """
        if self._executor is not None:
            executor, self._executor = self._executor, None
            # Killing the workers breaks the pool; the executor's manager
            # thread then fails every pending future — including ones the
            # interrupted ``pool.map`` already cancelled, which on Python
            # 3.11 raises an unguarded InvalidStateError inside that
            # thread (guarded upstream from 3.12).  Filter that benign
            # traceback out of the drain; anything else still reaches the
            # default hook.
            default_hook = threading.excepthook

            def _quiet_invalid_state(hook_args):
                if issubclass(hook_args.exc_type, InvalidStateError):
                    return
                default_hook(hook_args)

            threading.excepthook = _quiet_invalid_state
            processes = list((getattr(executor, "_processes", None)
                              or {}).values())
            executor.shutdown(wait=False, cancel_futures=True)
            for process in processes:
                try:
                    process.terminate()
                except (OSError, AttributeError):  # pragma: no cover
                    pass
        if (self.oracle_store is not None
                and get_default_oracle_store() is self.oracle_store):
            set_default_oracle_store(None)

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def run(self, name: str) -> ExperimentRun:
        """Run one registered experiment across the seed fan-out."""
        spec = get_experiment(name)
        out = ExperimentRun(spec=spec, scale=self.scale)
        if self.jobs > 1:
            # A shared Generator object would thread state from one seed's
            # run into the next in-process, which worker processes (each
            # getting a pickled snapshot) cannot reproduce — so the
            # "identical for any job count" invariant is only promised, and
            # only accepted, for stateless int/None seeds.
            if any(not (seed is None or isinstance(seed, int))
                   for seed in self.seeds):
                raise ValueError(
                    "parallel fan-out (jobs > 1) requires int or None seeds; "
                    "stateful Generator seeds must run sequentially (jobs=1)"
                )
        if self.oracle_store is not None:
            # close() clears the process default; a reused runner
            # re-installs its store for the drivers it is about to run.
            set_default_oracle_store(self.oracle_store)
        if self.jobs > 1:
            store_path = (str(self.oracle_store.root)
                          if self.oracle_store is not None else None)
            tasks = [(spec.name, self.scale, seed,
                      self.context.scenario_filter, store_path,
                      self.context.fleet_devices,
                      self.context.fleet_shards)
                     for seed in self.seeds]
            out.seed_runs = list(self._ensure_executor().map(
                _pooled_seed_run, tasks))
            return out
        for seed in self.seeds:
            stats_before = cache_stats_snapshot()
            start = time.perf_counter()
            result = spec.runner(self.scale, seed, self.context)
            out.seed_runs.append(
                SeedRun(seed=seed, result=result,
                        elapsed_s=time.perf_counter() - start,
                        metadata=_cache_stats_delta(stats_before))
            )
        return out


# --------------------------------------------------------------------- #
# Built-in registrations: the paper's figures/tables plus the ablations.
# --------------------------------------------------------------------- #
def _seed_int(seed: SeedLike) -> int:
    return seed if isinstance(seed, int) else 0


def _register_builtins() -> None:
    from repro.experiments.ablations import (
        run_buffer_size_ablation,
        run_config_space_ablation,
        run_explicit_nmpc_ablation,
        run_forgetting_factor_ablation,
        run_noc_model_comparison,
    )
    from repro.experiments.fault_tolerance import (
        format_fault_tolerance,
        run_fault_tolerance,
    )
    from repro.experiments.figure2 import format_figure2, run_figure2
    from repro.experiments.fleet import format_fleet, run_fleet
    from repro.experiments.figure3 import format_figure3, run_figure3
    from repro.experiments.figure4 import format_figure4, run_figure4
    from repro.experiments.figure5 import format_figure5, run_figure5
    from repro.experiments.robustness import format_robustness, run_robustness
    from repro.experiments.table1 import format_table1, run_table1
    from repro.experiments.table2 import format_table2, run_table2

    register_experiment(
        "table1", "Table I — per-snippet performance-counter schema",
        lambda scale, seed, ctx: run_table1(seed=_seed_int(seed)),
        formatter=format_table1, tags=("paper", "table"),
    )
    register_experiment(
        "table2", "Table II — offline IL generalisation across suites",
        lambda scale, seed, ctx: run_table2(scale, seed=seed),
        formatter=format_table2, tags=("paper", "table"),
    )
    register_experiment(
        "figure2", "Figure 2 — online RLS frame-time prediction (Nenamark2)",
        lambda scale, seed, ctx: run_figure2(scale, seed=seed),
        formatter=format_figure2, tags=("paper", "figure"),
    )
    register_experiment(
        "figure3", "Figure 3 — online-IL vs RL convergence to the Oracle",
        lambda scale, seed, ctx: run_figure3(
            scale, seed=seed, study=ctx.adaptation_study(scale, seed)
        ),
        formatter=format_figure3, tags=("paper", "figure"),
    )
    register_experiment(
        "figure4", "Figure 4 — per-application energy normalised to Oracle",
        lambda scale, seed, ctx: run_figure4(
            scale, seed=seed, study=ctx.adaptation_study(scale, seed)
        ),
        formatter=format_figure4, tags=("paper", "figure"),
    )
    register_experiment(
        "figure5", "Figure 5 — explicit-NMPC GPU energy savings vs baseline",
        lambda scale, seed, ctx: run_figure5(scale, seed=seed),
        formatter=format_figure5, tags=("paper", "figure"),
    )
    register_experiment(
        "robustness",
        "Scenario stress sweep — online-IL vs offline-IL vs governors",
        lambda scale, seed, ctx: run_robustness(
            scale, seed=seed,
            scenarios=getattr(ctx, "scenario_filter", None),
        ),
        formatter=format_robustness, tags=("robustness", "scenario"),
    )
    register_experiment(
        "fleet",
        "Lockstep multi-device fleet rollout of the online-IL policy",
        lambda scale, seed, ctx: run_fleet(
            scale, seed=seed,
            n_devices=getattr(ctx, "fleet_devices", None),
            scenarios=getattr(ctx, "scenario_filter", None),
            n_shards=getattr(ctx, "fleet_shards", None),
        ),
        formatter=format_fleet, tags=("fleet", "scenario"),
    )
    register_experiment(
        "fault-tolerance",
        "Supervised fleet under injected faults — survival and recovery",
        lambda scale, seed, ctx: run_fault_tolerance(
            scale, seed=seed,
            n_devices=getattr(ctx, "fleet_devices", None),
            n_shards=getattr(ctx, "fleet_shards", None),
        ),
        formatter=format_fault_tolerance, tags=("robustness", "fault", "fleet"),
    )
    register_experiment(
        "ablation-buffer", "Online-IL adaptation vs aggregation-buffer size",
        lambda scale, seed, ctx: run_buffer_size_ablation(scale=scale, seed=seed),
        tags=("ablation",),
    )
    register_experiment(
        "ablation-forgetting", "Frame-time model error vs RLS forgetting factor",
        lambda scale, seed, ctx: run_forgetting_factor_ablation(scale=scale,
                                                               seed=seed),
        tags=("ablation",),
    )
    register_experiment(
        "ablation-enmpc", "Explicit-NMPC surface fidelity vs approximator",
        lambda scale, seed, ctx: run_explicit_nmpc_ablation(scale=scale, seed=seed),
        tags=("ablation",),
    )
    register_experiment(
        "ablation-config-space", "Offline-IL generalisation vs space richness",
        lambda scale, seed, ctx: run_config_space_ablation(scale=scale, seed=seed),
        tags=("ablation",),
    )
    register_experiment(
        "ablation-noc", "Analytical vs SVR NoC latency model accuracy",
        lambda scale, seed, ctx: run_noc_model_comparison(seed=seed),
        tags=("ablation",),
    )


_register_builtins()


# --------------------------------------------------------------------- #
# CLI: python -m repro.experiments
# --------------------------------------------------------------------- #
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiments through the unified runner.",
    )
    parser.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiment names (default: every paper figure/table); "
             "use --list to see what is available",
    )
    parser.add_argument(
        "--scale", default="quick", metavar="|".join(available_scales()),
        help="scale preset controlling trace length and training budget "
             "(default: quick)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="number of seeds to fan out over (seeds base..base+N-1, default 1)",
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, metavar="S",
        help="first seed of the fan-out (default 0)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the seed fan-out (default 1 = sequential "
             "in-process); results are identical for any job count",
    )
    parser.add_argument(
        "--tag", default=None,
        help="when no experiment names are given, run all with this tag "
             "(e.g. 'paper', 'ablation')",
    )
    parser.add_argument(
        "--oracle-store", default=None, metavar="DIR", dest="oracle_store",
        help="directory of the persistent on-disk Oracle store; entries are "
             "content-addressed, shared with worker processes and reused by "
             "later invocations (created if missing)",
    )
    parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        dest="scenarios",
        help="restrict scenario-driven experiments (robustness, fleet) to "
             "this registered scenario; repeatable (default: all scenarios)",
    )
    parser.add_argument(
        "--devices", type=int, default=None, metavar="N", dest="devices",
        help="device count for the fleet experiment (default: the "
             "experiment's built-in fleet size)",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N", dest="shards",
        help="run fleet experiments through the sharded engine with N "
             "process shards (default: single-process; per-device "
             "results are bitwise identical either way)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_experiments",
        help="list registered experiments and scales, then exit",
    )
    parser.add_argument(
        "--json", action="store_true", dest="list_json",
        help="with --list: print the registry as JSON (name, tags, "
             "description per experiment, plus scales and scenarios)",
    )
    return parser


def _registry_payload() -> Dict[str, Any]:
    """Machine-readable registry snapshot (``--list --json``)."""
    from repro.scenarios import available_scenarios
    return {
        "experiments": [
            {
                "name": name,
                "description": get_experiment(name).description,
                "tags": list(get_experiment(name).tags),
            }
            for name in available_experiments()
        ],
        "scales": available_scales(),
        "scenarios": available_scenarios(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.experiments``."""
    args = _build_parser().parse_args(argv)
    return exit_status(lambda: _run_cli(args))


def _run_cli(args: argparse.Namespace) -> int:
    """Run the experiments ``args`` name; returns the exit status."""
    if args.list_json and not args.list_experiments:
        print("error: --json requires --list", file=sys.stderr)
        return 2
    if args.list_experiments:
        if args.list_json:
            import json
            print(json.dumps(_registry_payload(), indent=2, sort_keys=True))
            return 0
        from repro.scenarios import available_scenarios
        print("Registered experiments:")
        for name in available_experiments():
            spec = get_experiment(name)
            tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
            print(f"  {name:22s} {spec.description}{tags}")
        print(f"Scales: {', '.join(available_scales())}")
        print(f"Scenarios: {', '.join(available_scenarios())}")
        return 0
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    if args.seed_base < 0:
        print("error: --seed-base must be >= 0 (NumPy seeds are non-negative)",
              file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.devices is not None and args.devices < 1:
        print("error: --devices must be >= 1", file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.scenarios:
        from repro.scenarios import available_scenarios
        unknown = sorted(set(args.scenarios) - set(available_scenarios()))
        if unknown:
            print(f"error: unknown scenarios {unknown}; "
                  f"available: {available_scenarios()}", file=sys.stderr)
            return 2
    seeds = list(range(args.seed_base, args.seed_base + args.seeds))
    try:
        runner = ExperimentRunner(scale=args.scale, seeds=seeds, jobs=args.jobs,
                                  scenario_filter=args.scenarios,
                                  oracle_store=args.oracle_store,
                                  fleet_devices=args.devices,
                                  fleet_shards=args.shards)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = args.experiments or available_experiments(args.tag or "paper")
    if not names:
        print(f"error: no experiments match tag {args.tag!r}; "
              f"available: {available_experiments()}", file=sys.stderr)
        return 2
    if args.scenarios:
        # --scenario only affects scenario-driven experiments; running e.g.
        # `figure2 --scenario phase_churn` would silently do nothing with
        # the flag, so reject the combination instead.
        consumers = [name for name in names
                     if name in _EXPERIMENT_REGISTRY
                     and "scenario" in get_experiment(name).tags]
        if not consumers:
            print("error: --scenario has no effect on "
                  f"{names}; scenario-driven experiments: "
                  f"{available_experiments(tag='scenario')}", file=sys.stderr)
            return 2
    for flag, value in (("--devices", args.devices), ("--shards", args.shards)):
        if value is not None:
            consumers = [name for name in names
                         if name in _EXPERIMENT_REGISTRY
                         and "fleet" in get_experiment(name).tags]
            if not consumers:
                print(f"error: {flag} has no effect on "
                      f"{names}; fleet experiments: "
                      f"{available_experiments(tag='fleet')}", file=sys.stderr)
                return 2
    exit_code = 0
    completed = 0
    try:
        for name in names:
            try:
                run = runner.run(name)
            except KeyError as exc:
                print(f"error: {exc}", file=sys.stderr)
                exit_code = 2
                continue
            completed += 1
            print(run.format())
            print()
    except KeyboardInterrupt:
        # Graceful SIGINT: drain the worker pool (terminate in-flight
        # workers, cancel queued tasks), say what finished, exit nonzero
        # with the conventional interrupted status.
        runner.abort()
        print(f"interrupted: completed {completed}/{len(names)} "
              "experiments; partial results above",
              file=sys.stderr)
        return 130
    finally:
        runner.close()
    return exit_code
