"""The three benchmark workloads, run one per fresh interpreter.

``run.py`` starts this file with BLAS/OpenMP threads pinned to one and a
fixed ``PYTHONHASHSEED``::

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out FILE

Every workload is a closed loop driven by this one process.  It repeats
*cycles* until the timed passes add up to ``--seconds`` and a
workload-specific minimum of cycles has run.  A cycle is a set-up (timed
as ``setup_s``) followed by one pass over the workload's fixed work
(timed as ``pass_s``).  Inputs come from ``--seed`` only; every cycle of
a run uses the same inputs, so results must repeat bitwise from cycle to
cycle.

While a set-up or pass is timed, the ``reference.py`` sampler runs a
fixed kernel every 20 ms.  Each set-up and each pass is reported at
nominal host speed: its time less the kernel's, scaled by the kernel's
nominal time over the mean kernel time sampled inside it.  A metric
is the median over the run's cycles.  The unscaled times are kept in the
result file.

With ``--trace 1`` it runs one untraced cycle and one traced cycle and
reports the per-layer metrics of the traced one, plus both cycles'
end-to-end numbers side by side (the tracing overhead).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import spec
import targets
from reference import Sampler, Stretch
from tracing import NameStats, Span, Tracer, summarize

HERE = Path(__file__).resolve().parent

_IMPORT_START = time.perf_counter()
import numpy as np  # noqa: E402

import repro.experiments.runner  # noqa: E402,F401  (the whole library)
from repro.core.oracle import cache_stats_snapshot  # noqa: E402
from repro.experiments.common import build_trained_framework  # noqa: E402
from repro.experiments.scales import TINY  # noqa: E402
from repro.fleet import DeviceSpec, build_fleet  # noqa: E402
from repro.scenarios import available_scenarios, get_scenario  # noqa: E402
from repro.scenarios.runtime import build_scenario_oracle  # noqa: E402
from repro.service import run as service_run  # noqa: E402
from repro.service.protocol import DispatchCommand  # noqa: E402
from repro.utils.rng import derive_seed, make_rng, stable_name_id  # noqa: E402
from repro.workloads import sequences  # noqa: E402
from repro.workloads.suites import unseen_workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_START

clock = time.perf_counter

#: Seed stream of everything the benchmark derives from ``--seed``.
_STREAM = stable_name_id("perfbench")

#: Past its minimum cycles, a run starts no cycle after this much wall
#: time, whatever ``--seconds`` says, so it ends within 180 s.
MAX_RUN_S = 100.0


@dataclass
class Cycle:
    """Set-ups plus one pass, each timed with its kernel samples."""

    setup: Stretch = field(default_factory=Stretch)
    setups: int = 0  # set-ups timed into ``setup``
    work: Stretch = field(default_factory=Stretch)  # the pass
    device_steps: int = 0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")


def end_to_end(cycles: List[Cycle], rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of a run: medians at nominal host speed."""
    return {
        "setup_s": statistics.median(c.setup.scaled() / c.setups
                                     for c in cycles if c.setups),
        "pass_s": statistics.median(c.work.scaled() for c in cycles),
        "peak_rss_mb": rss_mb,
    }


def unscaled(cycles: List[Cycle], rss_mb: float) -> Dict[str, float]:
    """The same medians of the times themselves (what tracing reports)."""
    return {
        "setup_s": statistics.median(c.setup.work_s / c.setups
                                     for c in cycles if c.setups),
        "pass_s": statistics.median(c.work.work_s for c in cycles),
        "peak_rss_mb": rss_mb,
    }


def kernel_ms(cycles: List[Cycle]) -> float:
    """Mean kernel time of a run: how fast the host was."""
    return statistics.fmean(
        k for c in cycles for k in c.setup.kernel_s + c.work.kernel_s) * 1e3


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def batched_fraction(engine) -> float:
    """Share of session phases (decide, execute, observe) run batched."""
    return ((engine.batched_decisions + engine.batched_executions
             + engine.batched_observes) / (3 * engine.steps_executed))


def paused(tracer: Optional[Tracer]):
    """Suspend span recording around work that only checks results."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------------- #
# online-il-fleet
# ---------------------------------------------------------------------- #
class OnlineILFleet:
    """64 isolated online-IL devices, built like the ``fleet`` experiment.

    Baseline devices rotate with every registered scenario (thermal
    throttling included), each with its own Oracle table.  Set-up trains
    the framework and builds every device and the fleet; the pass steps
    the fleet in-process with ``FleetEngine.step()`` until every device
    has finished its trace.  TINY training and buffer; 1.2x TINY's
    sequence length gives ~225 lockstep rounds, ~10% of them training
    rounds.
    """

    name = spec.IL
    min_cycles = 3
    devices = 64
    scale = dataclasses.replace(TINY, name="perfbench-il",
                                sequence_snippet_factor=1.2)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.rotation: List[Optional[str]] = [None, *available_scenarios()]
        self.expected: Optional[List[float]] = None

    def device(self, framework, i: int) -> DeviceSpec:
        sequence = sequences.build_online_sequence(
            specs=unseen_workloads(),
            snippet_factor=self.scale.sequence_snippet_factor,
            seed=derive_seed(self.seed, (_STREAM, 0, i)),
        )
        policy = framework.build_online_il_policy(
            buffer_capacity=self.scale.buffer_capacity,
            update_epochs=self.scale.update_epochs,
            isolated=True,
        )
        rng = make_rng(derive_seed(self.seed, (_STREAM, 1, i)))
        scenario = self.rotation[i % len(self.rotation)]
        if scenario is None:
            return DeviceSpec(name=f"device-{i:02d}", policy=policy,
                              snippets=sequence.snippets, rng=rng,
                              oracle_table=framework.build_oracle_for(
                                  sequence.snippets))
        trace = get_scenario(scenario).apply(
            sequence.snippets, derive_seed(self.seed, (_STREAM, 2, i)))
        return DeviceSpec(
            name=f"device-{i:02d}", policy=policy, scenario=trace, rng=rng,
            oracle_table=build_scenario_oracle(
                framework.simulator, framework.space, trace,
                framework.objective, cache=framework.oracle_cache),
        )

    def cycle(self, tracer: Optional[Tracer], sampler: Sampler) -> Cycle:
        out = Cycle()
        with sampler.timed(out.setup):
            framework = build_trained_framework(self.scale, seed=self.seed)
            devices = [self.device(framework, i) for i in range(self.devices)]
            engine = build_fleet(devices, framework.simulator,
                                 framework.space)
            engine.prepare()
        out.setups = 1
        gc.collect()
        rounds = training = updates = 0
        while not engine.done:
            if tracer is not None:
                tracer.round_id = rounds
            with sampler.timed(out.work):
                out.device_steps += engine.step()
            rounds += 1
            now = sum(device.policy.n_policy_updates for device in devices)
            training += now != updates
            updates = now
        out.counters["rounds"] = rounds
        out.counters["training_rounds"] = training
        runs = engine.run()
        for session, run in zip(engine.sessions, runs):
            out.check(len(run.log) == len(session)
                      and bool(np.isfinite(run.total_energy_j)),
                      f"{run.policy_name} device did not finish finitely")
        out.counters["fleet.engine.batched_fraction"] = batched_fraction(
            engine)
        energies = [run.total_energy_j for run in runs]
        out.counters["norm_energy"] = (
            sum(energies) / sum(run.oracle_energy_j for run in runs))
        if self.expected is None:
            self.expected = energies
            with paused(tracer):
                self._check_alone(out, framework, runs)
        else:
            out.check(energies == self.expected,
                      "fleet energies differ between cycles of one seed")
        return out

    def _check_alone(self, out: Cycle, framework, runs) -> None:
        """Re-run one seed-chosen device by itself: its log must match."""
        index = self.seed % self.devices
        alone = build_fleet([self.device(framework, index)],
                            framework.simulator, framework.space).run()[0]
        fleet_log = runs[index].log.to_dict()
        alone_log = alone.log.to_dict()
        same = fleet_log.keys() == alone_log.keys() and all(
            np.asarray(fleet_log[key]).tobytes()
            == np.asarray(alone_log[key]).tobytes() for key in fleet_log)
        out.check(same and alone.total_energy_j == runs[index].total_energy_j,
                  f"device-{index:02d} run alone differs from its fleet log")

    def rss_mb(self, cycles: List[Cycle]) -> float:
        return vm_hwm_mb(os.getpid())

    def describe(self, cycles: List[Cycle]) -> str:
        counters = cycles[0].counters
        return (f"cycles={len(cycles)} rounds={counters['rounds']:.0f} "
                f"training_rounds={counters['training_rounds']:.0f} "
                f"device_steps={cycles[0].device_steps} "
                f"norm_energy={counters['norm_energy']:.6f}")

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------- #
# journaled-service
# ---------------------------------------------------------------------- #
class JournaledService:
    """A 64-device journaled ondemand fleet with a polling, dispatching client.

    ``ServiceRun`` at the default snapshot cadence (every 5 rounds) over
    TINY traces with every scenario in the rotation (~108 rounds).  After
    each round the client polls ``status()`` every second round and sends
    a ``restrict-space`` dispatch every third round (every eighth
    dispatch is a ``set-policy`` instead).  At fixed mid-cadence rounds
    the journal directory is copied: every append is fsync'd, so the copy
    is what ``kill -9`` would leave.

    Set-up is ``ServiceRun.start`` on a fresh directory, timed ``starts``
    times per cycle.  The pass serves the run to its end with the client,
    then recovers a fresh copy of the first crash round's journal and
    steps it back to its crash round.  The recovered run's digests must
    equal the uninterrupted run's at that round; in a run's first cycle
    one recovered run per crash round is also driven to the end by the
    same client and must end with the uninterrupted run's digests.
    """

    name = spec.SVC
    min_cycles = 2
    devices = 64
    starts = 3
    crash_rounds = (57, 87)  # the first one is recovered in every pass
    policies = ("interactive", "powersave")

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.config = service_run.RunConfig(
            policy="ondemand", scale="tiny", n_devices=self.devices,
            seed=seed, scenarios=tuple(available_scenarios()))
        self.cycles = 0
        self.recovered = 0
        self.expected: Optional[Dict[str, str]] = None

    def client(self, run, out: Optional[Cycle]) -> None:
        """The client's actions after a completed round."""
        index = run.rounds
        if index % 2 == 0:
            run.status()
        if index % 3 == 0:
            k = index // 3
            device = f"device-{(7 * k + self.seed) % self.devices:02d}"
            if k % 8 == 0:
                command = DispatchCommand(
                    command="set-policy", device=device,
                    value=self.policies[(k // 8) % 2],
                    idempotency_key=f"round-{index}")
            else:
                command = DispatchCommand(
                    command="restrict-space", device=device,
                    value=None if k % 5 == 0 else 2 + k % 4,
                    idempotency_key=f"round-{index}")
            receipt = run.dispatch(command)
            if out is not None:
                out.check(receipt.status == "accepted",
                          f"dispatch at round {index}: {receipt.status}")

    def recover(self, crash_dir: Path, crash: int, timed):
        """Recover a fresh copy of ``crash_dir`` and step it to ``crash``.

        Only the recovery runs inside ``timed`` (the copy does not).
        Returns the recovered run and the rounds replayed after the
        restored snapshot.
        """
        self.recovered += 1
        journal_dir = crash_dir.parent / f"recovered-{self.recovered}"
        shutil.copytree(crash_dir, journal_dir)
        os.sync()
        with timed:
            recovered = service_run.ServiceRun.recover(journal_dir)
            restored = recovered.rounds
            while recovered.rounds < crash:
                recovered.step_round()
        return recovered, crash - restored

    def verify(self, recovered, crash: int, at_crash: Dict[str, str],
               final: Dict[str, str], out: Cycle, to_end: bool) -> None:
        """Check a recovered run at its crash round and, maybe, at the end."""
        out.check(recovered.digests() == at_crash,
                  f"recovery to round {crash} diverged")
        if to_end:
            while not recovered.done:
                recovered.step_round()
                self.client(recovered, None)
            out.check(recovered.digests() == final,
                      f"run recovered at round {crash} ended apart")
        recovered.close()

    def cycle(self, tracer: Optional[Tracer], sampler: Sampler) -> Cycle:
        out = Cycle()
        root = self.work / f"service-{self.cycles}"
        self.cycles += 1
        root.mkdir(parents=True)
        for k in range(self.starts):
            # The traced run records the last start; the rest add samples.
            with paused(tracer) if k + 1 < self.starts else \
                    contextlib.nullcontext(), sampler.timed(out.setup):
                run = service_run.ServiceRun.start(
                    self.config, journal_dir=root / f"start-{k}")
            out.setups += 1
            if k + 1 < self.starts:
                run.close()
        journal = root / f"start-{self.starts - 1}"
        gc.collect()
        os.sync()
        copies: Dict[int, Path] = {}
        at_crash: Dict[int, Dict[str, str]] = {}
        while not run.done:
            if tracer is not None:
                tracer.round_id = run.rounds
            with sampler.timed(out.work):
                out.device_steps += run.step_round()
                self.client(run, out)
            if run.rounds in self.crash_rounds:
                copies[run.rounds] = root / f"crash-{run.rounds}"
                shutil.copytree(journal, copies[run.rounds])
                os.sync()  # or the next timed fsync writes the copy out
                with paused(tracer):
                    at_crash[run.rounds] = run.digests()
        with paused(tracer):
            digests = run.digests()
        out.counters["rounds"] = run.rounds
        out.counters["fleet.engine.batched_fraction"] = batched_fraction(
            run.supervisor.engine)
        run.close()
        out.counters["service.journal.disk_mb"] = sum(
            path.stat().st_size for path in journal.rglob("*")
            if path.is_file()) / 2**20
        first = self.expected is None
        if first:
            self.expected = digests
        else:
            out.check(digests == self.expected,
                      "service digests differ between cycles of one seed")
        missing = [crash for crash in self.crash_rounds if crash not in copies]
        out.check(not missing, f"run ended before crash rounds {missing}")
        if not missing:
            crash, later = self.crash_rounds
            recovered, replayed = self.recover(copies[crash], crash,
                                               sampler.timed(out.work))
            out.counters["service.run.replayed_rounds"] = replayed
            with paused(tracer):
                self.verify(recovered, crash, at_crash[crash], digests,
                            out, to_end=first)
                if first:  # a later crash round, checked once per run
                    recovered, _ = self.recover(copies[later], later,
                                                contextlib.nullcontext())
                    self.verify(recovered, later, at_crash[later], digests,
                                out, to_end=True)
        return out

    def rss_mb(self, cycles: List[Cycle]) -> float:
        return vm_hwm_mb(os.getpid())

    def describe(self, cycles: List[Cycle]) -> str:
        return (f"cycles={len(cycles)} "
                f"rounds={cycles[0].counters['rounds']:.0f} "
                f"starts={sum(c.setups for c in cycles)} "
                f"device_steps={cycles[0].device_steps}")

    def close(self) -> None:
        # Deleting a cycle's files at its end would leave the next cycle's
        # fsyncs waiting on the deletes.
        for k in range(self.cycles):
            shutil.rmtree(self.work / f"service-{k}", ignore_errors=True)


# ---------------------------------------------------------------------- #
# reproduce-cli
# ---------------------------------------------------------------------- #
_REPORT_HEADER = re.compile(r"^=== (\S+) \[scale=", re.MULTILINE)


class ReproduceCLI:
    """``python -m repro.experiments`` over every registered experiment.

    A run gives the CLI a fresh, empty Oracle store.  Its first cycle
    starts with the cold run that fills the store (the set-up, once per
    run: it takes ~10 s); every cycle's pass is one warm run on the
    filled store.  Each run starts a new interpreter, so it pays
    interpreter start and import.  ``cli_boot.py`` calls the CLI's entry
    point inside that interpreter with the host-speed sampler (or, in a
    traced run, the spans) installed.
    """

    name = spec.CLI
    min_cycles = 2

    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.seed = seed
        self.names = repro.experiments.runner.available_experiments()
        self.store = work / "oracle-store"
        self.filled = False
        self.boots: List[dict] = []

    def invoke(self, label: str, out: Cycle, stretch: Stretch,
               tracer: Optional[Tracer]) -> None:
        args = [*self.names, "--scale", "quick", "--jobs", "1",
                "--shards", "1", "--seed-base", str(self.seed),
                "--oracle-store", str(self.store)]
        log = self.work / f"cli-{label}.out"
        boot = self.work / f"cli-{label}.boot.json"
        mode = "--sample" if tracer is None else "--trace"
        command = [sys.executable, str(HERE / "cli_boot.py"), mode,
                   str(boot), *args]
        with open(log, "wb") as sink:
            start = clock()
            pid = os.posix_spawn(command[0], command, os.environ,
                                 file_actions=[(os.POSIX_SPAWN_DUP2,
                                                sink.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2,
                                                sink.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            elapsed = clock() - start
        out.rss_mb = max(out.rss_mb, usage.ru_maxrss / 1024.0)
        code = os.waitstatus_to_exitcode(status)
        text = log.read_text(encoding="utf-8", errors="replace")
        reports = _REPORT_HEADER.findall(text)
        out.check(code == 0, f"{label} CLI run exited {code}:\n{text[-2000:]}")
        out.check(sorted(reports) == sorted(self.names),
                  f"{label} CLI run printed reports for {sorted(reports)}")
        if code != 0:
            raise RuntimeError(f"{label} CLI run exited {code}")
        record = json.loads(boot.read_text(encoding="utf-8"))
        stretch.add(elapsed - record.get("kernel_total_s", 0.0),
                    record.get("kernel_s", []))
        if tracer is not None:
            self.boots.append(record)
            out.counters["fleet.sharding.shipped_mb"] = (
                out.counters.get("fleet.sharding.shipped_mb", 0.0)
                + record["shipped_mb"])

    def cycle(self, tracer: Optional[Tracer], sampler: Sampler) -> Cycle:
        out = Cycle()
        if not self.filled:
            shutil.rmtree(self.store, ignore_errors=True)
            self.invoke("cold", out, out.setup, tracer)
            out.setups = 1
            self.filled = True
        self.invoke("warm", out, out.work, tracer)
        return out

    def rss_mb(self, cycles: List[Cycle]) -> float:
        return max(cycle.rss_mb for cycle in cycles)

    def describe(self, cycles: List[Cycle]) -> str:
        return f"experiments={len(self.names)} warm_runs={len(cycles)}"

    def close(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in
             (OnlineILFleet, JournaledService, ReproduceCLI)}


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def cache_ratios(delta: Dict[str, float]) -> Dict[str, float]:
    """Oracle cache and store ratios from a delta of their counters."""
    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    return {
        "core.oracle.hit_ratio": ratio(delta.get("hits", 0),
                                       delta.get("misses", 0)),
        "core.oracle_store.hit_ratio": ratio(delta.get("store_hits", 0),
                                             delta.get("store_misses", 0)),
        "core.oracle_store.retries": float(delta.get("store_retries", 0)),
    }


def per_layer(stats: Dict[str, NameStats],
              counters: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of the spec; 0 for a layer the run never hit."""
    out: Dict[str, float] = {}
    for name in spec.PER_LAYER:
        if name in counters:
            out[name] = float(counters[name])
            continue
        base, _, suffix = name.rpartition(".")
        entry = stats.get(base)
        if entry is None:
            out[name] = 0.0
        elif suffix == "s":
            out[name] = entry.total_s
        elif suffix == "self_s":
            out[name] = entry.self_s
        elif suffix == "calls":
            out[name] = float(entry.calls)
        else:
            out[name] = 0.0
    return out


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #
def run_untraced(workload, seconds: float) -> dict:
    cycles: List[Cycle] = []
    started = clock()
    with Sampler() as sampler:
        while len(cycles) < workload.min_cycles or (
                sum(c.work.work_s for c in cycles) < seconds
                and clock() - started < MAX_RUN_S):
            cycles.append(workload.cycle(None, sampler))
            gc.collect()
    rss = workload.rss_mb(cycles)
    return {"metrics": end_to_end(cycles, rss),
            "unscaled": {**unscaled(cycles, rss),
                         "kernel_ms": kernel_ms(cycles)},
            "cycles": cycles, "detail": workload.describe(cycles)}


def run_traced(workload_cls, seed: int, work: Path, spans_path: Path) -> dict:
    """One untraced cycle, then one traced cycle on a fresh workload.

    Neither samples host speed (a sample inside a span would count as the
    span's time), so both report unscaled times.
    """
    for sub in ("untraced", "traced"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    plain = workload_cls(seed, work / "untraced")
    try:
        untraced = plain.cycle(None, Sampler(None))
    finally:
        plain.close()
    gc.collect()
    workload = workload_cls(seed, work / "traced")
    tracer = Tracer()
    before = cache_stats_snapshot()
    in_process = workload_cls is not ReproduceCLI
    if in_process:  # the CLI patches inside its own interpreters
        targets.install(tracer)
    try:
        traced = workload.cycle(tracer, Sampler(None))
    finally:
        tracer.restore()
        workload.close()
    if getattr(plain, "expected", None) is not None:
        traced.check(workload.expected == plain.expected,
                     "tracing changed the workload's results")
    if in_process:
        after = cache_stats_snapshot()
        cache = {key: after[key] - before.get(key, 0) for key in after}
        import_s = IMPORT_S
    else:
        # The CLI recorded its spans inside its own interpreters.
        cache, import_s = {}, 0.0
        for boot in workload.boots:
            offset = len(tracer.spans)
            tracer.spans.extend(
                Span(name, start, end, parent + offset if parent >= 0 else -1,
                     round_id)
                for name, start, end, parent, round_id in boot["spans"])
            import_s += boot["import_s"]
            for key, value in boot["cache"].items():
                cache[key] = cache.get(key, 0) + value
    tracer.dump(spans_path)
    counters = {**cache_ratios(cache), "import.s": import_s,
                **traced.counters,
                "trace.overhead": traced.work.work_s / untraced.work.work_s}
    untraced_e2e = unscaled([untraced], plain.rss_mb([untraced]))
    traced_e2e = unscaled([traced], workload.rss_mb([traced]))
    return {
        "metrics": per_layer(summarize(tracer.spans), counters),
        "cycles": [untraced, traced],
        "overhead": {name: (untraced_e2e[name], traced_e2e[name])
                     for name in spec.END_TO_END},
        "detail": workload.describe([traced]),
    }


def host_info(work: Path) -> Dict[str, Any]:
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    fs_type, best = "unknown", ""
    with open("/proc/mounts", encoding="utf-8") as handle:
        for line in handle:
            mount, kind = line.split()[1:3]
            if work.resolve().is_relative_to(mount) and len(mount) >= len(best):
                best, fs_type = mount, kind
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"{blas.get('openblas configuration', '')}".strip(),
        "kernel": platform.release(),
        "threads": {key: os.environ.get(key) for key in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "work_fs": fs_type,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        spans_path = args.out.with_suffix(".spans.jsonl")
        result = run_traced(workload_cls, args.seed, args.work, spans_path)
    else:
        workload = workload_cls(args.seed, args.work)
        try:
            result = run_untraced(workload, args.seconds)
        finally:
            workload.close()
    cycles: List[Cycle] = result.pop("cycles")
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    notes = [note for c in cycles for note in c.notes]
    for note in notes:
        print(note)
    print(f"{args.workload}: {result['detail']}")
    if "overhead" in result:
        print(f"{'metric':24s} {'untraced':>12s} {'traced':>12s}")
        for name, (plain, traced) in result["overhead"].items():
            print(f"{name:24s} {plain:12.6g} {traced:12.6g}")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(args.work),
        "samples": [{"setup_s": c.setup.work_s, "setups": c.setups,
                     "setup_kernel_s": c.setup.kernel_s,
                     "pass_s": c.work.work_s,
                     "pass_kernel_s": c.work.kernel_s} for c in cycles],
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        **result,
    }
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True),
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
