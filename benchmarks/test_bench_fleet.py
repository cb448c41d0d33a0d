"""Benchmarks for the lockstep fleet engine.

Gates the PR-5 scaling work the way ``test_bench_policy_loop.py`` gates
the decision kernel: a 64-device lockstep fleet must (a) produce per-device
run logs bitwise identical to 64 independent sequential runs (asserted on
every run, including ``--benchmark-disable`` smoke runs) and (b) achieve at
least ``MIN_FLEET_SPEEDUP``x the aggregate steps/second of the sequential
runs (asserted only on timing-enabled runs).

Three fleets are gated.  The ondemand-governor fleet — the classic
per-device baseline the paper's motivation names — isolates the lockstep
engine (batched decides + batched executions + the sessions' noise rows).
The online-IL fleet (the paper's actual rollout) exercises the whole
batched learning path on top of it: fleet-wide runtime-Oracle candidate
sweeps, stacked RLS model updates with persistent cross-step precision
tensors, and stacked MLP policy training — each bitwise identical to the
per-device loops, asserted against 64 sequential runs on every run.
The sharded fleet routes the governor fleet through the
:class:`~repro.fleet.sharding.ShardedFleetEngine` (one child process per
shard, streamed O(devices) summaries) and must beat the single-process
engine's aggregate steps/s while reproducing its logs bitwise.

Each timing-enabled run emits ``BENCH_fleet.json`` at the repository root;
CI uploads it as an artifact so the fleet-throughput trajectory is tracked
from this PR onward.
"""

from __future__ import annotations

import gc
import json
import platform as platform_module
import time
from pathlib import Path

import numpy as np
import pytest

import os

from repro.control.policy import GovernorPolicy
from repro.core.framework import run_policy_on_snippets
from repro.experiments.common import build_trained_framework
from repro.experiments.scales import TINY
from repro.fleet import DeviceSpec, ShardedFleetEngine, build_fleet
from repro.soc.configuration import ConfigurationSpace
from repro.soc.governors import OndemandGovernor
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.sequences import build_online_sequence
from repro.workloads.suites import training_workloads, unseen_workloads

#: Acceptance floor: lockstep fleet vs sequential aggregate steps/s.
MIN_FLEET_SPEEDUP = 3.0

#: Acceptance floor for the online-IL fleet (batched learning included).
#: The measured ratio sits around 3.5-4x on the reference box; the floor
#: leaves the same kind of noise margin as ``MIN_FLEET_SPEEDUP`` does for
#: the governor fleet (single-core hosts time noisily).
MIN_ONLINE_IL_FLEET_SPEEDUP = 2.5

#: Devices in the gated fleet.
N_DEVICES = 64

#: Workload repetitions per device trace (~96 steps each).
TRACE_REPEATS = 4

#: Where the perf record is written (repository root, uploaded by CI).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

LOG_KEYS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp")


def _device_policy(space, index: int):
    """Ondemand-governor devices: the classic per-device baseline."""
    return GovernorPolicy(OndemandGovernor(space))


def _device_trace(index: int):
    generator = SnippetTraceGenerator(seed=100 + index)
    workloads = training_workloads()
    trace = []
    for repeat in range(TRACE_REPEATS):
        spec = workloads[(index + repeat) % len(workloads)]
        trace.extend(generator.generate(spec))
    return trace


@pytest.fixture(scope="module")
def fleet_fixture():
    """Shared platform/space/simulator plus the 64 per-device traces."""
    soc = odroid_xu3_like()
    space = ConfigurationSpace(soc)
    simulator = SoCSimulator(soc, noise_scale=0.01, seed=0)
    traces = [_device_trace(i) for i in range(N_DEVICES)]
    # Warm every shared memoised table (SoA view, OPP lookup, sweep tables)
    # before timing either side, so the measured ratio is about the
    # stepping, not one-time memoisation.
    space.soa_view()
    space.opp_lookup_table()
    run_policy_on_snippets(
        simulator, space, GovernorPolicy(OndemandGovernor(space)),
        traces[0][:4], rng=np.random.default_rng(0),
    )
    return space, simulator, traces


@pytest.fixture(scope="module")
def speedup_gate(request):
    """Whether the timing floor is asserted on this run (see module docs)."""
    return not request.config.getoption("benchmark_disable", False)


@pytest.fixture(scope="module")
def perf_record(speedup_gate):
    """Collects measurements; written to disk at teardown on timed runs."""
    record = {
        "benchmark": "fleet",
        "fixture": {
            "n_devices": N_DEVICES,
            "trace_repeats": TRACE_REPEATS,
        },
        "thresholds": {
            "min_fleet_speedup": MIN_FLEET_SPEEDUP,
            "min_online_il_fleet_speedup": MIN_ONLINE_IL_FLEET_SPEEDUP,
            # The sharded gate is relative: strictly more aggregate
            # steps/s than the single-process engine in the same session.
            "min_sharded_speedup": 1.0,
        },
        "host": {
            "python": platform_module.python_version(),
            "numpy": np.__version__,
            "machine": platform_module.machine(),
        },
        "results": {},
    }
    yield record
    if speedup_gate and record["results"]:
        RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote perf record to {RECORD_PATH}")


def _sequential_runs(space, simulator, traces):
    return [
        run_policy_on_snippets(
            simulator, space, _device_policy(space, i),
            traces[i], rng=np.random.default_rng(1000 + i),
        )
        for i in range(len(traces))
    ]


def _fleet_engine(space, simulator, traces):
    devices = [
        DeviceSpec(
            name=f"device-{i:02d}",
            policy=_device_policy(space, i),
            snippets=traces[i],
            rng=np.random.default_rng(1000 + i),
        )
        for i in range(len(traces))
    ]
    return build_fleet(devices, simulator, space)


@pytest.mark.benchmark(group="fleet")
def test_bench_fleet_lockstep(fleet_fixture, perf_record, speedup_gate):
    """64-device lockstep fleet: identical logs, >=3x aggregate steps/s."""
    space, simulator, traces = fleet_fixture
    total_steps = sum(len(trace) for trace in traces)

    # Equivalence on every run: the lockstep fleet must reproduce the 64
    # sequential runs bitwise, per device.
    sequential = _sequential_runs(space, simulator, traces)
    engine = _fleet_engine(space, simulator, traces)
    fleet = engine.run()
    assert engine.steps_executed == total_steps
    assert engine.batched_executions == total_steps
    for reference, actual in zip(sequential, fleet):
        for key in LOG_KEYS:
            np.testing.assert_array_equal(
                reference.log.column(key), actual.log.column(key), err_msg=key
            )
        assert reference.total_energy_j == actual.total_energy_j
    if not speedup_gate:
        return

    # Drop the equivalence-phase result graphs before timing: ~800k live
    # objects would otherwise inflate every GC pass inside the timed runs.
    del sequential, fleet, engine
    gc.collect()

    sequential_s = float("inf")
    fleet_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        runs = _sequential_runs(space, simulator, traces)
        sequential_s = min(sequential_s, time.perf_counter() - start)
        del runs
        gc.collect()

        timed_engine = _fleet_engine(space, simulator, traces)
        # prepare() is per-fleet setup (trace and noise tensors),
        # analogous to the policy/generator construction both sides do
        # outside the timers; the timed region is the lockstep stepping.
        timed_engine.prepare()
        start = time.perf_counter()
        timed_engine.run()
        fleet_s = min(fleet_s, time.perf_counter() - start)
        del timed_engine
        gc.collect()

    speedup = sequential_s / fleet_s
    perf_record["results"]["governor_fleet"] = {
        "devices": N_DEVICES,
        "total_steps": total_steps,
        "sequential_s": sequential_s,
        "fleet_s": fleet_s,
        "sequential_steps_per_s": total_steps / sequential_s,
        "fleet_steps_per_s": total_steps / fleet_s,
        "speedup": speedup,
    }
    print(f"\nfleet lockstep ({N_DEVICES} devices, {total_steps} steps): "
          f"sequential={sequential_s:.3f}s fleet={fleet_s:.3f}s "
          f"speedup={speedup:.2f}x "
          f"({total_steps / fleet_s:.0f} steps/s aggregate)")
    assert speedup >= MIN_FLEET_SPEEDUP


def _sharded_engine(space, simulator, traces, n_shards, collect):
    devices = [
        DeviceSpec(
            name=f"device-{i:02d}",
            policy=_device_policy(space, i),
            snippets=traces[i],
            rng=np.random.default_rng(1000 + i),
        )
        for i in range(len(traces))
    ]
    return ShardedFleetEngine(devices, simulator, space,
                              n_shards=n_shards, collect=collect)


@pytest.mark.benchmark(group="fleet")
def test_bench_sharded_fleet(fleet_fixture, perf_record, speedup_gate):
    """Process-sharded fleet: identical logs, beats single-process.

    The bitwise phase (every run, smoke included) checks the sharded
    engine against the in-process engine on the full 64-device fleet.
    The timed phase mirrors the other gates' prepare-outside-timer
    convention — :meth:`~repro.fleet.sharding.ShardedFleetEngine.prepare`
    starts the shard children, which build their engines and position
    noise streams; only the go→done stepping region (and reaping the
    children) is measured.  Streaming summaries keep child memory
    O(devices), which (with the cycle collector idle) is what lets a
    sharded run beat the single-process engine even on a single-core
    host; multi-core hosts add true parallelism on top.
    """
    space, simulator, traces = fleet_fixture
    total_steps = sum(len(trace) for trace in traces)

    reference = _fleet_engine(space, simulator, traces).run()
    sharded = _sharded_engine(space, simulator, traces,
                              n_shards=2, collect="logs")
    summaries = sharded.run()
    assert sharded.steps_executed == total_steps
    assert sharded.batched_executions == total_steps
    for run, summary in zip(reference, summaries):
        columns = run.log.to_dict()
        for key in LOG_KEYS:
            np.testing.assert_array_equal(
                np.asarray(columns[key]), np.asarray(summary.log[key]),
                err_msg=key,
            )
        assert run.total_energy_j == summary.total_energy_j
    if not speedup_gate:
        return

    del reference, sharded, summaries
    gc.collect()

    # Baseline: the single-process engine's aggregate steps/s, reused
    # from the lockstep gate when it ran in this session.
    governor_row = perf_record["results"].get("governor_fleet")
    if governor_row is not None:
        baseline_s = governor_row["fleet_s"]
    else:
        baseline_s = float("inf")
        for _ in range(3):
            timed_engine = _fleet_engine(space, simulator, traces)
            timed_engine.prepare()
            start = time.perf_counter()
            timed_engine.run()
            baseline_s = min(baseline_s, time.perf_counter() - start)
            del timed_engine
            gc.collect()

    n_shards = max(1, min(4, os.cpu_count() or 1))
    sharded_s = float("inf")
    for _ in range(5):
        timed_engine = _sharded_engine(space, simulator, traces,
                                       n_shards=n_shards,
                                       collect="summaries")
        timed_engine.prepare()
        start = time.perf_counter()
        timed_engine.execute()
        sharded_s = min(sharded_s, time.perf_counter() - start)
        gc.collect()

    speedup = baseline_s / sharded_s
    perf_record["results"]["sharded_fleet"] = {
        "devices": N_DEVICES,
        "total_steps": total_steps,
        "n_shards": n_shards,
        "single_process_s": baseline_s,
        "sharded_s": sharded_s,
        "single_process_steps_per_s": total_steps / baseline_s,
        "fleet_steps_per_s": total_steps / sharded_s,
        "speedup_vs_single_process": speedup,
    }
    print(f"\nsharded fleet ({N_DEVICES} devices, {n_shards} shards, "
          f"{total_steps} steps): single-process={baseline_s:.3f}s "
          f"sharded={sharded_s:.3f}s speedup={speedup:.2f}x "
          f"({total_steps / sharded_s:.0f} steps/s aggregate)")
    assert total_steps / sharded_s > total_steps / baseline_s, (
        "sharded fleet must exceed the single-process engine's "
        "aggregate steps/s"
    )


IL_LOG_KEYS = ("energy_j", "time_s", "power_w", "big_opp", "little_opp",
               "config_index", "oracle_match", "oracle_energy_j")


@pytest.fixture(scope="module")
def online_il_fixture():
    """Trained TINY framework plus the 64 per-device online sequences.

    Sequences (and their ground-truth Oracle tables, served from the
    persistent ``.oracle-store``) are deterministic per seed and read-only,
    so they are built once and shared by the sequential and fleet sides;
    the *policies* are stateful learners and are rebuilt fresh for every
    run by :func:`_online_il_devices`.
    """
    framework = build_trained_framework(TINY, seed=0)
    sequences = [
        build_online_sequence(
            specs=unseen_workloads(),
            snippet_factor=TINY.sequence_snippet_factor,
            seed=i,
        ).snippets
        for i in range(N_DEVICES)
    ]
    oracle_tables = [framework.build_oracle_for(s) for s in sequences]
    return framework, sequences, oracle_tables


def _online_il_devices(framework, sequences, oracle_tables):
    """Fresh policies + fresh rng streams: one run's worth of devices."""
    return [
        DeviceSpec(
            name=f"il-{i:02d}",
            policy=framework.build_online_il_policy(
                buffer_capacity=TINY.buffer_capacity,
                update_epochs=TINY.update_epochs,
                isolated=True,
            ),
            snippets=sequences[i],
            rng=np.random.default_rng(2000 + i),
            oracle_table=oracle_tables[i],
        )
        for i in range(len(sequences))
    ]


def _online_il_sequential(framework, sequences, oracle_tables):
    devices = _online_il_devices(framework, sequences, oracle_tables)
    return [
        run_policy_on_snippets(
            framework.simulator, framework.space, device.policy,
            device.snippets, rng=np.random.default_rng(2000 + i),
            oracle_table=device.oracle_table,
        )
        for i, device in enumerate(devices)
    ]


@pytest.mark.benchmark(group="fleet")
def test_bench_online_il_fleet(online_il_fixture, perf_record, speedup_gate):
    """64-device online-IL fleet: identical logs, gated aggregate speedup.

    The same shape as the governor gate, but every step now runs the full
    adaptive pipeline — candidate sweep, two RLS model updates, buffer
    maintenance and periodic MLP training — batched fleet-wide.  The
    bitwise-equivalence phase runs on every invocation (including
    ``--benchmark-disable`` smoke runs); the timing floor only on timed
    runs.
    """
    framework, sequences, oracle_tables = online_il_fixture
    total_steps = sum(len(s) for s in sequences)

    sequential = _online_il_sequential(framework, sequences, oracle_tables)
    engine = build_fleet(
        _online_il_devices(framework, sequences, oracle_tables),
        framework.simulator, framework.space,
    )
    fleet = engine.run()
    assert engine.steps_executed == total_steps
    assert engine.batched_executions == total_steps
    # The batched learning path must actually engage: every step's decide
    # and observe should take the fleet path, none the scalar fallback.
    assert engine.batched_decisions == total_steps
    assert engine.batched_observes == total_steps
    for reference, actual in zip(sequential, fleet):
        for key in IL_LOG_KEYS:
            np.testing.assert_array_equal(
                reference.log.column(key), actual.log.column(key), err_msg=key
            )
        assert reference.total_energy_j == actual.total_energy_j
    if not speedup_gate:
        return

    del sequential, fleet, engine
    gc.collect()

    sequential_s = float("inf")
    fleet_s = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        runs = _online_il_sequential(framework, sequences, oracle_tables)
        sequential_s = min(sequential_s, time.perf_counter() - start)
        del runs
        gc.collect()

        timed_engine = build_fleet(
            _online_il_devices(framework, sequences, oracle_tables),
            framework.simulator, framework.space,
        )
        timed_engine.prepare()
        start = time.perf_counter()
        timed_engine.run()
        fleet_s = min(fleet_s, time.perf_counter() - start)
        del timed_engine
        gc.collect()

    speedup = sequential_s / fleet_s
    perf_record["results"]["online_il_fleet"] = {
        "devices": N_DEVICES,
        "total_steps": total_steps,
        "sequential_s": sequential_s,
        "fleet_s": fleet_s,
        "sequential_steps_per_s": total_steps / sequential_s,
        "fleet_steps_per_s": total_steps / fleet_s,
        "speedup": speedup,
    }
    print(f"\nonline-IL fleet ({N_DEVICES} devices, {total_steps} steps): "
          f"sequential={sequential_s:.3f}s fleet={fleet_s:.3f}s "
          f"speedup={speedup:.2f}x "
          f"({total_steps / fleet_s:.0f} steps/s aggregate)")
    assert speedup >= MIN_ONLINE_IL_FLEET_SPEEDUP
