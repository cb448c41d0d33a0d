"""Benchmarks for the vectorized online decision loop (runtime Oracle).

Gates the PR-4 perf work the way ``test_bench_engine.py`` gates the Oracle
sweep and ``test_bench_ml_kernels.py`` gates the tree kernels: the batched
runtime-Oracle candidate sweep must (a) choose exactly the configurations
the per-candidate loop of ``tests/scalar_reference/runtime_oracle_loop.py``
chooses (same argmin, same tie-breaking) and
(b) run at least ``MIN_SWEEP_SPEEDUP``x faster over a representative
decision workload.  Equivalence is asserted on every run; the timing floor
only on timing-enabled runs (``--benchmark-disable`` — the CI smoke job —
skips it so the smoke run stays insensitive to runner load).

The end-to-end benchmark additionally measures online-IL steps/second over
a real policy run (decision + simulation + model updates + periodic
back-prop), which is the paper's "runtime decision cost stays low" claim at
system level; it is recorded, not gated, because most of its time is spent
outside the decision kernel.

Each timing-enabled run emits ``BENCH_policy_loop.json`` at the repository
root; CI uploads it as an artifact so the decision-loop performance
trajectory is tracked from this PR onward.
"""

from __future__ import annotations

import json
import platform
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.runtime_oracle import RuntimeOracle
from repro.experiments.scales import TINY
from repro.models.performance import CpuPerformanceModel
from repro.models.power import CpuPowerModel
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

from scalar_reference import runtime_oracle_loop

#: Acceptance floor for the batched candidate sweep vs the scalar loop.
MIN_SWEEP_SPEEDUP = 5.0

#: Decision steps per timing repetition (distinct counters/current configs).
N_DECISION_STEPS = 200

#: Where the perf record is written (repository root, uploaded by CI).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_policy_loop.json"


def _best_of(repeats: int, fn, *args, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def decision_fixture():
    """Warmed models plus a stream of (counters, current) decision states."""
    soc = odroid_xu3_like()
    space = ConfigurationSpace(soc)
    simulator = SoCSimulator(soc, seed=7)
    power_model = CpuPowerModel(soc)
    performance_model = CpuPerformanceModel(soc)
    generator = SnippetTraceGenerator(seed=11)
    snippets = [
        snippet
        for workload in training_workloads()
        for snippet in generator.generate(workload.scaled(0.5))
    ]
    rng = np.random.default_rng(13)
    states = []
    current = space.default_configuration()
    while len(states) < N_DECISION_STEPS:
        for snippet in snippets:
            result = simulator.run_snippet(snippet, current,
                                           simulator.draw_noise(1, rng)[0])
            power_model.update(result.counters, current)
            performance_model.update(result.counters, current)
            states.append((result.counters, current))
            current = space.random_configuration(rng)
            if len(states) >= N_DECISION_STEPS:
                break
    return space, power_model, performance_model, states


@pytest.fixture(scope="module")
def speedup_gate(request):
    """Whether the timing floor is asserted on this run (see module docs)."""
    return not request.config.getoption("benchmark_disable", False)


@pytest.fixture(scope="module")
def perf_record(speedup_gate):
    """Collects measurements; written to disk at teardown on timed runs."""
    record = {
        "benchmark": "policy_loop",
        "fixture": {
            "n_decision_steps": N_DECISION_STEPS,
            "neighborhood_radius": 2,
        },
        "thresholds": {"min_sweep_speedup": MIN_SWEEP_SPEEDUP},
        "host": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": {},
    }
    yield record
    if speedup_gate and record["results"]:
        RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote perf record to {RECORD_PATH}")


@pytest.mark.benchmark(group="policy-loop")
def test_bench_candidate_sweep(decision_fixture, perf_record, speedup_gate):
    """Batched runtime-Oracle sweep: identical decisions, >=5x faster."""
    space, power_model, performance_model, states = decision_fixture
    oracle = RuntimeOracle(space, power_model, performance_model,
                           neighborhood_radius=2)

    # Decision equivalence on every state: same best configuration and
    # matching estimates (time predictions are bitwise equal; power goes
    # through one matmul, identical up to BLAS summation-order round-off).
    for counters, current in states:
        best_batch, est_batch = oracle.best_configuration(counters, current)
        best_scalar, est_scalar = runtime_oracle_loop.best_configuration(
            oracle, counters, current)
        assert best_batch == best_scalar
        assert est_batch.predicted_time_s == est_scalar.predicted_time_s
        np.testing.assert_allclose(est_batch.predicted_power_w,
                                   est_scalar.predicted_power_w,
                                   rtol=1e-12, atol=1e-12)
    if not speedup_gate:
        return

    def run_decisions(decide) -> None:
        for counters, current in states:
            decide(counters, current)

    scalar_decide = partial(runtime_oracle_loop.best_configuration, oracle)
    # Warm the neighbourhood index tables before timing either sweep (both
    # share them; the scalar loop also benefits, which keeps the measured
    # ratio about the prediction kernel, not the memoisation).
    run_decisions(oracle.best_configuration)
    scalar_s = _best_of(2, run_decisions, scalar_decide)
    batch_s = _best_of(3, run_decisions, oracle.best_configuration)
    speedup = scalar_s / batch_s
    per_decision_us = batch_s / N_DECISION_STEPS * 1e6
    perf_record["results"]["candidate_sweep"] = {
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": speedup,
        "batch_decision_us": per_decision_us,
    }
    print(f"\ncandidate sweep ({N_DECISION_STEPS} decisions): "
          f"scalar={scalar_s:.3f}s batch={batch_s:.4f}s "
          f"speedup={speedup:.1f}x ({per_decision_us:.0f}us/decision)")
    assert speedup >= MIN_SWEEP_SPEEDUP


@pytest.mark.benchmark(group="policy-loop")
def test_bench_online_il_steps_per_second(perf_record, speedup_gate):
    """End-to-end online-IL throughput (decision + simulate + learn)."""
    from repro.experiments.common import build_trained_framework
    from repro.workloads.sequences import build_online_sequence
    from repro.workloads.suites import unseen_workloads

    framework = build_trained_framework(TINY, seed=0)
    sequence = build_online_sequence(
        specs=unseen_workloads(),
        snippet_factor=2.0 * TINY.sequence_snippet_factor,
        seed=0,
    )
    policy = framework.build_online_il_policy(
        buffer_capacity=TINY.buffer_capacity,
        update_epochs=TINY.update_epochs,
    )
    start = time.perf_counter()
    run = framework.evaluate_policy_on_snippets(policy, sequence.snippets,
                                                with_oracle=False)
    elapsed = time.perf_counter() - start
    steps = len(run.log)
    assert steps == len(sequence.snippets)
    if not speedup_gate:
        return
    steps_per_s = steps / elapsed
    perf_record["results"]["online_il_end_to_end"] = {
        "steps": steps,
        "elapsed_s": elapsed,
        "steps_per_s": steps_per_s,
    }
    print(f"\nonline-IL end to end: {steps} steps in {elapsed:.2f}s "
          f"({steps_per_s:.0f} steps/s)")
