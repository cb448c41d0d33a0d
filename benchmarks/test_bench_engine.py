"""Benchmarks for the unified engine layer: vectorized Oracle sweep.

The vectorized sweep (``build_oracle``'s array passes of
``evaluate_expected_batch`` over all its snippets at once) must (a)
reproduce the per-configuration loop in
``tests/scalar_reference/oracle_loop.py`` bitwise and (b) be at least 5x
faster on the ``FULL``-scale Oracle construction (61-79x measured on a
2-core host; ~13x when each snippet was its own batch call).  Both are
asserted here so a regression in either direction fails the benchmark run
even with ``--benchmark-disable``.
"""

from __future__ import annotations

import time

import pytest

from repro.core.oracle import OracleCache, build_oracle
from repro.experiments.scales import FULL
from repro.soc.configuration import ConfigurationSpace
from repro.soc.platform import odroid_xu3_like
from repro.soc.simulator import SoCSimulator
from repro.workloads.generator import SnippetTraceGenerator
from repro.workloads.suites import training_workloads

from scalar_reference import oracle_loop

#: Acceptance floor for the vectorized sweep (measured 61-79x on a 2-core host).
MIN_SPEEDUP = 5.0


def _full_scale_snippets():
    """The FULL-scale offline training trace (every Mi-Bench workload)."""
    generator = SnippetTraceGenerator(seed=0)
    snippets = []
    for workload in training_workloads():
        snippets.extend(
            generator.generate(workload.scaled(FULL.train_snippet_factor))
        )
    return snippets


@pytest.fixture(scope="module")
def sweep_setup():
    platform = odroid_xu3_like()
    space = ConfigurationSpace(platform)
    simulator = SoCSimulator(platform, noise_scale=0.0, seed=0)
    snippets = _full_scale_snippets()
    # Warm the space/simulator lookup tables so timing measures the sweep.
    build_oracle(simulator, space, snippets[:2])
    return simulator, space, snippets


@pytest.mark.benchmark(group="engine-sweep")
def test_bench_vectorized_oracle_sweep(benchmark, sweep_setup):
    """FULL-scale Oracle sweep: vectorized vs scalar, identical and >=5x."""
    simulator, space, snippets = sweep_setup

    scalar_start = time.perf_counter()
    scalar_table = oracle_loop.build_oracle(simulator, space, snippets)
    scalar_elapsed = time.perf_counter() - scalar_start

    batch_table = benchmark.pedantic(
        build_oracle, args=(simulator, space, snippets),
        rounds=1, iterations=1,
    )
    batch_elapsed = min(
        _timed(build_oracle, simulator, space, snippets)
        for _ in range(3)
    )

    assert list(scalar_table.rows) == list(batch_table.rows)
    assert scalar_table.columns.tobytes() == batch_table.columns.tobytes()

    speedup = scalar_elapsed / batch_elapsed
    print(f"\nOracle sweep ({len(snippets)} snippets x {len(space)} configs): "
          f"scalar={scalar_elapsed:.3f}s vectorized={batch_elapsed:.3f}s "
          f"speedup={speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="engine-cache")
def test_bench_oracle_cache_amortizes_resweeps(benchmark, sweep_setup):
    """A warm OracleCache makes repeated sweeps effectively free."""
    simulator, space, snippets = sweep_setup
    cache = OracleCache()
    build_oracle(simulator, space, snippets, cache=cache)

    cold_elapsed = _timed(build_oracle, simulator, space, snippets)
    warm_table = benchmark.pedantic(
        build_oracle, args=(simulator, space, snippets),
        kwargs={"cache": cache}, rounds=1, iterations=1,
    )
    warm_elapsed = min(
        _timed(build_oracle, simulator, space, snippets, cache=cache)
        for _ in range(3)
    )

    assert cache.hits >= len(snippets)
    assert len(warm_table.rows) == len({snippet.name for snippet in snippets})
    print(f"\nOracle re-sweep: cold={cold_elapsed*1e3:.1f}ms "
          f"cached={warm_elapsed*1e3:.1f}ms")
    assert warm_elapsed < cold_elapsed
