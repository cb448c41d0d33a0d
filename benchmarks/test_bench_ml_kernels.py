"""Benchmarks for the vectorized ML kernels: tree training and inference.

Gates the PR-2 perf work the same way ``test_bench_engine.py`` gates the
PR-1 Oracle sweep: the vectorized split search and batch predict must (a)
reproduce the scalar kernels of ``tests/scalar_reference/tree_scalar.py``
bitwise and (b) train at least ``MIN_FIT_SPEEDUP``x faster on the BENCH
fixture.
Bitwise parity is asserted on every run; the timing floors only on
timing-enabled runs (``--benchmark-disable`` — the CI smoke job — skips
them so the smoke run stays insensitive to runner load).

Each run also emits ``BENCH_ml_kernels.json`` at the repository root — a
small machine-readable perf record (fixture shape, per-kernel timings,
speedups) that CI uploads as an artifact so the kernel-performance
trajectory is tracked from this PR onward.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeRegressor

from scalar_reference.tree_scalar import (
    ScalarDecisionTreeRegressor,
    predict_row,
    trees_identical,
)

#: Acceptance floor for vectorized-vs-scalar training time on the fixture
#: (a tight case: the scalar kernel is already cumsum-based).
MIN_FIT_SPEEDUP = 3.0

#: Acceptance floor for batch predict vs the per-row reference walk.
MIN_PREDICT_SPEEDUP = 3.0

#: BENCH fixture shape.  Large enough that per-node vectorization overheads
#: amortise (the regression speedup grows with n); small enough that the
#: scalar reference still finishes in single-digit seconds on CI.
N_SAMPLES = 3000
N_FEATURES = 8
N_QUERIES = 20000

#: Where the perf record is written (repository root, committed + uploaded).
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_ml_kernels.json"


def _best_of(repeats: int, fn, *args, **kwargs) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def ml_fixture():
    rng = np.random.default_rng(2020)
    x = rng.normal(size=(N_SAMPLES, N_FEATURES))
    y_reg = x @ rng.normal(size=N_FEATURES) + 0.1 * rng.normal(size=N_SAMPLES)
    queries = rng.normal(size=(N_QUERIES, N_FEATURES))
    return x, y_reg, queries


@pytest.fixture(scope="module")
def speedup_gate(request):
    """Whether the timing floors are asserted on this run.

    With ``--benchmark-disable`` (the CI smoke job) only the bitwise-parity
    checks run: asserting wall-clock ratios there would duplicate the
    dedicated ``ml-kernel-benchmark`` job and make the smoke job
    timing-sensitive on loaded shared runners.
    """
    return not request.config.getoption("benchmark_disable", False)


@pytest.fixture(scope="module")
def perf_record(speedup_gate):
    """Collects per-benchmark measurements; written to disk at teardown.

    The record is only written on timing-enabled runs — smoke runs with
    ``--benchmark-disable`` must not overwrite the committed record with
    throwaway numbers.
    """
    record = {
        "benchmark": "ml_kernels",
        "fixture": {
            "n_samples": N_SAMPLES,
            "n_features": N_FEATURES,
            "n_queries": N_QUERIES,
            "max_depth": 8,
        },
        "thresholds": {
            "min_fit_speedup": MIN_FIT_SPEEDUP,
            "min_predict_speedup": MIN_PREDICT_SPEEDUP,
        },
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


@pytest.mark.benchmark(group="ml-kernels")
def test_bench_regression_tree_training(ml_fixture, perf_record, speedup_gate):
    """Vectorized regression split search: identical tree, >=3x faster."""
    x, y_reg, _ = ml_fixture
    assert trees_identical(
        DecisionTreeRegressor(max_depth=8).fit(x, y_reg),
        ScalarDecisionTreeRegressor(max_depth=8).fit(x, y_reg),
    )
    if not speedup_gate:
        return
    scalar_s = _best_of(
        2, lambda: ScalarDecisionTreeRegressor(max_depth=8).fit(x, y_reg)
    )
    vectorized_s = _best_of(
        3, lambda: DecisionTreeRegressor(max_depth=8).fit(x, y_reg)
    )
    speedup = scalar_s / vectorized_s
    perf_record["results"]["regression_fit"] = {
        "scalar_s": scalar_s, "vectorized_s": vectorized_s, "speedup": speedup,
    }
    print(f"\nregression fit: scalar={scalar_s:.3f}s "
          f"vectorized={vectorized_s:.3f}s speedup={speedup:.1f}x")
    assert speedup >= MIN_FIT_SPEEDUP


@pytest.mark.benchmark(group="ml-kernels")
def test_bench_batch_predict(ml_fixture, perf_record, speedup_gate):
    """Level-by-level batch predict: identical outputs, >=3x faster."""
    x, y_reg, queries = ml_fixture
    regressor = DecisionTreeRegressor(max_depth=8).fit(x, y_reg)

    np.testing.assert_array_equal(
        regressor.predict(queries),
        np.array([predict_row(regressor, r) for r in queries]),
    )
    if not speedup_gate:
        return
    row_walk_s = _best_of(
        1, lambda: np.array([predict_row(regressor, r) for r in queries])
    )
    batch_s = _best_of(3, regressor.predict, queries)
    speedup = row_walk_s / batch_s
    perf_record["results"]["batch_predict"] = {
        "row_walk_s": row_walk_s, "batch_s": batch_s, "speedup": speedup,
    }
    print(f"\nbatch predict ({N_QUERIES} rows): row-walk={row_walk_s:.3f}s "
          f"batch={batch_s:.4f}s speedup={speedup:.1f}x")
    assert speedup >= MIN_PREDICT_SPEEDUP
