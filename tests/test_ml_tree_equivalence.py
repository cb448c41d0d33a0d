"""Equivalence suite for the vectorized ML kernels and the parallel runner.

The vectorized CART split search, the level-by-level batch ``predict``
traversal, the vectorized trailing moving average and the process-parallel
multi-seed fan-out must all be *drop-in* replacements: every test here pins
them bitwise (not approximately) against the scalar loops in
``tests/scalar_reference/tree_scalar.py`` or the sequential paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.ml.tree import DecisionTreeRegressor, _best_split_regression
from repro.utils.stats import trailing_nanmean

from scalar_reference.tree_scalar import (
    ScalarDecisionTreeRegressor,
    best_split_regression,
    predict_row,
    trees_identical,
)


def _regression_fixtures():
    """(x, y) regression fixtures spanning the tricky split-search regimes."""
    rng = np.random.default_rng(1234)
    fixtures = []
    # Smooth random data: many candidate thresholds per feature.
    x = rng.normal(size=(120, 6))
    fixtures.append(("smooth", x, x @ rng.normal(size=6) + rng.normal(size=120)))
    # Quantised features: duplicated values exercise the equal-neighbour skip.
    xq = np.round(rng.normal(size=(90, 4)) * 2) / 2
    fixtures.append(("quantised", xq, rng.normal(size=90)))
    # Constant feature column: never splittable.
    xc = rng.normal(size=(60, 3))
    xc[:, 1] = 7.5
    fixtures.append(("constant-col", xc, xc[:, 0] ** 2 + rng.normal(size=60)))
    # Monotone target: score valley with a long improvement chain.
    xm = np.sort(rng.normal(size=(200, 2)), axis=0)
    fixtures.append(("monotone", xm, np.arange(200.0)))
    # Tiny dataset at the min_samples boundary.
    fixtures.append(("tiny", rng.normal(size=(5, 2)), rng.normal(size=5)))
    # Two-level target: many candidates tie on score, so the scan order
    # (earliest feature, then lowest threshold) picks the split.
    xb = rng.normal(size=(80, 3))
    fixtures.append(("two-level", xb, (xb[:, 0] + xb[:, 1] > 0).astype(float)))
    # Duplicated column: both copies score alike and the first must win.
    xd = rng.normal(size=(70, 3))
    xd[:, 2] = xd[:, 0]
    fixtures.append(("tied-columns", xd,
                     xd[:, 0] ** 3 + 0.1 * rng.normal(size=70)))
    # Heavy-tailed target: a few huge values dominate the cumulative sums.
    fixtures.append(("outliers", rng.normal(size=(100, 4)),
                     rng.standard_cauchy(size=100)))
    return fixtures


_TREE_PARAMS = [
    dict(max_depth=8, min_samples_split=4, min_samples_leaf=2),
    dict(max_depth=3, min_samples_split=2, min_samples_leaf=1),
    dict(max_depth=12, min_samples_split=6, min_samples_leaf=4),
]


class TestRegressionSplitEquivalence:
    @pytest.mark.parametrize("name,x,y", _regression_fixtures())
    @pytest.mark.parametrize("params", _TREE_PARAMS)
    def test_fitted_trees_identical(self, name, x, y, params):
        vectorized = DecisionTreeRegressor(**params).fit(x, y)
        scalar = ScalarDecisionTreeRegressor(**params).fit(x, y)
        assert trees_identical(vectorized, scalar)

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_single_split_search_identical(self, min_leaf):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(64, 5))
        y = x[:, 2] * 3.0 + rng.normal(size=64)
        assert (_best_split_regression(x, y, min_leaf)
                == best_split_regression(x, y, min_leaf))

    def test_unsplittable_data_returns_no_feature(self):
        x = np.full((20, 3), 1.5)
        y = np.arange(20.0)
        feature, _, _ = _best_split_regression(x, y, 1)
        assert feature is None
        assert best_split_regression(x, y, 1)[0] is None


def _internal_node_count(node) -> int:
    if node is None or node.is_leaf:
        return 0
    return 1 + _internal_node_count(node.left) + _internal_node_count(node.right)


class TestSplitSearchHook:
    """``_grow`` searches through the class's ``_split_search`` attribute.

    The fitted-tree tests above compare the production tree against a
    ``Scalar*`` subclass that differs from it in that attribute only; were
    ``_grow`` to call a kernel by name, both would grow the same tree and
    those tests would compare nothing.
    """

    def test_reference_trees_override_only_the_split_search(self):
        reference = ScalarDecisionTreeRegressor
        assert reference.__bases__ == (DecisionTreeRegressor,)
        assert reference._split_search is best_split_regression
        assert DecisionTreeRegressor._split_search is not best_split_regression
        # ``_abc_impl`` is the ABC registry every subclass of an ABC gets.
        overridden = {name for name in vars(reference)
                      if not name.startswith("__") and name != "_abc_impl"}
        assert overridden == {"_split_search"}

    def test_grow_calls_the_class_split_search(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(80, 3))
        base, kernel = DecisionTreeRegressor, _best_split_regression
        y = x[:, 0] * 2.0 + rng.normal(size=80)
        searched = []

        def counting(*args):
            searched.append(args[0].shape[0])
            return kernel(*args)

        def no_split(*args):
            return None, 0.0, 0.0

        counting_tree = type("CountingTree", (base,),
                             {"_split_search": staticmethod(counting)})
        no_split_tree = type("NoSplitTree", (base,),
                             {"_split_search": staticmethod(no_split)})
        counted = counting_tree(max_depth=5).fit(x, y)
        assert trees_identical(counted, base(max_depth=5).fit(x, y))
        assert searched[0] == 80
        assert len(searched) >= _internal_node_count(counted.root_) >= 1
        assert no_split_tree(max_depth=5).fit(x, y).root_.is_leaf


class TestBatchPredictEquivalence:
    @pytest.mark.parametrize("name,x,y", _regression_fixtures())
    def test_regression_predict_matches_row_walk(self, name, x, y):
        model = DecisionTreeRegressor(max_depth=8).fit(x, y)
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(200, x.shape[1]))
        batch = model.predict(queries)
        reference = np.array([predict_row(model, row) for row in queries])
        np.testing.assert_array_equal(batch, reference)

    def test_predict_on_training_points_hits_leaf_means(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        model = DecisionTreeRegressor(max_depth=4).fit(x, y)
        np.testing.assert_array_equal(
            model.predict(x), np.array([predict_row(model, r) for r in x])
        )

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((2, 2)))

    def test_refit_invalidates_flat_cache(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(50, 3))
        model = DecisionTreeRegressor(max_depth=4).fit(x, x[:, 0])
        first = model.predict(x)
        model.fit(x, -x[:, 0])
        second = model.predict(x)
        assert not np.array_equal(first, second)
        np.testing.assert_array_equal(
            second, np.array([predict_row(model, r) for r in x])
        )


class TestTrailingNanmean:
    def _reference(self, values, window):
        out = np.empty(len(values))
        for i in range(len(values)):
            lo = max(0, i - window + 1)
            chunk = values[lo:i + 1]
            finite = chunk[~np.isnan(chunk)]
            out[i] = finite.sum() / len(finite) if len(finite) else np.nan
        return out

    @pytest.mark.parametrize("window", [1, 3, 10, 50])
    def test_indicator_series_bitwise(self, window):
        rng = np.random.default_rng(11)
        values = rng.choice([0.0, 1.0, np.nan], size=200, p=[0.4, 0.4, 0.2])
        np.testing.assert_array_equal(trailing_nanmean(values, window),
                                      self._reference(values, window))

    def test_general_floats_close_and_nan_positions_identical(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=300)
        values[rng.random(300) < 0.3] = np.nan
        result = trailing_nanmean(values, 7)
        reference = self._reference(values, 7)
        np.testing.assert_array_equal(np.isnan(result), np.isnan(reference))
        mask = ~np.isnan(reference)
        np.testing.assert_allclose(result[mask], reference[mask], rtol=1e-12)

    def test_all_nan_window_yields_nan_without_warning(self):
        values = np.array([np.nan, np.nan, 1.0, np.nan])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = trailing_nanmean(values, 2)
        np.testing.assert_array_equal(np.isnan(result),
                                      [True, True, False, False])
        assert result[2] == 1.0 and result[3] == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            trailing_nanmean(np.zeros(4), 0)
        with pytest.raises(ValueError):
            trailing_nanmean(np.zeros((2, 2)), 3)
        assert trailing_nanmean(np.empty(0), 3).shape == (0,)


class TestParallelRunnerEquivalence:
    def test_parallel_fan_out_matches_sequential(self):
        """Job count must not change any result (figure2, 2 seeds, tiny)."""
        sequential = ExperimentRunner(scale="tiny", seeds=(0, 1)).run("figure2")
        with ExperimentRunner(scale="tiny", seeds=(0, 1), jobs=2) as runner:
            parallel = runner.run("figure2")
        for seq_run, par_run in zip(sequential.seed_runs, parallel.seed_runs):
            assert seq_run.seed == par_run.seed
            np.testing.assert_array_equal(seq_run.result.measured_ms,
                                          par_run.result.measured_ms)
            np.testing.assert_array_equal(seq_run.result.predicted_ms,
                                          par_run.result.predicted_ms)
        assert (sequential.spec.format_result(sequential.seed_runs[0].result)
                == parallel.spec.format_result(parallel.seed_runs[0].result))

    def test_jobs_clamped_to_seed_count(self):
        with ExperimentRunner(scale="tiny", seeds=(0,), jobs=8) as runner:
            run = runner.run("table1")
            assert runner._executor is None  # one seed runs in-process
        assert [seed_run.seed for seed_run in run.seed_runs] == [0]

    def test_pool_persists_across_experiments(self):
        """Successive run() calls reuse one pool and stay correct."""
        with ExperimentRunner(scale="tiny", seeds=(0, 1), jobs=2) as runner:
            first = runner.run("table1")
            pool = runner._executor
            assert pool is not None
            second = runner.run("figure2")
            assert runner._executor is pool
        assert runner._executor is None
        assert ([r.seed for r in first.seed_runs]
                == [r.seed for r in second.seed_runs] == [0, 1])
        reference = ExperimentRunner(scale="tiny", seeds=(0, 1)).run("figure2")
        for par, seq in zip(second.seed_runs, reference.seed_runs):
            np.testing.assert_array_equal(par.result.measured_ms,
                                          seq.result.measured_ms)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(scale="tiny", seeds=(0,), jobs=0)

    def test_generator_seeds_rejected_in_parallel(self):
        """A shared stateful Generator cannot honour the any-job-count
        invariant, so the parallel path refuses it outright."""
        rng = np.random.default_rng(0)
        runner = ExperimentRunner(scale="tiny", seeds=(rng, rng), jobs=2)
        with pytest.raises(ValueError, match="int or None seeds"):
            runner.run("table1")
        # The same seeds run fine sequentially.
        sequential = ExperimentRunner(scale="tiny", seeds=(rng, rng))
        assert len(sequential.run("table1").seed_runs) == 2
