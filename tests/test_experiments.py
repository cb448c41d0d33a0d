"""Integration tests: every experiment driver runs and reproduces the paper's shape."""

import numpy as np
import pytest

from repro.control.policy import StaticPolicy
from repro.core.framework import run_policy_on_snippets

from repro.experiments import (
    format_figure2,
    format_figure3,
    format_figure4,
    format_figure5,
    format_table1,
    format_table2,
    run_figure2,
    run_figure5,
    run_table1,
    run_table2,
)
from repro.experiments.ablations import (
    run_buffer_size_ablation,
    run_config_space_ablation,
    run_explicit_nmpc_ablation,
    run_forgetting_factor_ablation,
    run_noc_model_comparison,
)
from repro.experiments.common import run_online_adaptation_study
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.scales import TINY


@pytest.fixture(scope="module")
def adaptation_study():
    return run_online_adaptation_study(TINY, seed=0)


class TestTable1:
    def test_schema_covers_paper_counters(self):
        result = run_table1()
        assert result.covered
        assert len(result.rows) == 9
        assert "Table I" in format_table1(result)


class TestTable2:
    def test_generalization_shape(self):
        result = run_table2(TINY, seed=0)
        # Training suite stays close to the Oracle...
        assert result.suite_mean("Mi-Bench") < 1.12
        # ...while the unseen suites are clearly worse (the paper's gap).
        assert result.suite_mean("PARSEC") > result.suite_mean("Mi-Bench")
        assert result.generalization_gap > 0.0
        assert all(v >= 0.99 for v in result.normalized_energy.values())
        text = format_table2(result)
        assert "Blkschls4T" in text


class TestFigure2:
    def test_prediction_error_within_bound(self):
        result = run_figure2(TINY, seed=0)
        assert result.n_frames() == TINY.gpu_frames
        assert result.error_percent() < 10.0
        assert len(result.predicted_ms) == len(result.measured_ms)
        assert "Nenamark2" in format_figure2(result)


class TestFigure3:
    def test_online_il_converges_and_rl_does_not(self, adaptation_study):
        result = run_figure3(TINY, study=adaptation_study)
        # Online IL ends near the Oracle decisions; RL stays clearly below.
        late = slice(int(len(result.online_il_near_optimal) * 0.7), None)
        il_late = float(np.mean(result.online_il_near_optimal[late]))
        rl_late = float(np.mean(result.rl_near_optimal[late]))
        assert il_late > 60.0
        assert il_late > rl_late + 15.0
        assert result.time_axis_s[-1] > result.time_axis_s[0]
        assert "Figure 3" in format_figure3(result)


class TestFigure4:
    def test_energy_shape(self, adaptation_study):
        result = run_figure4(TINY, study=adaptation_study)
        assert len(result.applications()) == 16
        # Online-IL stays close to the Oracle on average; RL is clearly worse.
        assert result.mean("il") < 1.10
        assert result.mean("rl") > result.mean("il")
        assert result.worst("rl") > 1.05
        text = format_figure4(result)
        assert "blackscholes-4t" in text


class TestFigure5:
    def test_enmpc_saves_energy_with_small_overhead(self):
        result = run_figure5(TINY, seed=0,
                             benchmarks=["angrybirds", "epiccitadel", "vendettamark"])
        assert len(result.per_benchmark) == 3
        for row in result.per_benchmark:
            assert row.gpu_savings_percent > 0.0
            assert row.pkg_savings_percent <= row.gpu_savings_percent + 1.0
            assert row.fps_overhead_percent < 8.0
        assert result.average("gpu_savings_percent") > 5.0
        assert "Figure 5" in format_figure5(result)

    def test_one_explicit_surface_fit_per_target_fps(self, monkeypatch):
        """A surface depends on the GPU, target fps, margin and sample
        count only, so benchmarks sharing a frame rate share one fit."""
        from repro.control.explicit_nmpc import ExplicitNMPCGpuController
        from repro.workloads.graphics import (figure5_benchmark_order,
                                              get_graphics_workload)

        fitted_fps = []
        original_fit = ExplicitNMPCGpuController.fit

        def counting_fit(controller, *args, **kwargs):
            fitted_fps.append(controller.target_fps)
            return original_fit(controller, *args, **kwargs)

        monkeypatch.setattr(ExplicitNMPCGpuController, "fit", counting_fit)
        result = run_figure5(TINY, seed=0)
        names = figure5_benchmark_order()
        assert len(result.per_benchmark) == len(names) == 10
        distinct_fps = {
            get_graphics_workload(name, n_frames=TINY.gpu_frames,
                                  seed=0).target_fps
            for name in names
        }
        assert sorted(fitted_fps) == sorted(distinct_fps)


class TestOnlineAdaptationStudy:
    def test_per_app_normalized_without_oracle_returns_empty(self,
                                                             adaptation_study):
        """Records without oracle_energy_j must not crash or produce NaN."""
        framework = adaptation_study.framework
        snippets = adaptation_study.sequence.snippets[:6]
        run = run_policy_on_snippets(framework.simulator, framework.space,
                                     StaticPolicy(framework.space), snippets)
        assert adaptation_study.online_per_app_normalized(run) == {}

    def test_per_app_normalized_with_partial_oracle_coverage(self,
                                                             adaptation_study):
        """Apps missing from the Oracle table are dropped, not NaN'd."""
        framework = adaptation_study.framework
        snippets = adaptation_study.sequence.snippets[:8]
        partial_table = framework.build_oracle_for(snippets[:3])
        run = run_policy_on_snippets(framework.simulator, framework.space,
                                     StaticPolicy(framework.space), snippets,
                                     oracle_table=partial_table)
        normalized = adaptation_study.online_per_app_normalized(run)
        covered_apps = {s.application for s in snippets[:3]}
        assert set(normalized) <= covered_apps
        assert normalized, "covered applications should survive the guard"
        for value in normalized.values():
            assert np.isfinite(value) and value > 0.0


class TestAblations:
    def test_buffer_size_ablation_runs(self):
        rows = run_buffer_size_ablation(buffer_sizes=(5, 20), scale=TINY, seed=0)
        assert len(rows) == 2
        assert rows[0].policy_updates >= rows[1].policy_updates
        assert all(r.storage_bytes < 20 * 1024 for r in rows)

    def test_forgetting_factor_ablation(self):
        rows = run_forgetting_factor_ablation(factors=(0.9, 0.99), scale=TINY,
                                              seed=0)
        assert len(rows) == 3
        assert [r.adaptive for r in rows] == [False, False, True]
        assert all(r.error_percent > 0 for r in rows)

    def test_explicit_nmpc_ablation(self):
        rows = run_explicit_nmpc_ablation(scale=TINY, seed=0)
        names = {r.model_name for r in rows}
        assert names == {"decision-tree", "linear", "knn"}
        tree = next(r for r in rows if r.model_name == "decision-tree")
        linear = next(r for r in rows if r.model_name == "linear")
        assert tree.surface_disagreement <= linear.surface_disagreement + 0.05

    def test_config_space_ablation(self):
        rows = run_config_space_ablation(scale=TINY, seed=0)
        assert len(rows) == 2
        assert rows[1].n_configurations > rows[0].n_configurations

    def test_noc_model_comparison(self):
        result = run_noc_model_comparison(mesh_width=3,
                                          train_rates=(0.02, 0.05, 0.08, 0.11),
                                          test_rates=(0.04, 0.09), n_cycles=150,
                                          seed=0)
        assert result.n_train == 4 and result.n_test == 2
        assert result.svr_mape_percent > 0


class TestRunnerOracleStore:
    """The on-disk Oracle store through the experiment runner and CLI."""

    @pytest.fixture(autouse=True)
    def isolated_default_store(self):
        from repro.core.oracle_store import (
            get_default_oracle_store,
            set_default_oracle_store,
        )
        previous = get_default_oracle_store()
        set_default_oracle_store(None)
        yield
        set_default_oracle_store(previous)

    def _summaries(self, run):
        from tests.test_goldens import to_jsonable
        return [to_jsonable(seed_run.result) for seed_run in run.seed_runs]

    def test_results_identical_with_store_cold_and_warm(self, tmp_path):
        from repro.experiments.runner import ExperimentRunner

        with ExperimentRunner(scale=TINY, seeds=(0,)) as plain:
            baseline = self._summaries(plain.run("table2"))
        from repro.core.oracle_store import set_default_oracle_store
        set_default_oracle_store(None)
        with ExperimentRunner(scale=TINY, seeds=(0,),
                              oracle_store=tmp_path / "store") as cold:
            cold_run = cold.run("table2")
        set_default_oracle_store(None)
        with ExperimentRunner(scale=TINY, seeds=(0,),
                              oracle_store=tmp_path / "store") as warm:
            warm_run = warm.run("table2")
        assert baseline == self._summaries(cold_run)
        assert baseline == self._summaries(warm_run)
        # The warm invocation served the design-time sweep from disk.
        warm_meta = warm_run.seed_runs[0].metadata
        assert warm_meta["oracle_cache_store_hits"] > 0

    def test_parallel_fanout_shares_store(self, tmp_path):
        """A pooled run publishes each seed's sweeps through its own cache;
        a second pooled run on the same store misses nothing."""
        from repro.core.oracle_store import set_default_oracle_store
        from repro.experiments.runner import ExperimentRunner

        seeds = (0, 1)
        with ExperimentRunner(scale=TINY, seeds=seeds) as plain:
            baseline = self._summaries(plain.run("table2"))
        runs = []
        for _ in range(2):
            set_default_oracle_store(None)
            with ExperimentRunner(scale=TINY, seeds=seeds, jobs=2,
                                  oracle_store=tmp_path / "store") as pooled:
                runs.append(pooled.run("table2"))
        for run in runs:
            assert baseline == self._summaries(run)
        for seed_run in runs[1].seed_runs:
            assert seed_run.metadata["oracle_cache_store_misses"] == 0
            assert seed_run.metadata["oracle_cache_store_hits"] > 0

    def test_close_releases_default_store(self, tmp_path):
        from repro.core.oracle_store import get_default_oracle_store
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(scale=TINY, seeds=(0,),
                                  oracle_store=tmp_path / "store")
        assert get_default_oracle_store() is runner.oracle_store
        runner.close()
        assert get_default_oracle_store() is None
        # A reused runner reinstalls its store for the runs it executes.
        run = runner.run("table1")
        assert len(run.seed_runs) == 1
        assert get_default_oracle_store() is runner.oracle_store
        runner.close()
        assert get_default_oracle_store() is None

    def test_cli_oracle_store_flag(self, tmp_path, capsys):
        from repro.experiments.runner import main

        store_dir = tmp_path / "cli-store"
        assert main(["table1", "--scale", "tiny",
                     "--oracle-store", str(store_dir)]) == 0
        assert store_dir.is_dir()
        assert "table1" in capsys.readouterr().out

    def test_seed_run_metadata_reports_cache_counters(self):
        from repro.experiments.runner import ExperimentRunner

        with ExperimentRunner(scale=TINY, seeds=(0,)) as runner:
            run = runner.run("table2")
        metadata = run.seed_runs[0].metadata
        for key in ("oracle_cache_hits", "oracle_cache_misses",
                    "oracle_cache_store_hits", "oracle_cache_store_misses"):
            assert key in metadata
        assert metadata["oracle_cache_misses"] > 0
        assert "oracle cache:" in run.format()

    def test_pooled_task_cache_counters_ignore_worker_history(self):
        """A pooled figure4 task counts the same Oracle-cache activity
        whether or not its worker process ran figure3 first."""
        from repro.experiments.runner import _pooled_seed_run

        def cache_counters(name):
            seed_run = _pooled_seed_run(
                (name, TINY, 9101, None, None, None, None))
            return {key: value for key, value in seed_run.metadata.items()
                    if key.startswith("oracle_cache_")}

        alone = cache_counters("figure4")
        cache_counters("figure3")
        after_figure3 = cache_counters("figure4")
        assert alone["oracle_cache_misses"] > 0
        assert after_figure3 == alone


class TestCLIListing:
    def test_list_json_is_machine_readable(self, capsys):
        import json

        from repro.experiments.runner import available_experiments, main

        assert main(["--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [entry["name"] for entry in payload["experiments"]]
        assert names == available_experiments()
        assert "fleet" in names
        for entry in payload["experiments"]:
            assert set(entry) == {"name", "description", "tags"}
            assert entry["description"]
        assert "tiny" in payload["scales"]
        assert payload["scenarios"]

    def test_json_without_list_is_an_error(self, capsys):
        from repro.experiments.runner import main

        assert main(["--json"]) == 2
        assert "--json requires --list" in capsys.readouterr().err

    def test_plain_list_mentions_fleet(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fleet" in out
        assert "Scales:" in out

    def test_devices_flag_requires_fleet_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--scale", "tiny", "--devices", "4"]) == 2
        assert "--devices has no effect" in capsys.readouterr().err

    def test_cli_fleet_devices_flag(self, capsys):
        from repro.experiments.runner import main

        assert main(["fleet", "--scale", "tiny", "--devices", "2"]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2 devices" in out
